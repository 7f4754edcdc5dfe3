"""Group addressing: the simulated analogue of IP-multicast groups.

The paper's testbed uses UDP/IP with IP multicast: a sender transmits
once to a group address and the network delivers to current subscribers
that it can reach.  :class:`GroupAddressing` reproduces exactly that
split of responsibilities — it maintains the subscriber sets (a purely
local operation on real kernels, an in-memory registry here) while
*every transmission still crosses the simulated network*, so partitions
and crashes filter deliveries naturally.

It deliberately offers no reachability oracle: discovering who is alive
and reachable is done by the protocols above (heartbeats and presence
beacons), not by this layer.
"""

from __future__ import annotations

from typing import Dict, Set

from ..runtime.interfaces import NodeId
from .view import GroupId


class GroupAddressing:
    """Registry of group-address subscribers (one instance per network)."""

    def __init__(self) -> None:
        self._subscribers: Dict[GroupId, Set[NodeId]] = {}

    def subscribe(self, group: GroupId, node: NodeId) -> None:
        """Add ``node`` to the subscriber set of ``group``'s address."""
        self._subscribers.setdefault(group, set()).add(node)

    def unsubscribe(self, group: GroupId, node: NodeId) -> None:
        """Remove ``node`` from ``group``'s address."""
        members = self._subscribers.get(group)
        if members is not None:
            members.discard(node)
            if not members:
                del self._subscribers[group]

    def unsubscribe_all(self, node: NodeId) -> None:
        """Remove ``node`` from every group address (process teardown)."""
        for group in list(self._subscribers):
            self.unsubscribe(group, node)

    def subscribers(self, group: GroupId) -> Set[NodeId]:
        """Current subscriber set of ``group`` (reachability NOT applied)."""
        return set(self._subscribers.get(group, set()))

    def groups_of(self, node: NodeId) -> Set[GroupId]:
        """Every group address ``node`` is subscribed to."""
        return {g for g, members in self._subscribers.items() if node in members}
