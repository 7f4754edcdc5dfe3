"""Heartbeat failure detector, shared by every group on a process.

One detector instance runs per process and monitors the union of peers
its endpoints care about.  Sharing the detector across groups is itself
one of the resource-sharing wins the light-weight group service is
built around (the paper's Section 1: groups with common members "can
share common services" such as failure detectors).

The detector is unreliable in the usual sense: a partition is reported
as a crash of everyone across the cut, and suspicions are revised when
heartbeats resume (used by merge discovery after a heal).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set

from ..runtime.interfaces import NodeId, Runtime
from .messages import Heartbeat

SuspicionListener = Callable[[NodeId, bool], None]  # (peer, suspected)

FD_GROUP = "_fd"


class FailureDetector:
    """Multicast-heartbeat failure detector with revisable suspicions."""

    def __init__(
        self,
        env: Runtime,
        node: NodeId,
        send_multicast: Callable[[Set[NodeId], Heartbeat, int], None],
        timeout_us: int,
    ):
        self.env = env
        self.node = node
        self._send_multicast = send_multicast
        self.timeout_us = timeout_us
        self._monitored: Dict[NodeId, int] = {}  # peer -> refcount
        self._last_heard: Dict[NodeId, int] = {}
        self._suspected: Set[NodeId] = set()
        self._listeners: List[SuspicionListener] = []
        self.heartbeats_sent = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def subscribe(self, listener: SuspicionListener) -> None:
        """Register ``listener(peer, suspected)`` for suspicion changes."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # Monitoring set (refcounted: several endpoints may watch one peer)
    # ------------------------------------------------------------------
    def monitor(self, peer: NodeId) -> None:
        """Add ``peer`` to the monitored set (refcounted)."""
        if peer == self.node:
            return
        previous = self._monitored.get(peer, 0)
        self._monitored[peer] = previous + 1
        if previous == 0:
            # Grace period: treat a newly monitored peer as alive now.
            self._last_heard[peer] = self.env.now

    def unmonitor(self, peer: NodeId) -> None:
        """Drop one reference to ``peer``; stop monitoring at zero."""
        count = self._monitored.get(peer, 0)
        if count <= 1:
            self._monitored.pop(peer, None)
            self._last_heard.pop(peer, None)
            self._suspected.discard(peer)
        else:
            self._monitored[peer] = count - 1

    def monitored_peers(self) -> Set[NodeId]:
        return set(self._monitored)

    # ------------------------------------------------------------------
    # Protocol driving (called by the stack's timers / dispatcher)
    # ------------------------------------------------------------------
    def tick_heartbeat(self) -> None:
        """Send one heartbeat round to all monitored peers."""
        peers = set(self._monitored)
        if not peers:
            return
        self.heartbeats_sent += 1
        self._send_multicast(peers, Heartbeat(group=FD_GROUP, sender=self.node), 0)

    def tick_check(self) -> None:
        """Re-evaluate suspicions against the timeout."""
        now = self.env.now
        for peer in list(self._monitored):
            last = self._last_heard.get(peer, 0)
            timed_out = (now - last) > self.timeout_us
            if timed_out and peer not in self._suspected:
                self._suspected.add(peer)
                self._notify(peer, True)
            elif not timed_out and peer in self._suspected:
                self._suspected.discard(peer)
                self._notify(peer, False)

    def on_heartbeat(self, src: NodeId) -> None:
        """Record an incoming heartbeat (or any traffic) from ``src``."""
        self._last_heard[src] = self.env.now
        if src in self._suspected:
            self._suspected.discard(src)
            self._notify(src, False)

    def _notify(self, peer: NodeId, suspected: bool) -> None:
        for listener in self._listeners:
            listener(peer, suspected)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_suspected(self, peer: NodeId) -> bool:
        return peer in self._suspected

    def suspected_peers(self) -> Set[NodeId]:
        return set(self._suspected)

    def reset(self) -> None:
        """Clear all state (process recovery)."""
        self._monitored.clear()
        self._last_heard.clear()
        self._suspected.clear()
