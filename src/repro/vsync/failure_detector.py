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

import hashlib
import math
from typing import Callable, Dict, List, Optional, Set

from ..runtime.interfaces import NodeId, Runtime
from .messages import Heartbeat, LivenessDigest, ProbePing, ProbeRequest

SuspicionListener = Callable[[NodeId, bool], None]  # (peer, suspected)

FD_GROUP = "_fd"

#: How long a stale liveness entry waits on an indirect probe before
#: being declared suspected (gossip detector only).
FD_PROBE_TIMEOUT_US = 150_000


def rendezvous_pick(salt: str, candidates: Set[NodeId], count: int) -> List[NodeId]:
    """The ``count`` highest-scoring candidates under rendezvous hashing.

    Scores are sha256-based, so the choice is deterministic across runs
    and independent of interpreter hash seeds — gossip target selection
    must never perturb the replayable RNG streams.
    """
    if count >= len(candidates):
        return sorted(candidates)
    scored = sorted(
        candidates,
        key=lambda peer: (
            hashlib.sha256(f"{salt}|{peer}".encode("utf-8")).digest(),
            peer,
        ),
        reverse=True,
    )
    return sorted(scored[:count])


def gossip_fanout(substrate_size: int) -> int:
    """``max(2, ceil(log2(n)))`` gossip targets for an n-peer substrate."""
    if substrate_size <= 0:
        return 0
    return min(substrate_size, max(2, math.ceil(math.log2(max(2, substrate_size)))))


class FailureDetector:
    """Multicast-heartbeat failure detector with revisable suspicions."""

    def __init__(
        self,
        env: Runtime,
        node: NodeId,
        send_multicast: Callable[[Set[NodeId], Heartbeat, int], None],
        heartbeat_period_us: int,
        timeout_us: int,
    ):
        self.env = env
        self.node = node
        self._send_multicast = send_multicast
        self.heartbeat_period_us = heartbeat_period_us
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


class _Liveness:
    """One peer's row in the gossip liveness table."""

    __slots__ = ("incarnation", "counter", "suspect", "updated_at", "probe_deadline")

    def __init__(self, incarnation: int, counter: int, updated_at: int):
        self.incarnation = incarnation
        self.counter = counter
        self.suspect = False
        self.updated_at = updated_at
        #: When a pending indirect probe expires (None = no probe open).
        self.probe_deadline: Optional[int] = None

    def version(self) -> "tuple[int, int]":
        return (self.incarnation, self.counter)


class GossipFailureDetector:
    """SWIM-style gossip failure detector (zoned topology, §20).

    Drop-in replacement for :class:`FailureDetector` at the stack level
    (same monitor/unmonitor/tick/query surface), but instead of
    multicasting one heartbeat to every monitored peer per period, each
    period the node gossips a versioned liveness digest to
    ``max(2, ceil(log2(n)))`` rendezvous-chosen peers of its *substrate*
    (normally its zone).  Peers outside the substrate that endpoints
    explicitly monitor (cross-zone view members, peer relays) are
    gossiped pairwise, so every monitored peer still has a liveness
    path.  A stale entry triggers an indirect probe through two
    witnesses before the peer is declared suspected.
    """

    def __init__(
        self,
        env: Runtime,
        node: NodeId,
        send_multicast: Callable[[Set[NodeId], Heartbeat, int], None],
        heartbeat_period_us: int,
        timeout_us: int,
        probe_timeout_us: int = FD_PROBE_TIMEOUT_US,
    ):
        self.env = env
        self.node = node
        self._send_multicast = send_multicast
        self.heartbeat_period_us = heartbeat_period_us
        self.timeout_us = timeout_us
        self.probe_timeout_us = probe_timeout_us
        #: Our own epoch, bumped by the stack on crash recovery so stale
        #: pre-crash rows about us lose to post-recovery ones.
        self.incarnation = 0
        self._counter = 0
        self._round = 0
        self._monitored: Dict[NodeId, int] = {}  # peer -> refcount
        self._substrate: Set[NodeId] = set()  # zone gossip peers
        self._extras: Set[NodeId] = set()  # direct targets beyond the zone
        self._table: Dict[NodeId, _Liveness] = {}
        self._suspected: Set[NodeId] = set()
        self._listeners: List[SuspicionListener] = []
        self.heartbeats_sent = 0
        self.digests_sent = 0
        self.probes_sent = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def subscribe(self, listener: SuspicionListener) -> None:
        self._listeners.append(listener)

    def set_substrate(self, peers: Set[NodeId]) -> None:
        """Install the gossip substrate (normally the node's zone)."""
        self._substrate = {peer for peer in peers if peer != self.node}
        now = self.env.now
        for peer in self._substrate:
            if peer not in self._table:
                self._table[peer] = _Liveness(0, 0, now)

    def set_extras(self, peers: Set[NodeId]) -> None:
        """Direct gossip targets beyond the substrate (e.g. peer relays)."""
        wanted = {peer for peer in peers if peer != self.node}
        for gone in sorted(self._extras - wanted):
            if gone not in self._substrate and gone not in self._monitored:
                self._table.pop(gone, None)
                self._suspected.discard(gone)
        now = self.env.now
        for added in sorted(wanted - self._extras):
            if added not in self._table:
                self._table[added] = _Liveness(0, 0, now)
        self._extras = wanted

    # ------------------------------------------------------------------
    # Monitoring set (same refcounted contract as FailureDetector)
    # ------------------------------------------------------------------
    def monitor(self, peer: NodeId) -> None:
        if peer == self.node:
            return
        previous = self._monitored.get(peer, 0)
        self._monitored[peer] = previous + 1
        if previous == 0 and peer not in self._table:
            # Grace period: a freshly monitored peer starts alive-now.
            self._table[peer] = _Liveness(0, 0, self.env.now)

    def unmonitor(self, peer: NodeId) -> None:
        count = self._monitored.get(peer, 0)
        if count <= 1:
            self._monitored.pop(peer, None)
            if peer not in self._substrate and peer not in self._extras:
                self._table.pop(peer, None)
                self._suspected.discard(peer)
        else:
            self._monitored[peer] = count - 1

    def monitored_peers(self) -> Set[NodeId]:
        return set(self._monitored)

    def tracked_peer_count(self) -> int:
        """Peers with full per-node liveness state on this node."""
        return len(self._table)

    # ------------------------------------------------------------------
    # Protocol driving
    # ------------------------------------------------------------------
    def _scope(self) -> Set[NodeId]:
        """Peers whose liveness this node keeps full state for."""
        return self._substrate | self._extras | set(self._monitored)

    def _digest(self) -> LivenessDigest:
        own = (self.node, self.incarnation, self._counter, False)
        rows = [own]
        for peer in sorted(self._table):
            state = self._table[peer]
            rows.append((peer, state.incarnation, state.counter, state.suspect))
        return LivenessDigest(
            group=FD_GROUP,
            sender=self.node,
            round_no=self._round,
            entries=tuple(rows),
        )

    def tick_heartbeat(self) -> None:
        """Run one gossip round: digest to fan-out + direct targets."""
        self._round += 1
        self._counter += 1
        substrate = self._substrate - self._suspected or self._substrate
        fanout = gossip_fanout(len(substrate))
        targets = set(rendezvous_pick(f"{self.node}|{self._round}", substrate, fanout))
        # Cross-zone monitored peers and peer relays are gossiped
        # pairwise every round — they have no shared substrate with us.
        targets |= self._extras
        # Cross-zone monitored peers (e.g. members of a group that spans
        # zones) share no substrate with us, so they need direct contact
        # — but not all of them every round: every zone-mate in the same
        # group keeps their rows in scope and relays them, so a
        # log-bounded rotation keeps a global group from reintroducing
        # the O(n) per-round traffic the zoned topology exists to avoid.
        cross = set(self._monitored) - self._substrate
        live_cross = cross - self._suspected or cross
        targets |= set(
            rendezvous_pick(
                f"x|{self.node}|{self._round}",
                live_cross,
                gossip_fanout(len(live_cross)),
            )
        )
        # Lifeline: one rotating target from the suspected set, so a
        # healed partition is rediscovered by the detector itself rather
        # than only by side traffic (SWIM keeps probing suspects for the
        # same reason).  Costs at most one datagram per round.
        suspected = sorted(self._suspected)
        if suspected:
            targets.add(suspected[self._round % len(suspected)])
        targets.discard(self.node)
        if not targets:
            return
        digest = self._digest()
        self.heartbeats_sent += 1
        self.digests_sent += 1
        self._send_multicast(targets, digest, digest.size_bytes())

    def tick_check(self) -> None:
        """Escalate stale entries: probe first, suspect on probe expiry."""
        now = self.env.now
        for peer in sorted(self._scope()):
            state = self._table.get(peer)
            if state is None:
                state = self._table[peer] = _Liveness(0, 0, now)
            stale = (now - state.updated_at) > self.timeout_us
            if not stale:
                if peer in self._suspected:
                    self._clear_suspicion(peer, state)
                continue
            if peer in self._suspected:
                continue
            if state.probe_deadline is None:
                self._start_probe(peer, state)
            elif now >= state.probe_deadline:
                state.probe_deadline = None
                state.suspect = True
                self._suspected.add(peer)
                self._notify(peer, True)

    def _start_probe(self, peer: NodeId, state: _Liveness) -> None:
        state.probe_deadline = self.env.now + self.probe_timeout_us
        witnesses = set(
            rendezvous_pick(
                f"probe|{self.node}|{self._round}|{peer}",
                (self._substrate - self._suspected) - {peer},
                2,
            )
        )
        request = ProbeRequest(group=FD_GROUP, origin=self.node, target=peer)
        if witnesses:
            self.probes_sent += 1
            self._send_multicast(witnesses, request, request.size_bytes())
        # Direct ping too: the digest doubles as the ping payload.
        digest = self._digest()
        self._send_multicast({peer}, digest, digest.size_bytes())

    # ------------------------------------------------------------------
    # Incoming traffic
    # ------------------------------------------------------------------
    def on_heartbeat(self, src: NodeId) -> None:
        """Any direct traffic from ``src`` is liveness evidence."""
        state = self._table.get(src)
        if state is None:
            if src not in self._scope():
                return
            state = self._table[src] = _Liveness(0, 0, self.env.now)
        self._refresh(src, state)

    def on_digest(self, src: NodeId, msg: LivenessDigest) -> None:
        scope = self._scope()
        for peer, incarnation, counter, suspect in msg.entries:
            if peer == self.node:
                # SWIM refutation: someone thinks we're suspect — make
                # our next digest provably fresher.
                if suspect and incarnation >= self.incarnation:
                    self._counter = max(self._counter, counter) + 1
                continue
            if peer not in scope:
                continue  # prune: state stays O(zone + monitored)
            state = self._table.get(peer)
            if state is None:
                state = self._table[peer] = _Liveness(
                    incarnation, counter, self.env.now
                )
                state.suspect = suspect
                continue
            if (incarnation, counter) > state.version():
                state.incarnation = incarnation
                state.counter = counter
                state.suspect = suspect
                self._refresh(peer, state)

    def on_probe_request(self, src: NodeId, msg: ProbeRequest) -> None:
        """Witness role: relay a ping so the target answers the origin."""
        if msg.target == self.node or not msg.target:
            return
        ping = ProbePing(group=FD_GROUP, origin=msg.origin, witness=self.node)
        self._send_multicast({msg.target}, ping, ping.size_bytes())

    def on_probe_ping(self, src: NodeId, msg: ProbePing) -> None:
        """Target role: answer the probing origin with a fresh digest."""
        if not msg.origin or msg.origin == self.node:
            return
        self._counter += 1
        digest = self._digest()
        self._send_multicast({msg.origin}, digest, digest.size_bytes())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _refresh(self, peer: NodeId, state: _Liveness) -> None:
        state.updated_at = self.env.now
        state.probe_deadline = None
        if peer in self._suspected:
            self._clear_suspicion(peer, state)

    def _clear_suspicion(self, peer: NodeId, state: _Liveness) -> None:
        self._suspected.discard(peer)
        state.suspect = False
        self._notify(peer, False)

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
        """Clear all state (process recovery; the zone agent re-seeds)."""
        self._monitored.clear()
        self._substrate = set()
        self._extras = set()
        self._table.clear()
        self._suspected.clear()
