"""Reliable unicast transport over the lossy network.

Provides per-peer FIFO reliable delivery using sliding-window
retransmission with cumulative acknowledgements.  Protocol control
traffic (membership rounds, naming-service RPC) rides on this; bulk data
uses raw multicast with protocol-level gap repair instead.

Messages to unreachable peers are retransmitted until ``max_retries``
and then silently discarded — reachability tracking is the failure
detector's job, not the transport's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Tuple

from ..runtime.interfaces import NodeId, Runtime

#: Base retransmission delay, microseconds: the first retry waits this
#: long, later ones back off from it (:func:`backoff_us`).
RETRANSMIT_TIMEOUT_US = 20_000
#: Exponential-backoff cap for retransmissions, microseconds.
MAX_BACKOFF_US = 1_000_000


def backoff_us(base_us: int, attempts: int) -> int:
    """Retransmission delay after ``attempts`` earlier tries.

    Exponential backoff is essential on a shared medium: a fixed
    timeout shorter than the congestion-induced ACK delay turns every
    burst into a retransmission storm that further congests the
    medium (measured: thousands of spurious retransmissions and even
    give-ups with zero real loss).
    """
    return min(base_us << attempts, MAX_BACKOFF_US)


@dataclass(frozen=True)
class _Segment:
    """Wire envelope for reliable transport payloads.

    ``floor`` is the smallest sequence number the sender still retains:
    when the sender gives up on a segment (peer unreachable beyond
    ``max_retries``), later segments carry a raised floor so the receiver
    skips the abandoned gap instead of waiting forever.  Without this, a
    single drop during a partition would permanently wedge the channel —
    exactly what must NOT happen to the post-heal merge traffic.

    On an ack the same field names the receiver's hole instead: one past
    the highest sequence number it holds out of order, 0 when it holds
    none (see :meth:`ReliableTransport._fill_hole`).
    """

    kind: str  # "data" | "ack"
    seq: int
    payload: Any = None
    size: int = 0
    floor: int = 0
    incarnation: int = 0


@dataclass
class _PeerState:
    """Sliding-window sender + receiver state for one remote peer."""

    next_send_seq: int = 0
    acked_up_to: int = -1  # highest cumulatively acked seq
    #: seq -> (payload, size, attempts, filled), in increasing seq order;
    #: ``filled`` is the attempt count at the last hole-fill copy.
    unacked: Dict[int, Tuple[Any, int, int, int]] = field(default_factory=dict)
    # receiver side
    delivered_up_to: int = -1
    out_of_order: Dict[int, Tuple[Any, int]] = field(default_factory=dict)
    peer_incarnation: int = 0


class ReliableTransport:
    """FIFO reliable unicast channels from one node to every peer.

    The owner process must route incoming :class:`_Segment` payloads to
    :meth:`on_segment`; deliveries surface through ``deliver(src,
    payload, size)``.
    """

    ACK_SIZE = 32

    def __init__(
        self,
        env: Runtime,
        node: NodeId,
        deliver: Callable[[NodeId, Any, int], None],
        max_retries: int = 10,
        window: int = 64,
    ):
        self.env = env
        self.node = node
        self.deliver = deliver
        self.max_retries = max_retries
        self.window = window
        self._peers: Dict[NodeId, _PeerState] = {}
        self._queued: Dict[NodeId, Deque[Tuple[Any, int]]] = {}
        self.retransmissions = 0
        self.gave_up = 0
        self._stopped = False
        #: Bumped on restart so peers reset their receive state for us.
        self.incarnation = 0

    def _peer(self, peer: NodeId) -> _PeerState:
        if peer not in self._peers:
            self._peers[peer] = _PeerState()
        return self._peers[peer]

    def stop(self) -> None:
        """Stop all retransmission activity (owner crashed)."""
        self._stopped = True

    def restart(self) -> None:
        """Clear all channel state after a recovery (fresh incarnation)."""
        self._peers.clear()
        self._queued.clear()
        self._stopped = False
        self.incarnation += 1

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, dst: NodeId, payload: Any, size: int = 256) -> None:
        """Queue ``payload`` for FIFO reliable delivery to ``dst``."""
        if self._stopped:
            return
        state = self._peer(dst)
        in_flight = state.next_send_seq - state.acked_up_to - 1
        if in_flight >= self.window:
            self._queued.setdefault(dst, deque()).append((payload, size))
            return
        self._transmit(dst, payload, size)

    def _sender_floor(self, state: _PeerState) -> int:
        # ``unacked`` is filled in seq order, so its first key is the lowest.
        return next(iter(state.unacked), state.next_send_seq)

    def _transmit(self, dst: NodeId, payload: Any, size: int) -> None:
        state = self._peer(dst)
        seq = state.next_send_seq
        state.next_send_seq += 1
        state.unacked[seq] = (payload, size, 0, 0)
        self._put_on_wire(dst, state, seq, payload, size)
        self._arm_retransmit(dst, seq)

    def _put_on_wire(
        self, dst: NodeId, state: _PeerState, seq: int, payload: Any, size: int
    ) -> None:
        segment = _Segment(
            "data", seq, payload, size, self._sender_floor(state), self.incarnation
        )
        self.env.fabric.send(self.node, dst, segment, size)

    def _arm_retransmit(self, dst: NodeId, seq: int) -> None:
        def retry() -> None:
            if self._stopped:
                return
            state = self._peer(dst)
            entry = state.unacked.get(seq)
            if entry is None:
                return  # acked meanwhile
            payload, size, attempts, filled = entry
            if attempts >= self.max_retries:
                del state.unacked[seq]
                self.gave_up += 1
                self._drain_queue(dst)
                return
            state.unacked[seq] = (payload, size, attempts + 1, filled)
            self.retransmissions += 1
            self._put_on_wire(dst, state, seq, payload, size)
            self.env.scheduler.schedule(
                backoff_us(RETRANSMIT_TIMEOUT_US, attempts + 1), retry
            )

        self.env.scheduler.schedule(backoff_us(RETRANSMIT_TIMEOUT_US, 0), retry)

    def _drain_queue(self, dst: NodeId) -> None:
        state = self._peer(dst)
        queued = self._queued.get(dst)
        while queued and (state.next_send_seq - state.acked_up_to - 1) < self.window:
            payload, size = queued.popleft()
            self._transmit(dst, payload, size)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def on_segment(self, src: NodeId, segment: _Segment) -> None:
        """Process an incoming transport segment from ``src``."""
        if self._stopped:
            return
        if segment.kind == "ack":
            if segment.incarnation == self.incarnation:
                self._on_ack(src, segment.seq, segment.floor)
            return
        state = self._peer(src)
        if segment.incarnation > state.peer_incarnation:
            # The peer restarted: its numbering begins afresh.
            state.peer_incarnation = segment.incarnation
            state.delivered_up_to = -1
            state.out_of_order.clear()
        elif segment.incarnation < state.peer_incarnation:
            return  # stale segment from a previous incarnation
        if segment.floor - 1 > state.delivered_up_to:
            # The sender abandoned everything below its floor: skip the gap.
            state.delivered_up_to = segment.floor - 1
            for seq in [s for s in state.out_of_order if s <= state.delivered_up_to]:
                del state.out_of_order[seq]
        if segment.seq <= state.delivered_up_to:
            # Duplicate; re-ack so the sender can advance.
            self._send_ack(src, state.delivered_up_to)
            return
        state.out_of_order[segment.seq] = (segment.payload, segment.size)
        while state.delivered_up_to + 1 in state.out_of_order:
            seq = state.delivered_up_to + 1
            payload, size = state.out_of_order.pop(seq)
            state.delivered_up_to = seq
            self.deliver(src, payload, size)
        self._send_ack(src, state.delivered_up_to)

    def _send_ack(self, dst: NodeId, up_to: int) -> None:
        # The ack echoes the *peer's* incarnation so a restarted sender
        # never credits acknowledgements meant for its previous life.
        state = self._peer(dst)
        hole = max(state.out_of_order) + 1 if state.out_of_order else 0
        ack = _Segment("ack", up_to, floor=hole, incarnation=state.peer_incarnation)
        self.env.fabric.send(self.node, dst, ack, self.ACK_SIZE)

    def _on_ack(self, src: NodeId, up_to: int, hole: int) -> None:
        state = self._peer(src)
        if up_to > state.acked_up_to:
            # (Clamped to what was sent: a forged ack buys no long loop.)
            newest = min(up_to, state.next_send_seq - 1)
            for seq in range(state.acked_up_to + 1, newest + 1):
                state.unacked.pop(seq, None)
            state.acked_up_to = up_to
            self._drain_queue(src)
        if hole:
            self._fill_hole(src, state, hole)

    def _fill_hole(self, dst: NodeId, state: _PeerState, hole: int) -> None:
        """Resend at once what the peer is holding later segments behind.

        The peer has ``hole - 1`` buffered out of order, so it is reachable
        and what is unacked below that is what it waits for — missing, not
        merely slow, once the first copy is known lost (``attempts >= 1``:
        jitter reordering fresh segments triggers nothing).  Without this a
        segment sent into a partition sleeps out its backoff, up to
        ``MAX_BACKOFF_US``, after the heal, and the merge traffic queued
        behind it waits too.  One copy per segment per backoff interval, so
        a stream of such acks is no storm; the timer chain is left alone
        (under congestion the peer is never silent, so resetting backoff on
        inbound traffic would bring back the storm ``backoff_us`` describes).
        """
        for seq, (payload, size, attempts, filled) in state.unacked.items():
            if seq >= hole - 1:
                break  # the peer holds ``hole - 1`` itself
            if filled < attempts:
                state.unacked[seq] = (payload, size, attempts, attempts)
                self.retransmissions += 1
                self._put_on_wire(dst, state, seq, payload, size)
