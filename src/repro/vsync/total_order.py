"""Totally-ordered delivery within an installed view.

Within each view the view coordinator acts as *sequencer*: members send
``Publish`` requests to it as raw unicast datagrams, the sequencer
assigns a view-local sequence number and multicasts ``Ordered`` messages
to the whole view.  That multicast reaches the publisher too and is its
acknowledgement: the sequencer restores each sender's FIFO order and
drops duplicates itself, and a per-channel timer re-publishes what a
lost datagram left undelivered.  Receivers deliver in sequence order and
NACK gaps.

Cross-view safety is provided by two mechanisms used during flush:

* every member keeps the full ordered log of the current view, so any
  member can supply messages another member is missing;
* per-sender *dedup floors* ``(sender -> highest delivered sender_seq)``
  carried across views in ``InstallView`` make re-publication of
  unordered messages after a view change idempotent.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from ..runtime.interfaces import NodeId, TimerHandle
from ..sim.transport import RETRANSMIT_TIMEOUT_US, backoff_us
from .messages import Nack, Ordered, Publish, StabilityAck, StabilityAnnounce
from .view import View

#: How long a receiver waits on a sequence gap before NACKing, microseconds.
NACK_DELAY_US = 30_000

#: Stability acks/floors piggyback on data traffic (Publish/Ordered
#: headers); a standalone StabilityAck is only sent at a stability tick
#: if the channel carried none for this long.  Kept below the stack's
#: ``STABILITY_PERIOD_US`` so an idle channel still converges within
#: one tick.
ACK_IDLE_TIMEOUT_US = 400_000


class OrderedChannel:
    """Sequencer-based total order for one endpoint in one group.

    The ``host`` must provide: ``node``, ``group``, ``env``,
    ``raw_send(dst, msg)``, ``reliable_send(dst, msg)``,
    ``multicast_view(msg, size)`` and ``deliver_data(sender, payload, size)``.
    """

    def __init__(self, host) -> None:
        self.host = host
        self.view: Optional[View] = None
        self.log: Dict[int, Ordered] = {}
        self.delivered_upto = -1
        #: Highest sequence number received in this view; anything held
        #: above ``delivered_upto`` sits behind a missing sequence.
        self._highest_held = -1
        self.next_order_seq = 0  # meaningful at the sequencer only
        self.dedup_floor: Dict[NodeId, int] = {}
        self.my_send_seq = 0
        # sender_seq -> (payload, size): sent but not yet seen delivered.
        self.pending: "OrderedDict[int, Tuple[Any, int]]" = OrderedDict()
        #: Called once, then cleared, when a delivery next empties
        #: ``pending`` (a leave waits on it: see HwgEndpoint._leave_attempt).
        self.on_drained: Optional[Callable[[], None]] = None
        self.frozen = False
        #: Sequencer only, reset per view: the highest sender_seq ordered
        #: for each sender, and the publishes that arrived ahead of a gap
        #: in a sender's numbering (sender -> sender_seq -> Publish).
        self._ordered_upto: Dict[NodeId, int] = {}
        self._held: Dict[NodeId, Dict[int, Publish]] = {}
        self._republish_timer: Optional[TimerHandle] = None
        self._nack_armed = False
        self.delivered_count = 0
        # Stability tracking: log entries at or below the floor are
        # delivered everywhere and can never be needed by a flush.
        self.stable_upto = -1
        self._member_delivered: Dict[NodeId, int] = {}  # sequencer only
        self.log_pruned = 0
        # Piggybacking bookkeeping: acks ride on outgoing Publish
        # headers and floors on Ordered headers; a standalone ack fires
        # only when the channel has been idle.
        self._last_ack_sent_at = 0
        self._floor_announced_upto = -1  # sequencer only

    # ------------------------------------------------------------------
    # View lifecycle
    # ------------------------------------------------------------------
    def install_view(self, view: View, dedup_floor: Dict[NodeId, int]) -> None:
        """Reset per-view state and re-publish still-pending messages."""
        self.view = view
        self.log.clear()
        self.delivered_upto = -1
        self._highest_held = -1
        self.next_order_seq = 0
        self._ordered_upto.clear()
        self._held.clear()
        self.frozen = False
        self.stable_upto = -1
        self._member_delivered.clear()
        self._floor_announced_upto = -1
        self._last_ack_sent_at = self.host.env.now
        # The carried floors are authoritative: the flush equalised every
        # continuing member to the branch cut (so a local floor can never
        # legitimately exceed the carried one), and a sender *missing*
        # from the carried map is a fresh incarnation — a member that
        # left/seceded and rejoined — whose restarted sender_seq numbering
        # a stale local floor would silently swallow.
        self.dedup_floor = dict(dedup_floor)
        my_floor = self.dedup_floor.get(self.host.node, -1)
        for sender_seq in [s for s in self.pending if s <= my_floor]:
            del self.pending[sender_seq]
        # The re-publish below re-arms at the base delay, whatever an
        # unreachable old coordinator had grown the backoff to.
        self._cancel_republish()
        for sender_seq, (payload, size) in list(self.pending.items()):
            self._publish(sender_seq, payload, size)

    def freeze(self) -> None:
        """Stop ordering/publishing; called when a flush begins."""
        self.frozen = True
        self._cancel_republish()

    def thaw(self) -> None:
        """Resume in the *same* view after an abandoned view change.

        Used when a flush completed but the round was dropped without
        installing a successor (e.g. a merge-only round whose foreign
        branches all declined).  Per-view state survives; sends queued
        while frozen are (re-)published — the sequencer orders each
        sender_seq once, so replays are idempotent.
        """
        self.frozen = False
        my_floor = self.dedup_floor.get(self.host.node, -1)
        for sender_seq, (payload, size) in list(self.pending.items()):
            if sender_seq > my_floor:
                self._publish(sender_seq, payload, size)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, payload: Any, size: int) -> None:
        """Multicast ``payload`` with total-order delivery in the current view.

        If the channel is frozen (view change in progress) the message is
        queued and re-published automatically in the next view.
        """
        self.my_send_seq += 1
        self.pending[self.my_send_seq] = (payload, size)
        if not self.frozen and self.view is not None:
            self._publish(self.my_send_seq, payload, size)

    def _publish(self, sender_seq: int, payload: Any, size: int) -> None:
        assert self.view is not None
        # Piggybacked stability ack: our delivered prefix rides in the
        # Publish header, so an actively-sending member never needs a
        # standalone StabilityAck (see tick_stability's idle fallback).
        msg = Publish(
            group=self.host.group,
            view_id=self.view.view_id,
            sender=self.host.node,
            sender_seq=sender_seq,
            payload=payload,
            payload_size=size,
            acked_upto=self.delivered_upto,
        )
        self._last_ack_sent_at = self.host.env.now
        if self.host.node == self.view.coordinator:
            self.on_publish(self.host.node, msg)
        else:
            self.host.raw_send(self.view.coordinator, msg)
            if self._republish_timer is None:
                self._arm_republish(0)

    def _arm_republish(self, attempts: int) -> None:
        """Re-publish the pending window if it makes no progress.

        One timer per channel, on the transport's backoff schedule from
        ``RETRANSMIT_TIMEOUT_US``.  Progress (the oldest pending message
        was delivered) re-arms it at the base delay; a window still stuck
        is re-published in order and the delay doubles.  An empty window
        disarms it; a freeze cancels it, and ``install_view`` and ``thaw``
        re-publish and re-arm at the base delay.
        """
        oldest = next(iter(self.pending))

        def fire() -> None:
            self._republish_timer = None
            if not self.pending:
                return
            if next(iter(self.pending)) != oldest:
                self._arm_republish(0)
                return
            self._arm_republish(attempts + 1)
            for sender_seq, (payload, size) in list(self.pending.items()):
                self._publish(sender_seq, payload, size)

        self._republish_timer = self.host.env.scheduler.schedule(
            backoff_us(RETRANSMIT_TIMEOUT_US, attempts), fire
        )

    def _cancel_republish(self) -> None:
        if self._republish_timer is not None:
            self._republish_timer.cancel()
            self._republish_timer = None

    # ------------------------------------------------------------------
    # Sequencer side
    # ------------------------------------------------------------------
    def on_publish(self, src: NodeId, msg: Publish) -> None:
        """Sequencer: order each sender's publishes once, in its FIFO order."""
        if self.view is None or msg.view_id != self.view.view_id:
            return  # stale view: sender will re-publish after install
        # Absorb the piggybacked ack even for messages the dedup logic
        # discards below — the sender's delivery progress is real either
        # way.  (Harmless at non-coordinators: _member_delivered is only
        # read by the sequencer's floor computation.)
        if msg.acked_upto > self._member_delivered.get(msg.sender, -1):
            self._member_delivered[msg.sender] = msg.acked_upto
        if self.frozen or self.host.node != self.view.coordinator:
            return
        # Publishes are raw datagrams, so they may arrive reordered or
        # twice: order each sender's numbering exactly once and in order.
        # It continues from the floor carried into the view (or from 0:
        # sender_seq starts at 1), which also rejects replays of messages
        # an earlier view delivered.
        sender = msg.sender
        upto = self._ordered_upto.get(sender)
        if upto is None:
            upto = self.dedup_floor.get(sender, 0)
        if msg.sender_seq != upto + 1:
            if msg.sender_seq > upto:
                self._held.setdefault(sender, {})[msg.sender_seq] = msg
            return
        upto += 1
        self._order(msg)
        held = self._held.get(sender)
        if held:
            while upto + 1 in held:
                upto += 1
                self._order(held.pop(upto))
            if not held:
                del self._held[sender]
        self._ordered_upto[sender] = upto

    def _order(self, msg: Publish) -> None:
        """Sequencer: assign ``msg`` the next order number and multicast it."""
        seq = self.next_order_seq
        self.next_order_seq += 1
        # Piggybacked stability floor: every Ordered carries the current
        # floor, so members prune their logs from the data stream itself.
        # (The sequencer's floor only rises in ``tick_stability``, which
        # announces it at once.)
        ordered = Ordered(
            group=msg.group,
            view_id=msg.view_id,
            seq=seq,
            sender=msg.sender,
            sender_seq=msg.sender_seq,
            payload=msg.payload,
            payload_size=msg.payload_size,
            stable_floor=self.stable_upto,
        )
        self.host.multicast_view(ordered, ordered.size_bytes())

    def on_nack(self, msg: Nack) -> None:
        """Sequencer: retransmit the requested range to the requester."""
        if self.view is None or msg.view_id != self.view.view_id:
            return
        for seq in range(msg.from_seq, msg.to_seq + 1):
            held = self.log.get(seq)
            if held is not None:
                self.host.reliable_send(msg.requester, held)

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def on_ordered(self, msg: Ordered) -> None:
        """Receive an ordered message; deliver contiguously, NACK gaps."""
        view = self.view
        if view is None:
            return
        # Identity first: the sequencer stamps the very ViewId its view
        # holds, so the dataclass ``__eq__`` frame is only paid by a
        # decoded (asyncio) or foreign view id.
        view_id = msg.view_id
        if view_id is not view.view_id and view_id != view.view_id:
            return
        # Apply the piggybacked stability floor first — it is valid even
        # for duplicates and retransmissions (stale floors from log
        # retransmits fail the same monotone test _apply_floor makes).
        if msg.stable_floor > self.stable_upto:
            self._apply_floor(msg.stable_floor)
        if self.frozen:
            # Mid-flush: we already reported our delivery state, so any
            # delivery now would diverge from the branch-wide cut.  The
            # fill supplies everything at or below the cut; anything
            # above it is re-published by its sender in the next view.
            return
        seq = msg.seq
        if seq <= self.delivered_upto or seq in self.log:
            return
        self.log[seq] = msg
        if seq > self._highest_held:
            self._highest_held = seq
        self._try_deliver()
        # ``log_gap_exists()``, inlined.
        if self._highest_held > self.delivered_upto and not self._nack_armed:
            self._arm_nack()

    def _try_deliver(self) -> None:
        while self.delivered_upto + 1 in self.log:
            seq = self.delivered_upto + 1
            msg = self.log[seq]
            self.delivered_upto = seq
            self._deliver(msg)

    def _deliver(self, msg: Ordered) -> None:
        floor = self.dedup_floor.get(msg.sender, -1)
        if msg.sender_seq > floor:
            self.dedup_floor[msg.sender] = msg.sender_seq
        if msg.sender == self.host.node:
            self.pending.pop(msg.sender_seq, None)
            if not self.pending and self.on_drained is not None:
                drained, self.on_drained = self.on_drained, None
                drained()
        self.delivered_count += 1
        tracer = self.host.env.tracer
        # Hottest emit in the stack — one per delivered message.  The
        # ``enabled`` guard skips stringifying the view id and building
        # the kwargs dict when nobody watches the "hwg" category.
        if tracer.enabled("hwg"):
            tracer.emit(
                "hwg",
                "data_delivered",
                node=self.host.node,
                group=self.host.group,
                view=str(msg.view_id),
                seq=msg.seq,
                sender=msg.sender,
                sender_seq=msg.sender_seq,
            )
        self.host.deliver_data(msg.sender, msg.payload, msg.payload_size)

    def log_gap_exists(self) -> bool:
        """True if we hold out-of-order messages past a missing sequence."""
        return self._highest_held > self.delivered_upto

    def _arm_nack(self) -> None:
        self._nack_armed = True
        view_at_arm = self.view.view_id if self.view else None

        def fire() -> None:
            self._nack_armed = False
            if self.view is None or self.view.view_id != view_at_arm or self.frozen:
                return
            if not self.log_gap_exists():
                return
            missing_to = self._highest_held - 1
            nack = Nack(
                group=self.host.group,
                view_id=self.view.view_id,
                from_seq=self.delivered_upto + 1,
                to_seq=missing_to,
                requester=self.host.node,
            )
            self.host.reliable_send(self.view.coordinator, nack)
            self._arm_nack()  # keep nagging until the gap closes

        self.host.env.scheduler.schedule(NACK_DELAY_US, fire)

    # ------------------------------------------------------------------
    # Stability and log garbage collection
    # ------------------------------------------------------------------
    def tick_stability(self) -> None:
        """Periodic: report delivery progress / announce the floor.

        Stability information normally piggybacks on the data stream —
        acks ride in Publish headers, floors in Ordered headers.  This
        tick is the *idle fallback*: a member sends a standalone
        :class:`StabilityAck` only if no Publish carried its ack for
        ``ACK_IDLE_TIMEOUT_US``; the sequencer computes the floor from
        the collected (piggybacked or standalone) acks and multicasts a
        standalone :class:`StabilityAnnounce` whenever that floor rose
        (it rises only here, so no Ordered can have carried it yet).
        """
        if self.view is None or self.frozen:
            return
        now = self.host.env.now
        if self.host.node == self.view.coordinator:
            self._compute_floor()
            if self.stable_upto > self._floor_announced_upto:
                self._floor_announced_upto = self.stable_upto
                announce = StabilityAnnounce(
                    group=self.host.group,
                    view_id=self.view.view_id,
                    floor=self.stable_upto,
                )
                self.host.multicast_view(announce, announce.size_bytes())
        else:
            if now - self._last_ack_sent_at < ACK_IDLE_TIMEOUT_US:
                return  # a recent Publish already carried our progress
            self._last_ack_sent_at = now
            ack = StabilityAck(
                group=self.host.group,
                view_id=self.view.view_id,
                member=self.host.node,
                delivered_upto=self.delivered_upto,
            )
            self.host.reliable_send(self.view.coordinator, ack)

    def on_stability_ack(self, msg: StabilityAck) -> None:
        """Sequencer: record a member's delivery progress."""
        if self.view is None or msg.view_id != self.view.view_id:
            return
        previous = self._member_delivered.get(msg.member, -1)
        if msg.delivered_upto > previous:
            self._member_delivered[msg.member] = msg.delivered_upto

    def _compute_floor(self) -> None:
        """Sequencer: recompute the stability floor and apply it locally.

        The floor propagates to members piggybacked on subsequent
        Ordered messages; :meth:`tick_stability` falls back to a
        standalone announce when the channel idles before that happens.
        """
        assert self.view is not None
        others = [m for m in self.view.members if m != self.host.node]
        if any(m not in self._member_delivered for m in others):
            return  # not everyone has reported yet
        floor = min(
            [self.delivered_upto] + [self._member_delivered[m] for m in others]
        )
        self._apply_floor(floor)

    def _apply_floor(self, floor: int) -> None:
        """Advance ``stable_upto`` and prune the log (monotone, idempotent)."""
        if self.view is None or floor <= self.stable_upto:
            return
        # Everything at or below the old floor is already gone, and the
        # log never regains it: a fill only supplies undelivered messages.
        for seq in range(self.stable_upto + 1, floor + 1):
            if self.log.pop(seq, None) is not None:
                self.log_pruned += 1
        self.stable_upto = floor

    def on_stability_announce(self, msg: StabilityAnnounce) -> None:
        """Prune the log up to the announced floor."""
        if self.view is None or msg.view_id != self.view.view_id:
            return
        self._apply_floor(msg.floor)

    # ------------------------------------------------------------------
    # Flush support
    # ------------------------------------------------------------------
    def have_upto(self) -> int:
        """End of the contiguous prefix of this view we hold (== delivered)."""
        return self.delivered_upto

    def messages_above(self, lo: int) -> Dict[int, Ordered]:
        """Copies of every held message with ``seq > lo`` (for FlushState)."""
        return {seq: msg for seq, msg in self.log.items() if seq > lo}

    def apply_fill(self, cut: int, missing: Dict[int, Ordered]) -> None:
        """Absorb ``missing``, deliver everything up to ``cut``, drop the rest.

        Dropped messages were never delivered by anyone in the branch
        (the cut is the maximum of every member's contiguous coverage);
        their senders re-publish them in the next view.
        """
        # Drop above-cut holdings FIRST: delivering them here would break
        # the branch-wide agreement on the delivered set.
        for seq in [s for s in self.log if s > cut]:
            del self.log[seq]
        self._highest_held = min(self._highest_held, cut)
        for seq, msg in missing.items():
            if seq not in self.log and seq <= cut:
                self.log[seq] = msg
        self._try_deliver()
        if self.delivered_upto < cut:
            raise RuntimeError(
                f"flush fill incomplete: delivered {self.delivered_upto} < cut {cut} "
                f"(group={self.host.group}, node={self.host.node})"
            )

    def floor_snapshot(self) -> Dict[NodeId, int]:
        """Copy of the per-sender dedup floors (carried in InstallView)."""
        return dict(self.dedup_floor)
