"""Data-path batching: pack LWG DATA payloads per destination HWG.

The paper's economics argue that many light-weight groups amortize one
heavy-weight group's machinery — membership, failure detection, flush.
This module extends the amortization to the data path: LWG ``send()``
calls whose encapsulated ``LwgData`` is bound for the *same* HWG and
that fall in the same instant, or behind a publish of this process that
is still in flight on that HWG (Nagle's rule, RFC 896), are coalesced
into a single :class:`~repro.core.messages.LwgBatch` occupying one slot
of the HWG's total order (one Publish, one Ordered multicast, one
piggybacked ack), instead of one full protocol round-trip per payload.
A send on an idle HWG waits for nothing.

Correctness rules (PROTOCOLS.md §15):

* **Entry order is send order.**  A batch is unpacked in tuple order at
  every receiver, inside a single totally-ordered delivery, so FIFO per
  sender and group-wide total order are exactly what the unbatched path
  gives.
* **Control messages flush first.**  Any non-DATA LWG message sent on an
  HWG (view minting, join/leave, switch, merge) flushes that HWG's
  pending batch before it is handed to the ordered channel — data sent
  before a control message is never reordered after it.
* **View changes flush first.**  The HWG ``on_stop`` upcall (flush
  protocol starting) flushes the packer before acknowledging the stop,
  so buffered payloads reach the ordered channel in the closing view —
  either ordered before the cut or queued and re-published in the next
  view by the channel's own pending machinery.
* **Crash wipes the buffer.**  Fail-stop semantics: payloads buffered at
  a crashed process are lost exactly like payloads queued in its ordered
  channel.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..naming.records import HwgId
from .messages import MIXED_BATCH, LwgBatch, LwgData

#: The longest a payload waits behind an own in-flight publish on its
#: HWG.  It bounds data latency, not a protocol timeout.
BATCH_WINDOW_US = 2_000
#: Flush at once when the buffered payload bytes reach this cap (keeps
#: batches under transport datagram ceilings).
BATCH_MAX_BYTES = 16_384


class _HwgBuffer:
    """What the packer holds for one HWG."""

    __slots__ = ("entries", "buffered_bytes", "timer")

    def __init__(self) -> None:
        self.entries: List[LwgData] = []
        self.buffered_bytes = 0
        #: Token of the armed flush timer, 0 when none is.  Tokens are
        #: unique per packer and cleared by every flush, and a firing
        #: timer is ignored unless it still holds the buffer's token: a
        #: byte-cap or control-message flush, a crash or a left HWG
        #: cannot leave a stale timer that cuts the next batch short.
        self.timer = 0


class BatchPacker:
    """Per-HWG coalescing of :class:`LwgData`, flushed by Nagle's rule.

    ``transmit(hwg, message)`` forwards a flushed message (a raw
    ``LwgData`` for singleton flushes, an ``LwgBatch`` otherwise) to the
    HWG's ordered channel; ``set_timer(delay_us, callback)`` arms the
    flush timer; ``in_flight(hwg)`` says whether this process has a
    publish on ``hwg`` that has not been delivered back to it yet.

    A payload enqueued on an idle HWG leaves at the end of the current
    instant (a zero-delay timer, so a same-instant burst is still one
    batch); one enqueued behind an in-flight publish is held until that
    publish returns (:meth:`on_own_delivery`), bounded by ``window_us``
    and ``max_bytes`` (:data:`BATCH_WINDOW_US` and :data:`BATCH_MAX_BYTES`
    unless given).
    """

    def __init__(
        self,
        node: str,
        transmit: Callable[[HwgId, LwgData | LwgBatch], None],
        set_timer: Callable[[int, Callable[[], None]], object],
        in_flight: Callable[[HwgId], bool],
        window_us: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ):
        self.node = node
        self._transmit = transmit
        self._set_timer = set_timer
        self._in_flight = in_flight
        self.window_us = BATCH_WINDOW_US if window_us is None else window_us
        self.max_bytes = BATCH_MAX_BYTES if max_bytes is None else max_bytes
        self._buffers: Dict[HwgId, _HwgBuffer] = {}
        self._timer_tokens = 0
        self._batch_seq = 0
        # Counters (surfaced through LwgStats by the service).
        self.batches_sent = 0
        self.entries_batched = 0
        self.singleton_flushes = 0

    # ------------------------------------------------------------------
    # Enqueue / flush
    # ------------------------------------------------------------------
    def enqueue(self, hwg: HwgId, message: LwgData) -> None:
        """Buffer ``message`` for ``hwg``; flush on byte cap, else arm timer."""
        buffer = self._buffers.get(hwg)
        if buffer is None:
            buffer = self._buffers[hwg] = _HwgBuffer()
        buffer.entries.append(message)
        buffer.buffered_bytes += message.payload_size
        if buffer.buffered_bytes >= self.max_bytes:
            self.flush(hwg)
            return
        if not buffer.timer:
            self._timer_tokens += 1
            token = buffer.timer = self._timer_tokens
            delay = self.window_us if self._in_flight(hwg) else 0
            self._set_timer(delay, lambda: self._on_timer(hwg, token))

    def _on_timer(self, hwg: HwgId, token: int) -> None:
        buffer = self._buffers.get(hwg)
        if buffer is None or buffer.timer != token:
            return  # stale: the buffer this timer was armed for is gone
        self.flush(hwg)

    def on_own_delivery(self, hwg: HwgId) -> None:
        """One of our publishes on ``hwg`` came back: flush if it was the last."""
        if not self._in_flight(hwg):
            self.flush(hwg)

    def flush(self, hwg: HwgId) -> None:
        """Emit the pending buffer for ``hwg`` (no-op when empty)."""
        buffer = self._buffers.get(hwg)
        if buffer is None or not buffer.entries:
            return
        buffer.timer = 0
        entries, buffer.entries = buffer.entries, []
        buffer.buffered_bytes = 0
        if len(entries) == 1:
            # No packing win for a singleton: send the bare LwgData and
            # skip the batch envelope (and the unpack accounting).
            self.singleton_flushes += 1
            self._transmit(hwg, entries[0])
            return
        self._batch_seq += 1
        self.batches_sent += 1
        self.entries_batched += len(entries)
        lwgs = {entry.lwg for entry in entries}
        batch = LwgBatch(
            lwg=entries[0].lwg if len(lwgs) == 1 else MIXED_BATCH,
            sender=self.node,
            batch_seq=self._batch_seq,
            entries=tuple(entries),
        )
        self._transmit(hwg, batch)

    def flush_all(self) -> None:
        """Flush every HWG's pending buffer (quiesce / shutdown)."""
        for hwg in sorted(h for h, b in self._buffers.items() if b.entries):
            self.flush(hwg)

    def forget(self, hwg: HwgId) -> None:
        """Drop ``hwg``'s buffer: this process left the HWG."""
        self._buffers.pop(hwg, None)

    def reset(self) -> None:
        """Drop all buffered payloads (fail-stop crash semantics)."""
        self._buffers.clear()

    def pending_entries(self, hwg: HwgId) -> int:
        buffer = self._buffers.get(hwg)
        return len(buffer.entries) if buffer is not None else 0
