"""LWG-layer protocol messages.

Almost all LWG traffic rides *inside* heavy-weight group multicasts
(payloads of ``HwgEndpoint.send``) and therefore inherits the HWG's
total order and flush guarantees — this reuse is the entire point of the
light-weight group design.  Every view-sensitive message is tagged with
the LWG view identifier it was sent in and is "only delivered to members
of that view" (Section 5.1), which is what decouples LWG merges from HWG
merges.

The only unicast message is ``RedirectLwg`` (the forward-pointer reply
to a joiner using an outdated mapping, Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..naming.records import HwgId, LwgId
from ..vsync.view import ProcessId, View, ViewId


#: Wire overhead of the LWG encapsulation header: the lwg identifier
#: plus a view identifier — small by design, since every user message
#: pays it (Section 3.1's "minimal overhead").
LWG_HEADER_BYTES = 28

#: Per-entry overhead inside an :class:`LwgBatch`: a length prefix plus
#: compact lwg/view/sender references.  Much smaller than a full
#: ``LWG_HEADER_BYTES + HEADER_BYTES`` envelope per message — that
#: difference is the batching win.
BATCH_ENTRY_HEADER_BYTES = 12

#: ``lwg`` label of a batch whose entries span multiple LWGs.  Per-HWG
#: buffers coalesce co-mapped groups, so a single label cannot name the
#: contents; accounting is always per entry (:meth:`LwgBatch.lwg_counts`).
MIXED_BATCH: LwgId = "lwg:<mixed>"


@dataclass(frozen=True)
class LwgMessage:
    """Base class for messages multicast on an HWG by the LWG layer."""

    lwg: LwgId

    def size_bytes(self) -> int:
        return LWG_HEADER_BYTES + 32


@dataclass(frozen=True)
class LwgData(LwgMessage):
    """User payload: ``<DATA, lwg_id, view, data>`` (Figure 5, line 103)."""

    view_id: ViewId = ViewId("", 0)
    sender: ProcessId = ""
    payload: Any = None
    payload_size: int = 0

    def size_bytes(self) -> int:
        return LWG_HEADER_BYTES + self.payload_size


@dataclass(frozen=True)
class LwgBatch(LwgMessage):
    """Several :class:`LwgData` payloads packed into one HWG multicast.

    All entries were sent by ``sender`` between two packer flushes and are
    bound for the same HWG (possibly for different LWGs mapped on it).
    The batch occupies a single slot in the HWG's total order, so
    unpacking the entries in tuple order preserves the sender's FIFO
    order and the group-wide total order.  ``batch_seq`` is a per-sender
    counter used by the batch-accounting checker; ``lwg`` is the
    entries' common group, or :data:`MIXED_BATCH` when the flush
    coalesced payloads of several co-mapped LWGs — receivers always
    demultiplex per entry, never by this label.
    """

    sender: ProcessId = ""
    batch_seq: int = 0
    entries: Tuple[LwgData, ...] = ()

    def lwg_counts(self) -> Dict[LwgId, int]:
        """Entry count per LWG, in sorted-key order (tracing/accounting)."""
        counts: Dict[LwgId, int] = {}
        for entry in self.entries:
            counts[entry.lwg] = counts.get(entry.lwg, 0) + 1
        return {lwg: counts[lwg] for lwg in sorted(counts)}

    def size_bytes(self) -> int:
        return LWG_HEADER_BYTES + sum(
            BATCH_ENTRY_HEADER_BYTES + e.payload_size for e in self.entries
        )


@dataclass(frozen=True)
class LwgJoinReq(LwgMessage):
    """A process (already an HWG member) asks to join the LWG."""

    joiner: ProcessId = ""


@dataclass(frozen=True)
class LwgLeaveReq(LwgMessage):
    """A member asks to leave the LWG."""

    leaver: ProcessId = ""
    view_id: ViewId = ViewId("", 0)


@dataclass(frozen=True)
class LwgViewMsg(LwgMessage):
    """Installation/announcement of an LWG view on its HWG.

    ``announce`` distinguishes a re-announcement of an existing view
    (sent after HWG view changes for state transfer and concurrent-view
    discovery) from the installation of a freshly minted view.
    """

    view: Optional[View] = None
    announce: bool = False

    def size_bytes(self) -> int:
        return LWG_HEADER_BYTES + 16 * (len(self.view.members) if self.view else 0)


@dataclass(frozen=True)
class LwgStateMsg(LwgMessage):
    """Coordinator -> joiners: application state snapshot.

    Multicast immediately after the coordinator delivers the view that
    admits the joiners, in the same total order as the group's data —
    so the snapshot reflects exactly the messages ordered before it, and
    the joiner replays everything ordered after it on top.
    """

    view_id: ViewId = ViewId("", 0)
    targets: Tuple[ProcessId, ...] = ()
    state: Any = None
    state_size: int = 0

    def size_bytes(self) -> int:
        return LWG_HEADER_BYTES + 16 * len(self.targets) + self.state_size


@dataclass(frozen=True)
class LwgDissolved(LwgMessage):
    """The last member left: HWG members drop their directory entry."""

    view_id: ViewId = ViewId("", 0)


@dataclass(frozen=True)
class MergeViewsMsg(LwgMessage):
    """Figure 5 MERGE-VIEWS: merge all concurrent LWG views on this HWG.

    ``lwg`` names the group whose concurrency triggered the merge (for
    tracing only — the protocol merges every LWG mapped on the HWG).
    """


@dataclass(frozen=True)
class AllViewsMsg(LwgMessage):
    """Figure 5 ALL-VIEWS: the sender's LWG views mapped on this HWG."""

    sender: ProcessId = ""
    views: Tuple[View, ...] = ()

    def size_bytes(self) -> int:
        return LWG_HEADER_BYTES + sum(16 * len(v.members) + 32 for v in self.views)


@dataclass(frozen=True)
class SwitchStart(LwgMessage):
    """Switch protocol, on the old HWG: members, go join ``to_hwg``."""

    view_id: ViewId = ViewId("", 0)
    from_hwg: HwgId = ""
    to_hwg: HwgId = ""
    epoch: int = 0


@dataclass(frozen=True)
class SwitchReady(LwgMessage):
    """Switch protocol, on the old HWG: ``member`` now sits in ``to_hwg``."""

    view_id: ViewId = ViewId("", 0)
    to_hwg: HwgId = ""
    member: ProcessId = ""
    epoch: int = 0


@dataclass(frozen=True)
class SwitchCommit(LwgMessage):
    """Switch protocol, on the old HWG: cut-over point.

    Totally ordered on the old HWG, so every member stops delivering the
    LWG there after the same message — the virtual-synchrony cut.
    Remaining HWG members install a forward pointer to ``to_hwg``.
    """

    view_id: ViewId = ViewId("", 0)
    to_hwg: HwgId = ""
    epoch: int = 0


@dataclass(frozen=True)
class SwitchAbort(LwgMessage):
    """Switch protocol: the coordinator gave up; resume on the old HWG."""

    view_id: ViewId = ViewId("", 0)
    epoch: int = 0


@dataclass(frozen=True)
class RedirectLwg(LwgMessage):
    """Unicast forward-pointer reply to a joiner with an outdated mapping."""

    to_hwg: HwgId = ""
