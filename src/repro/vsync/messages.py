"""Wire messages of the partitionable virtual-synchrony substrate.

Every message names its group and (where applicable) the view and
membership round it belongs to, so endpoints can discard stale traffic
from superseded rounds or views — the key to restartable view changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from .view import GroupId, ProcessId, View, ViewId

#: Fixed header estimate added to every vsync message's payload size.
HEADER_BYTES = 64


@dataclass(frozen=True)
class VsyncMessage:
    """Base class for all vsync wire messages."""

    group: GroupId

    def size_bytes(self) -> int:
        """Approximate wire size, used by the network cost model."""
        return HEADER_BYTES + 64


# ----------------------------------------------------------------------
# Heartbeats (failure detector)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Heartbeat(VsyncMessage):
    """Periodic liveness announcement.  ``group`` is the constant "_fd"."""

    sender: ProcessId = ""

    def size_bytes(self) -> int:
        return HEADER_BYTES


# ----------------------------------------------------------------------
# Discovery
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Presence(VsyncMessage):
    """Coordinator beacon announcing a live view of ``group``.

    Concurrent views of the same group discover one another by hearing
    each other's beacons once the network allows it ("peer-discovery at
    the HWG level", paper Section 4 item 1).
    """

    view_id: ViewId = ViewId("", 0)
    members: Tuple[ProcessId, ...] = ()

    def size_bytes(self) -> int:
        return HEADER_BYTES + 16 * len(self.members)


@dataclass(frozen=True)
class JoinProbe(VsyncMessage):
    """A joining process asks any live coordinator to reveal itself.

    Coordinators answer by (re-)multicasting their :class:`Presence`
    beacon; a joiner that hears no beacon within its timeout founds a
    singleton view (bootstrap-by-merge).
    """

    joiner: ProcessId = ""


@dataclass(frozen=True)
class JoinRequest(VsyncMessage):
    """A process asks the coordinator to admit it to the group."""

    joiner: ProcessId = ""


@dataclass(frozen=True)
class LeaveRequest(VsyncMessage):
    """A member asks the coordinator to remove it from the group."""

    leaver: ProcessId = ""


# ----------------------------------------------------------------------
# Ordered data path (coordinator-sequencer)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Publish(VsyncMessage):
    """Member -> sequencer: please order this payload in view ``view_id``."""

    view_id: ViewId = ViewId("", 0)
    sender: ProcessId = ""
    sender_seq: int = 0  # per-sender dedup counter
    payload: Any = None
    payload_size: int = 0
    #: Piggybacked stability ack: the sender's contiguous delivered
    #: prefix at publish time.  Saves the periodic standalone
    #: :class:`StabilityAck` whenever the member is actively sending.
    acked_upto: int = -1

    def size_bytes(self) -> int:
        return HEADER_BYTES + self.payload_size


@dataclass(frozen=True)
class Ordered(VsyncMessage):
    """Sequencer -> view members: payload with its total-order sequence."""

    view_id: ViewId = ViewId("", 0)
    seq: int = 0
    sender: ProcessId = ""
    sender_seq: int = 0
    payload: Any = None
    payload_size: int = 0
    #: Piggybacked stability floor: the sequencer's ``stable_upto`` when
    #: this message was ordered.  Receivers prune their logs from it, so
    #: standalone :class:`StabilityAnnounce` messages are only needed on
    #: idle channels.  Retransmissions carry the floor of first emission;
    #: the receiver-side monotone guard makes that harmless.
    stable_floor: int = -1

    def size_bytes(self) -> int:
        return HEADER_BYTES + self.payload_size


@dataclass(frozen=True)
class StabilityAck(VsyncMessage):
    """Member -> sequencer: I have delivered up to ``delivered_upto``.

    Sent periodically; lets the sequencer compute the *stability floor*
    (the prefix every member has delivered) so ordered-message logs can
    be garbage-collected — without it, per-view logs grow without bound.
    """

    view_id: ViewId = ViewId("", 0)
    member: ProcessId = ""
    delivered_upto: int = -1

    def size_bytes(self) -> int:
        return HEADER_BYTES


@dataclass(frozen=True)
class StabilityAnnounce(VsyncMessage):
    """Sequencer -> members: messages up to ``floor`` are stable.

    Everyone may prune their retransmission/flush logs up to the floor:
    no flush can ever need a message below the minimum delivered prefix.
    """

    view_id: ViewId = ViewId("", 0)
    floor: int = -1

    def size_bytes(self) -> int:
        return HEADER_BYTES


@dataclass(frozen=True)
class Nack(VsyncMessage):
    """Receiver -> sequencer: retransmit ordered messages [from_seq, to_seq]."""

    view_id: ViewId = ViewId("", 0)
    from_seq: int = 0
    to_seq: int = 0
    requester: ProcessId = ""


# ----------------------------------------------------------------------
# View change: flush
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Stop(VsyncMessage):
    """Round leader -> members of an old view: stop traffic, start flushing.

    ``leader_have_upto`` is the leader's own contiguous prefix end; members
    reply with copies of every message they hold above it, so the leader
    can redistribute whatever any member is missing.
    """

    view_id: ViewId = ViewId("", 0)
    round_no: int = 0
    leader: ProcessId = ""
    leader_have_upto: int = -1


@dataclass(frozen=True)
class FlushState(VsyncMessage):
    """Member -> round leader: my delivery state for the old view.

    ``have_upto`` is the end of the member's contiguous delivered/held
    prefix; ``extra`` maps sequence numbers beyond the prefix to the
    :class:`Ordered` messages the member holds out of order.
    """

    view_id: ViewId = ViewId("", 0)
    round_no: int = 0
    member: ProcessId = ""
    have_upto: int = -1
    extra: Dict[int, "Ordered"] = field(default_factory=dict)

    def size_bytes(self) -> int:
        return HEADER_BYTES + 32 + sum(m.size_bytes() for m in self.extra.values())


@dataclass(frozen=True)
class FlushFill(VsyncMessage):
    """Round leader -> member: ordered messages the member is missing."""

    view_id: ViewId = ViewId("", 0)
    round_no: int = 0
    cut: int = -1  # deliver everything up to and including this seq
    missing: Dict[int, "Ordered"] = field(default_factory=dict)

    def size_bytes(self) -> int:
        return HEADER_BYTES + 16 + sum(m.size_bytes() for m in self.missing.values())


@dataclass(frozen=True)
class FlushDone(VsyncMessage):
    """Member -> round leader: I delivered everything up to the cut."""

    view_id: ViewId = ViewId("", 0)
    round_no: int = 0
    member: ProcessId = ""


# ----------------------------------------------------------------------
# View change: merge coordination between branch coordinators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MergeRequest(VsyncMessage):
    """Merge leader -> foreign branch coordinator: flush your view and report.

    ``epoch`` lets the leader match replies to the merge attempt.
    """

    leader: ProcessId = ""
    leader_view_id: ViewId = ViewId("", 0)
    target_view_id: ViewId = ViewId("", 0)
    epoch: int = 0


@dataclass(frozen=True)
class MergeDecline(VsyncMessage):
    """Foreign coordinator -> merge leader: busy or superseded, retry later."""

    decliner: ProcessId = ""
    epoch: int = 0


@dataclass(frozen=True)
class BranchFlushed(VsyncMessage):
    """Branch coordinator -> merge leader: my branch finished flushing.

    Carries the flushed branch view (with the members that actually
    completed the flush) and the branch's post-flush dedup floors, so the
    leader can compute the merged membership, genealogy and floors.
    """

    epoch: int = 0
    branch_view: Optional[View] = None
    survivors: Tuple[ProcessId, ...] = ()
    dedup: Dict[ProcessId, int] = field(default_factory=dict)
    branch_coordinator: ProcessId = ""


# ----------------------------------------------------------------------
# View installation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InstallView(VsyncMessage):
    """Leader -> every member of the new view: install it.

    ``via_branch`` names the old view through which the recipient reaches
    this new view (its flush context); joiners have ``via_branch=None``.
    """

    view: Optional[View] = None
    round_no: int = 0
    via_branch: Optional[ViewId] = None
    dedup: Dict[ProcessId, int] = field(default_factory=dict)
    #: Application state snapshot for joiners (state transfer): captured
    #: by the round leader *after* its branch flushed, i.e. exactly at
    #: the old view's delivery cut, so the joiner's state plus the new
    #: view's messages reproduce every member's state.
    app_state: Any = None
    app_state_size: int = 0

    def size_bytes(self) -> int:
        members = len(self.view.members) if self.view else 0
        return HEADER_BYTES + 32 + 16 * members + 24 * len(self.dedup) + self.app_state_size
