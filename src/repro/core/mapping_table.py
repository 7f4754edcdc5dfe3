"""Per-process LWG-layer state: local memberships and the HWG directory.

Each process tracks two things:

* :class:`LocalLwg` — for every LWG this process belongs to (or is
  joining/leaving): its current LWG view, the HWG it rides on, the user
  listener and ancestry of the view.
* :class:`HwgDirectory` — for every HWG this process belongs to: which
  LWG views are known to be mapped on it (learned from ``LwgViewMsg``
  announcements in the HWG's total order) and the *forward pointers* for
  LWGs that were switched away ("all members of a HWG keep information
  about the new mappings of previously mapped LWGs... used like a
  forward-pointer, to redirect a process that is using outdated mapping
  information", Section 3.1).
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Set, Tuple

from ..naming.records import HwgId, LwgId
from ..vsync.view import ProcessId, View, ViewId
from .lwg_view import AncestorTracker


class LwgState(enum.Enum):
    """Lifecycle of this process's membership in one LWG."""

    IDLE = "idle"
    JOINING = "joining"
    MEMBER = "member"
    LEAVING = "leaving"


class LocalLwg:
    """This process's state for one light-weight group."""

    def __init__(self, lwg: LwgId, listener: Any):
        self.lwg = lwg
        self.listener = listener
        self.state = LwgState.IDLE
        #: "join" or "leave" called while the opposite one was in
        #: flight: it runs once that one finishes (the last call wins).
        self.intent: Optional[str] = None
        self.view: Optional[View] = None
        self.hwg: Optional[HwgId] = None
        self.ancestors = AncestorTracker()
        #: Sends queued while joining or mid-switch.
        self.pending_sends: List[Tuple[Any, int]] = []
        #: Set while a fresh joiner waits for the coordinator's state
        #: snapshot; data for this view is buffered until it arrives.
        self.awaiting_state_for: Optional[ViewId] = None
        self.state_buffer: List[Tuple[ProcessId, Any, int]] = []
        #: Set while the switch protocol moves this LWG between HWGs.
        self.switch_epoch: Optional[int] = None
        self.switch_target: Optional[HwgId] = None
        self.switch_ready_epoch: Optional[int] = None
        #: Coordinator-side head of the minted-view chain: the most recent
        #: successor view we multicast but have not yet seen delivered.
        self.minted_head: Optional[View] = None
        self.views_installed = 0
        self.delivered = 0
        #: Last sim time we saw life from our view's coordinator (an
        #: install, an announce, or its data) — the coordinator-silence
        #: backstop's clock.
        self.last_coordinator_heard = 0

    @property
    def is_member(self) -> bool:
        return self.state is LwgState.MEMBER and self.view is not None

    def coordinator(self) -> Optional[ProcessId]:
        return self.view.members[0] if self.view is not None else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        vid = str(self.view.view_id) if self.view else "-"
        return f"LocalLwg({self.lwg}, {self.state.value}, view={vid}, hwg={self.hwg})"


class HwgDirectory:
    """What this process knows about one HWG's light-weight cargo."""

    def __init__(self, hwg: HwgId):
        self.hwg = hwg
        #: Latest known LWG view per LWG mapped on this HWG.
        self.views: Dict[LwgId, View] = {}
        #: LWGs switched away from this HWG -> where they went.
        self.forward: Dict[LwgId, HwgId] = {}
        #: Sim time when this HWG last carried a local LWG (shrink rule).
        self.last_useful_at = 0

    def record_view(self, view: View) -> None:
        """Track the newest view announcement for ``view.group``."""
        self.views[view.group] = view
        self.forward.pop(view.group, None)

    def remove_lwg(self, lwg: LwgId, forward_to: Optional[HwgId] = None) -> None:
        self.views.pop(lwg, None)
        if forward_to is not None:
            self.forward[lwg] = forward_to

    def prune_members(self, alive: Set[ProcessId]) -> List[LwgId]:
        """Drop directory views with no surviving member; return the dropped."""
        dropped = []
        for lwg, view in list(self.views.items()):
            if not (set(view.members) & alive):
                del self.views[lwg]
                dropped.append(lwg)
        return dropped


class MappingTable:
    """All LWG-layer state of one process."""

    def __init__(self) -> None:
        self.locals: Dict[LwgId, LocalLwg] = {}
        self.directory: Dict[HwgId, HwgDirectory] = {}

    def local(self, lwg: LwgId) -> Optional[LocalLwg]:
        return self.locals.get(lwg)

    def ensure_local(self, lwg: LwgId, listener: Any) -> LocalLwg:
        entry = self.locals.get(lwg)
        if entry is None:
            entry = LocalLwg(lwg, listener)
            self.locals[lwg] = entry
        elif listener is not None:
            entry.listener = listener
        return entry

    def dir_for(self, hwg: HwgId) -> HwgDirectory:
        entry = self.directory.get(hwg)
        if entry is None:
            entry = HwgDirectory(hwg)
            self.directory[hwg] = entry
        return entry

    def local_lwgs_on(self, hwg: HwgId) -> List[LocalLwg]:
        """LWGs this process belongs to that ride on ``hwg``."""
        return [
            entry
            for entry in self.locals.values()
            if entry.hwg == hwg and entry.state in (LwgState.MEMBER, LwgState.LEAVING)
        ]

    def member_lwgs(self) -> List[LocalLwg]:
        return [e for e in self.locals.values() if e.is_member]

    def coordinated_lwgs(self, node: ProcessId) -> List[LocalLwg]:
        """LWGs whose current view this process coordinates."""
        return [e for e in self.member_lwgs() if e.coordinator() == node]

    def hwgs_in_use(self) -> Set[HwgId]:
        """HWGs currently carrying (or targeted by) one of our LWGs."""
        used: Set[HwgId] = set()
        for entry in self.locals.values():
            if entry.hwg is not None and entry.state is not LwgState.IDLE:
                used.add(entry.hwg)
            if entry.switch_target is not None:
                used.add(entry.switch_target)
        return used
