"""The transparent, dynamic, partitionable light-weight group service.

One :class:`LwgService` runs per process, layered over that process's
:class:`~repro.vsync.stack.ProtocolStack` (heavy-weight groups) and
:class:`~repro.naming.client.NamingClient`.  It gives applications the
same virtually-synchronous interface an HWG would (join / leave / send
downcalls, View / Data upcalls) while multiplexing many user groups over
a small pool of HWGs:

* the **data path** encapsulates each user message as ``<DATA, lwg_id,
  view, data>`` multicast on the underlying HWG, and filters on receipt
  (Section 3.1);
* **join/leave** are coordinated by each LWG view's coordinator through
  LWG view messages riding the HWG's total order
  (:mod:`repro.core.join_leave`);
* the **mapping policies** of Figure 1 run periodically and trigger the
  switch protocol (:mod:`repro.core.switching`);
* **partition reconciliation** (Section 6) combines naming-service
  callbacks, the deterministic highest-gid switch, and the Figure-5
  merge-views protocol (:mod:`repro.core.merge`).

Each protocol's state and handlers live with its module's owner object;
the service keeps the API, the data path, view installation and naming
registration, and routes each HWG message to its owner by exact type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..naming.client import NamingClient
from ..naming.messages import MultipleMappings
from ..naming.records import HwgId, LwgId, MappingRecord
from ..sim.engine import SECOND
from ..vsync.hwg import HwgEndpoint, HwgListener
from ..vsync.membership import EndpointState
from ..vsync.view import View, ViewId
from .batching import BatchPacker
from .config import LwgConfig
from .ids import lwg_id as canonical_lwg_id
from .ids import is_hwg_id, mint_hwg_id
from .join_leave import JoinLeaveManager
from .lwg_view import restrict_view
from .mapping_policy import DynamicMappingPolicy, InitialMappingPolicy
from .mapping_table import LocalLwg, LwgState, MappingTable
from .merge import MergeManager, ReconciliationHandler
from .messages import LwgBatch, LwgData, LwgMessage, LwgViewMsg, RedirectLwg
from .policies import LeaveHwgAction, PolicyEngine, PolicySnapshot, SwitchAction
from .switching import SwitchManager

# Bound once for the two per-message paths (``send`` and the per-entry
# filter): on CPython 3.11 every attribute read on an Enum class goes
# through the metaclass's ``__getattr__`` hook, ~100 ns a read.
_IDLE = LwgState.IDLE
_MEMBER = LwgState.MEMBER

#: LWG coordinators re-announce their view on their HWG at this period.
#: This is the liveness backstop for local peer discovery (Section 6.3):
#: Figure 5's trigger is DATA traffic, so two quiet concurrent views
#: co-mapped on one HWG would otherwise never merge.
ANNOUNCE_PERIOD_US = 2 * SECOND
#: Coordinators re-read the naming service at this period and
#: re-register their mapping if the record is gone.  Replication
#: normally outlives any single server failure, but a record written to
#: one replica inside a partition can be destroyed (crash with a
#: corrupted store) before anti-entropy spreads it — and a *missing*
#: record raises no MULTIPLE-MAPPINGS callback, so only the
#: authoritative writer can notice.  This audit is the self-healing
#: backstop for that silent-loss case.
MAPPING_AUDIT_PERIOD_US = 4 * SECOND
#: Payload size assumed for user messages sent without one.
DEFAULT_PAYLOAD_BYTES = 256
#: Settling holds policy moves off for at most this many evaluations in
#: a row, so steady churn on one group cannot starve the others.
SETTLE_MAX_EVALUATIONS = 8


class LwgListener:
    """User-facing upcalls for one light-weight group (Table 1 shape)."""

    def on_view(self, lwg: LwgId, view: View) -> None:
        """A new LWG view was installed."""

    def on_data(self, lwg: LwgId, src: str, payload: Any, size: int) -> None:
        """A totally-ordered LWG multicast was delivered."""

    def on_left(self, lwg: LwgId) -> None:
        """Our Leave completed."""

    # -- optional state transfer ---------------------------------------
    def get_state(self, lwg: LwgId) -> Any:
        """Snapshot the group's application state for a joining member.

        Called at the LWG coordinator at the exact total-order position
        where the joiner's view installs.  Return None (default) to
        disable state transfer for this group.
        """
        return None

    def on_state(self, lwg: LwgId, state: Any) -> None:
        """Receive the coordinator's snapshot on join, before any data."""


class LwgHandle:
    """Application-side handle to one joined LWG."""

    def __init__(self, service: "LwgService", lwg: LwgId):
        self._service = service
        self.lwg = lwg

    def send(self, payload: Any, size: Optional[int] = None) -> None:
        self._service.send(self.lwg, payload, size)

    def leave(self) -> None:
        self._service.leave(self.lwg)

    @property
    def view(self) -> Optional[View]:
        local = self._service.table.local(self.lwg)
        return local.view if local else None

    @property
    def is_member(self) -> bool:
        local = self._service.table.local(self.lwg)
        return bool(local and local.is_member)

    @property
    def hwg(self) -> Optional[HwgId]:
        local = self._service.table.local(self.lwg)
        return local.hwg if local else None


@dataclass
class LwgStats:
    """Per-process counters of the LWG layer."""

    data_sent: int = 0
    data_delivered: int = 0
    data_filtered: int = 0
    data_stale: int = 0
    lwg_views_installed: int = 0
    switches_started: int = 0
    switches_committed: int = 0
    switches_aborted: int = 0


class _HwgAdapter(HwgListener):
    """Routes one HWG endpoint's upcalls into the LWG service."""

    def __init__(self, service: "LwgService", hwg: HwgId):
        self.service = service
        self.hwg = hwg

    def on_view(self, group, view: View) -> None:
        self.service._on_hwg_view(self.hwg, view)

    def on_data(self, group, src, payload, size) -> None:
        self.service._on_hwg_data(self.hwg, src, payload, size)

    def on_stop(self, group, stop_ok) -> None:
        # Flush-before-view-change: hand any payloads still sitting in
        # the batch packer to the ordered channel of the closing view —
        # they are either ordered before the cut or queued and
        # re-published in the next view.  Beyond that the LWG layer
        # keeps nothing in flight outside the channel itself.
        self.service.packer.flush(self.hwg)
        stop_ok()

    def on_left(self, group) -> None:
        self.service._on_hwg_left(self.hwg)


class LwgService:
    """The light-weight group layer of one process."""

    def __init__(
        self,
        stack,
        naming: NamingClient,
        config: Optional[LwgConfig] = None,
        mapping_policy: Optional[InitialMappingPolicy] = None,
    ):
        self.stack = stack
        self.env = stack.env
        self.node = stack.node
        self.naming = naming
        self.config = config or LwgConfig()
        self.mapping_policy = mapping_policy or DynamicMappingPolicy()
        #: (endpoint epoch, sorted member HWGs) — the cached member-HWG
        #: set the mapping policies consult on every join.
        self._member_hwgs_cache: Optional[Tuple[int, Tuple[HwgId, ...]]] = None
        self.table = MappingTable()
        self.merge_mgr = MergeManager(self)
        self.reconciler = ReconciliationHandler(self)
        self.policy_engine = PolicyEngine(self.config)
        self.stats = LwgStats()
        self.packer = BatchPacker(
            node=self.node,
            transmit=self._transmit_packed,
            set_timer=stack.set_timer,
            in_flight=self._publish_in_flight,
        )
        self.join_leave = JoinLeaveManager(self)
        self.switching = SwitchManager(self)
        self._handlers = self._route_table()
        self._hwg_counter = 0
        self._hwg_last_views: Dict[HwgId, View] = {}
        #: The last policy evaluation's view ids, and its settling streak.
        self._policy_views_seen: FrozenSet[Tuple[str, ViewId]] = frozenset()
        self._settle_streak = 0
        self._rejoin_after_leave: Set[HwgId] = set()
        naming.on_multiple_mappings = self._on_multiple_mappings
        stack.register_handler(RedirectLwg, self.join_leave.on_redirect)
        stack.env.failures.on_transition(self.node, self._on_crash_transition)
        if self.config.enable_policies:
            stack.set_periodic(
                self.config.policy_period_us,
                self.run_policies_once,
                jitter_stream=f"policy:{self.node}",
            )
        stack.set_periodic(
            ANNOUNCE_PERIOD_US,
            self.join_leave.tick_announcements,
            jitter_stream=f"announce:{self.node}",
        )
        if self.config.enable_reconciliation:
            stack.set_periodic(
                MAPPING_AUDIT_PERIOD_US,
                self._tick_mapping_audit,
                jitter_stream=f"audit:{self.node}",
            )

    def _route_table(self) -> Dict[type, Callable[[HwgId, Any], None]]:
        """Exact payload type -> handler, one entry per protocol message.

        Rebuilt when a crash replaces the MergeManager, so no bound
        method of the old one survives."""
        handlers: Dict[type, Callable[[HwgId, Any], None]] = {
            LwgData: self._on_lwg_data,
            LwgBatch: self._on_lwg_batch,
        }
        for owner in (self.join_leave, self.merge_mgr, self.switching):
            handlers.update(owner.handlers())
        return handlers

    def _on_crash_transition(self, crashed: bool) -> None:
        """Fail-stop semantics: a crashed process loses all LWG state.

        Recovery starts from a clean slate — the application re-joins its
        groups, receiving fresh views (and state transfer) like any new
        member.  The HWG-id and switch-epoch counters, the stats and the
        reconciler survive.
        """
        if not crashed:
            return
        self.join_leave.reset()
        self.switching.reset()
        self.packer.reset()
        self.table = MappingTable()
        self.merge_mgr = MergeManager(self)
        self._handlers = self._route_table()
        self._hwg_last_views.clear()
        self._policy_views_seen = frozenset()
        self._settle_streak = 0
        self._rejoin_after_leave.clear()
        self.naming.cancel_all()

    def _on_multiple_mappings(self, message: MultipleMappings) -> None:
        if self.config.enable_reconciliation:
            self.reconciler.on_multiple_mappings(message)

    # ==================================================================
    # Public API
    # ==================================================================
    def join(self, name: str, listener: Optional[LwgListener] = None) -> LwgHandle:
        """Join (creating if needed) the user group ``name``.

        Of ``join`` and ``leave`` calls on one group, the last wins: a
        join called while our leave is in flight runs once it finishes,
        and cancels a leave called while our join is in flight.
        """
        lwg = canonical_lwg_id(name)
        local = self.table.ensure_local(lwg, listener or LwgListener())
        if local.state is LwgState.IDLE:
            self.join_leave.join(local)
        else:
            local.intent = "join" if local.state is LwgState.LEAVING else None
        return LwgHandle(self, lwg)

    def leave(self, name: str) -> None:
        """Leave the user group ``name`` (async, completes via on_left).

        A leave called while our join is in flight runs once the join
        completes; one called while our leave is in flight cancels a
        pending re-join (see :meth:`join`).
        """
        lwg = canonical_lwg_id(name)
        local = self.table.local(lwg)
        if local is None:
            return
        if local.is_member:
            self.join_leave.leave(local)
        else:
            local.intent = "leave" if local.state is LwgState.JOINING else None

    def start_switch(self, local: LocalLwg, to_hwg: Optional[HwgId], reason: str) -> None:
        """Begin switching ``local`` to ``to_hwg`` (None mints a fresh HWG)."""
        self.switching.start(local, to_hwg, reason)

    def groups(self) -> List[str]:
        """Names of every group this process currently belongs to."""
        return sorted(
            entry.lwg for entry in self.table.locals.values()
            if entry.state is not LwgState.IDLE
        )

    def members(self, name: str) -> Tuple[str, ...]:
        """Current membership of ``name`` as seen locally (empty if none)."""
        local = self.table.local(canonical_lwg_id(name))
        if local is None or local.view is None:
            return ()
        return local.view.members

    def describe(self) -> Dict[str, Dict[str, Any]]:
        """Debug snapshot: per-group state, view, mapping and role."""
        out: Dict[str, Dict[str, Any]] = {}
        for lwg, entry in sorted(self.table.locals.items()):
            out[lwg] = {
                "state": entry.state.value,
                "view": str(entry.view.view_id) if entry.view else None,
                "members": list(entry.view.members) if entry.view else [],
                "hwg": entry.hwg,
                "coordinator": entry.coordinator() == self.node,
                "switching": entry.switch_epoch is not None,
            }
        return out

    def shutdown(self) -> None:
        """Gracefully leave every group (async; upcalls still fire)."""
        for name in self.groups():
            self.leave(name)

    def send(self, name: str, payload: Any, size: Optional[int] = None) -> None:
        """Virtually synchronous multicast to the user group ``name``."""
        lwg = canonical_lwg_id(name)
        local = self.table.locals.get(lwg)
        if local is None or local.state is _IDLE:
            raise RuntimeError(f"send to {lwg} before join")
        size = size if size is not None else DEFAULT_PAYLOAD_BYTES
        self.stats.data_sent += 1
        # ``not local.is_member``, inlined: one frame less per send.
        if (
            local.state is not _MEMBER
            or local.view is None
            or local.switch_epoch is not None
        ):
            local.pending_sends.append((payload, size))
            return
        self._transmit_data(local, payload, size)

    def _transmit_data(self, local: LocalLwg, payload: Any, size: int) -> None:
        assert local.view is not None and local.hwg is not None
        message = LwgData(
            lwg=local.lwg,
            view_id=local.view.view_id,
            sender=self.node,
            payload=payload,
            payload_size=size,
        )
        self.packer.enqueue(local.hwg, message)

    def _publish_in_flight(self, hwg: HwgId) -> bool:
        """Nagle's test for the packer: an own publish on ``hwg`` not yet
        delivered back.  Read off the ordered channel, which re-publishes
        across view changes and is wiped by a crash, so it cannot stick."""
        endpoint = self.hwg_endpoint(hwg)
        return endpoint is not None and bool(endpoint.channel.pending)

    def _transmit_packed(self, hwg: HwgId, message: Any) -> None:
        """Packer flush sink: hand one LwgData/LwgBatch to the channel.

        Deliberately does *not* go through :meth:`hwg_send`, whose
        flush-before-control rule would recurse into the packer.
        """
        if isinstance(message, LwgBatch) and self.env.tracer.enabled("lwg"):
            self.trace(
                "batch_sent",
                hwg=hwg,
                batch_seq=message.batch_seq,
                entries=len(message.entries),
                lwgs=message.lwg_counts(),
            )
        endpoint = self.ensure_hwg(hwg)
        endpoint.send(message, message.size_bytes())

    # ==================================================================
    # Helpers used across the service and its drivers
    # ==================================================================
    def mint_hwg_id(self) -> HwgId:
        self._hwg_counter += 1
        return mint_hwg_id(self.node, self._hwg_counter)

    def mint_view_id(self) -> ViewId:
        return ViewId(self.node, self.stack.next_view_seq())

    def ensure_hwg(self, hwg: HwgId) -> HwgEndpoint:
        """Return this node's endpoint for ``hwg``, joining if needed.

        If the endpoint is mid-leave (e.g. the shrink rule drained it just
        as a join driver re-targeted it), the join is queued and re-issued
        the moment the leave completes.
        """
        endpoint = self.stack.endpoints.get(hwg)
        if endpoint is None:
            endpoint = self.stack.endpoint(hwg, _HwgAdapter(self, hwg))
        if endpoint.state is EndpointState.IDLE:
            endpoint.join()
        elif endpoint.state is EndpointState.LEAVING:
            self._rejoin_after_leave.add(hwg)
        return endpoint

    def hwg_endpoint(self, hwg: HwgId) -> Optional[HwgEndpoint]:
        return self.stack.endpoints.get(hwg)

    def member_hwgs(self) -> Tuple[HwgId, ...]:
        """Sorted HWGs this process is currently a member of.

        Cached against the stack's endpoint epoch (bumped on every
        endpoint state change), so the mapping policies stop rescanning
        every endpoint on every join.
        """
        epoch = self.stack.endpoint_epoch
        cached = self._member_hwgs_cache
        if cached is not None and cached[0] == epoch:
            return cached[1]
        hwgs = tuple(
            sorted(
                group
                for group, endpoint in self.stack.endpoints.items()
                if is_hwg_id(group) and endpoint.state is EndpointState.MEMBER
            )
        )
        self._member_hwgs_cache = (epoch, hwgs)
        return hwgs

    def hwg_send(self, hwg: HwgId, message: LwgMessage) -> None:
        # Control-messages-flush-first: data buffered before this control
        # message must not be reordered after it in the HWG total order.
        self.packer.flush(hwg)
        endpoint = self.ensure_hwg(hwg)
        endpoint.send(message, message.size_bytes())

    def trace(self, event: str, **fields: Any) -> None:
        self.env.tracer.emit("lwg", event, node=self.node, **fields)

    # ==================================================================
    # HWG upcalls
    # ==================================================================
    def _on_hwg_data(self, hwg: HwgId, src: str, payload: Any, size: int) -> None:
        handler = self._handlers.get(type(payload))
        if handler is not None:
            handler(hwg, payload)
        if src == self.node:
            self.packer.on_own_delivery(hwg)

    # -- data path -------------------------------------------------------
    def _on_lwg_batch(self, hwg: HwgId, batch: LwgBatch) -> None:
        """Demultiplex a packed multicast: one LwgData at a time, in order.

        Each entry runs the full per-message delivery machinery (view
        filtering, state-transfer buffering, stale restamp, merge
        triggering) exactly as if it had arrived unbatched.
        """
        if self.env.tracer.enabled("lwg"):
            self.trace(
                "batch_unpacked",
                hwg=hwg,
                sender=batch.sender,
                batch_seq=batch.batch_seq,
                entries=len(batch.entries),
                lwgs=batch.lwg_counts(),
            )
        on_lwg_data = self._on_lwg_data
        for entry in batch.entries:
            on_lwg_data(hwg, entry)

    def _on_lwg_data(self, hwg: HwgId, message: LwgData) -> None:
        # The Section-3.1 filter, run once per delivered entry: the table
        # lookup, ``is_member`` and ``coordinator()`` are inlined, and view
        # ids compare by identity first — in the simulator a message
        # carries the very ViewId object its view holds, so the dataclass
        # ``__eq__`` frame is only paid for a decoded or foreign id.
        local = self.table.locals.get(message.lwg)
        if (
            local is None
            or local.state is not _MEMBER
            or local.view is None
            or local.hwg != hwg
        ):
            self.stats.data_filtered += 1
            return
        view = local.view
        view_id = view.view_id
        stamped = message.view_id
        if stamped is view_id or stamped == view_id:
            awaiting = local.awaiting_state_for
            if awaiting is not None and (awaiting is view_id or awaiting == view_id):
                # Fresh joiner: hold data until the state snapshot lands.
                local.state_buffer.append(
                    (message.sender, message.payload, message.payload_size)
                )
                return
            self.stats.data_delivered += 1
            local.delivered += 1
            sender = message.sender
            if sender == view.members[0]:
                local.last_coordinator_heard = self.env.now
            if self.env.tracer.enabled("lwg"):
                self.trace(
                    "lwg_data_delivered",
                    lwg=message.lwg,
                    view=str(view_id),
                    sender=sender,
                )
            local.listener.on_data(message.lwg, sender, message.payload, message.payload_size)
        elif local.ancestors.is_stale(stamped):
            self.stats.data_stale += 1
            if message.sender == self.node and local.is_member:
                # Our own send raced a view change: it was ordered after
                # the cut but stamped with the superseded view, so every
                # member (including us) discards it identically.  Re-send
                # it under the current view — delivered exactly once.
                self.trace("data_restamped", lwg=message.lwg)
                self._transmit_data(local, message.payload, message.payload_size)
        else:
            # A concurrent view of our LWG shares this HWG: Figure 5, 106.
            self.merge_mgr.trigger(hwg, message.lwg)

    # ==================================================================
    # View installation and naming registration
    # ==================================================================
    def install_local_view(self, local: LocalLwg, view: View, reason: str) -> None:
        """Adopt ``view`` as our current view of ``local.lwg``."""
        if local.awaiting_state_for is not None and local.awaiting_state_for != view.view_id:
            # The admission view was superseded before its snapshot
            # arrived: release the held data in order before moving on.
            self.join_leave.release_state_buffer(local)
        old = local.view
        local.ancestors.advance(old, view)
        local.view = view
        local.minted_head = None
        local.views_installed += 1
        local.last_coordinator_heard = self.env.now
        self.stats.lwg_views_installed += 1
        if local.hwg is not None:
            self.table.dir_for(local.hwg).record_view(view)
        if local.state is not LwgState.LEAVING:
            local.state = LwgState.MEMBER
        self.trace(
            "lwg_view_installed",
            lwg=local.lwg,
            view=str(view.view_id),
            members=list(view.members),
            hwg=local.hwg,
            reason=reason,
        )
        local.listener.on_view(local.lwg, view)
        self.join_leave.transfer_state(local, old, view)
        if old is not None and old.members[0] == self.node:
            # We owned the naming record of the superseded view: retire it
            # explicitly.  (Genealogy GC also covers this when the full
            # parent chain reaches the servers, but the direct tombstone
            # keeps the database tight even when intermediate merge views
            # were never registered by their coordinators.)
            self.tombstone_mapping(local, old)
        if local.coordinator() == self.node:
            self.register_mapping(local)
        if local.switch_epoch is None and local.pending_sends:
            self.release_pending_sends(local)
        self.switching.on_view_installed(local)

    def release_pending_sends(self, local: LocalLwg) -> None:
        """Transmit, in order, the sends queued while joining or mid-switch."""
        queued, local.pending_sends = local.pending_sends, []
        for payload, size in queued:
            self._transmit_data(local, payload, size)

    def register_mapping(self, local: LocalLwg) -> None:
        """Coordinator duty: (re-)register our view-to-view mapping."""
        if local.view is None or local.hwg is None:
            return
        endpoint = self.hwg_endpoint(local.hwg)
        if endpoint is None or endpoint.current_view is None:
            return
        view_id = endpoint.current_view.view_id
        record = self.mapping_record(local.lwg, local.view, local.hwg, view_id)
        self.naming.set(record, parents=local.view.parents)

    def tombstone_mapping(
        self, local: LocalLwg, view: View, hwg_view: Optional[ViewId] = None
    ) -> None:
        """Delete the naming record of ``view``, a view we coordinated.

        ``hwg_view`` is the HWG view to cite; a superseded view cites none.
        """
        if hwg_view is None:
            hwg_view = ViewId("", 0)
        hwg = local.hwg or ""
        self.naming.unset(self.mapping_record(local.lwg, view, hwg, hwg_view, deleted=True))

    def mapping_record(
        self, lwg: LwgId, view: View, hwg: HwgId, hwg_view: ViewId, deleted: bool = False
    ) -> MappingRecord:
        """A mapping record we write (or delete) for ``view``, at a fresh version."""
        return MappingRecord(
            lwg=lwg,
            lwg_view=view.view_id,
            lwg_members=view.members,
            hwg=hwg,
            hwg_view=hwg_view,
            version=self.naming.next_version(),
            writer=self.node,
            deleted=deleted,
        )

    # ==================================================================
    # HWG view changes
    # ==================================================================
    def _on_hwg_view(self, hwg: HwgId, view: View) -> None:
        old_view = self._hwg_last_views.get(hwg)
        self._hwg_last_views[hwg] = view
        alive = set(view.members)
        directory = self.table.dir_for(hwg)
        # 1. The Figure-5 flush point: merge collected concurrent views.
        self.merge_mgr.on_hwg_view(hwg, view)
        # 2. Restrict local LWG views that lost members with this change.
        for local in self.table.local_lwgs_on(hwg):  # MEMBER/LEAVING: a view
            assert local.view is not None
            survivors = [m for m in local.view.members if m in alive]
            if len(survivors) < len(local.view.members) and survivors:
                if survivors[0] == self.node:
                    restricted = restrict_view(local.view, survivors, self.mint_view_id())
                    self.hwg_send(hwg, LwgViewMsg(lwg=local.lwg, view=restricted))
        # 3. Directory entries whose members all vanished are dead views.
        directory.prune_members(alive)
        # 4. Coordinator duty: refresh view-to-view mappings (the HWG view
        #    identifier under our LWG views just changed — Table 4 step 2).
        for local in self.table.local_lwgs_on(hwg):
            if local.is_member and local.coordinator() == self.node and local.switch_epoch is None:
                self.register_mapping(local)
        # 5. State transfer + concurrent-view discovery towards newcomers.
        added = alive - set(old_view.members) if old_view is not None else set()
        if added:
            for local in self.table.local_lwgs_on(hwg):
                if local.is_member and local.coordinator() == self.node:
                    assert local.view is not None
                    self.hwg_send(
                        hwg, LwgViewMsg(lwg=local.lwg, view=local.view, announce=True)
                    )
        # 6. Joiners waiting for this HWG.
        if self.node in alive:
            self.join_leave.on_hwg_ready(hwg)
        # 7. Switch members waiting to reach their target HWG.
        self.switching.on_hwg_view(hwg)
        # 8. Shrink-rule bookkeeping.
        if self.table.local_lwgs_on(hwg):
            directory.last_useful_at = self.env.now
        # 9. Replay join/leave requests deferred during the merge round.
        self.join_leave.replay_deferred(hwg)

    def _on_hwg_left(self, hwg: HwgId) -> None:
        self.table.directory.pop(hwg, None)
        self._hwg_last_views.pop(hwg, None)
        self.packer.forget(hwg)
        self.stack.drop_endpoint(hwg)
        self.trace("hwg_left", hwg=hwg)
        if hwg in self._rejoin_after_leave:
            # Someone asked for this HWG while we were leaving it.
            self._rejoin_after_leave.discard(hwg)
            self.ensure_hwg(hwg)

    # ==================================================================
    # Policies (Figure 1)
    # ==================================================================
    def build_policy_snapshot(self) -> PolicySnapshot:
        coordinated = {}
        for local in self.table.coordinated_lwgs(self.node):
            if local.switch_epoch is None and local.hwg is not None:
                assert local.view is not None
                coordinated[local.lwg] = (frozenset(local.view.members), local.hwg)
        hwg_members = {}
        local_per_hwg = {}
        idle_since = {}
        for hwg, endpoint in self.stack.endpoints.items():
            if endpoint.state is not EndpointState.MEMBER or endpoint.current_view is None:
                continue
            hwg_members[hwg] = frozenset(endpoint.current_view.members)
            used_by = self.table.local_lwgs_on(hwg)
            local_per_hwg[hwg] = len(used_by)
            directory = self.table.dir_for(hwg)
            idle_since[hwg] = self.env.now if used_by else directory.last_useful_at
        busy = {l.lwg for l in self.table.locals.values() if l.switch_epoch is not None}
        busy |= set(self.switching.drivers)
        if self._settling():
            busy |= set(self.table.locals)
        busy = frozenset(busy)
        return PolicySnapshot(
            node=self.node,
            now_us=self.env.now,
            coordinated_lwgs=coordinated,
            hwg_members=hwg_members,
            local_lwgs_per_hwg=local_per_hwg,
            hwg_idle_since=idle_since,
            busy_lwgs=busy,
        )

    def _policy_view_ids(self) -> FrozenSet[Tuple[str, ViewId]]:
        """The view ids of our member LWGs and of our HWGs."""
        views = [(l.lwg, l.view) for l in self.table.locals.values() if l.is_member]
        views += self._hwg_last_views.items()
        return frozenset((group, view.view_id) for group, view in views if view)

    def _settling(self) -> bool:
        """An installed view changed since the last evaluation, so moving
        an LWG now would churn two HWGs under a join, leave, switch or
        merge — unless that held moves off SETTLE_MAX_EVALUATIONS times."""
        return (
            self._policy_view_ids() != self._policy_views_seen
            and self._settle_streak < SETTLE_MAX_EVALUATIONS
        )

    def run_policies_once(self) -> List[object]:
        """Evaluate the Figure-1 rules and execute the resulting actions;
        the settling record and the shrink idle clocks are written here."""
        seen = self._policy_view_ids()
        settling = self._settling()
        snapshot = self.build_policy_snapshot()
        self._policy_views_seen = seen
        self._settle_streak = self._settle_streak + 1 if settling else 0
        for hwg, count in snapshot.local_lwgs_per_hwg.items():
            if count:
                self.table.dir_for(hwg).last_useful_at = snapshot.now_us
        actions = self.policy_engine.evaluate(snapshot)
        for action in actions:
            if isinstance(action, SwitchAction):
                local = self.table.local(action.lwg)
                if local is not None:
                    self.trace(
                        "policy_switch",
                        lwg=action.lwg,
                        to_hwg=action.to_hwg,
                        reason=action.reason,
                    )
                    self.start_switch(local, action.to_hwg, reason=action.reason)
            elif isinstance(action, LeaveHwgAction):
                self._leave_hwg_if_unused(action.hwg)
        return actions

    def _tick_mapping_audit(self) -> None:
        """Self-healing backstop: verify our registered mappings exist.

        A record written to one name-server replica inside a partition
        can be destroyed — crash plus corrupted store — before
        anti-entropy replicates it.  A missing record raises no
        MULTIPLE-MAPPINGS conflict, so no callback covers the loss; the
        coordinator, as the record's authoritative writer, periodically
        re-reads the naming service and re-registers.  The fresh write
        also supersedes a joiner's same-version burial tombstone (its
        version is strictly higher), un-burying mappings that were
        declared dead while we were merely unreachable.
        """
        for local in self.table.coordinated_lwgs(self.node):
            if (
                local.switch_epoch is not None
                or local.hwg is None
                or local.view is None
            ):
                continue
            expect = local.view.view_id

            def check(records, lwg=local.lwg, expect=expect):
                current = self.table.local(lwg)
                if (
                    current is None
                    or not current.is_member
                    or current.view is None
                    or current.view.view_id != expect
                    or current.switch_epoch is not None
                    or current.coordinator() != self.node
                ):
                    return  # state moved on while the read was in flight
                # The record must cite our view AND our actual HWG: a
                # surviving older record for the same view with a stale
                # hwg field (the newer write was destroyed) hides the
                # branch just as thoroughly as a missing record.
                if any(
                    not r.deleted
                    and r.lwg_view == expect
                    and r.hwg == current.hwg
                    for r in records
                ):
                    return
                self.trace("mapping_reasserted", lwg=lwg, view=str(expect))
                self.register_mapping(current)

            self.naming.read(local.lwg, check)

    def _leave_hwg_if_unused(self, hwg: HwgId) -> None:
        if hwg in self.table.hwgs_in_use():
            return
        # The snapshot the rule read lists MEMBER endpoints only, and
        # nothing between the snapshot and its actions changes one.
        endpoint = self.hwg_endpoint(hwg)
        assert endpoint is not None and endpoint.state is EndpointState.MEMBER
        self.trace("shrink_leave", hwg=hwg)
        endpoint.leave()
