"""The heavy-weight group endpoint: the paper's Table-1 interface.

:class:`HwgEndpoint` exposes exactly the primitives of a virtually
synchronous layer — ``Join``, ``Leave``, ``Send``, ``StopOk`` downcalls
and ``View``, ``Data``, ``Stop`` upcalls — over the partitionable
machinery of :mod:`~repro.vsync.total_order`, :mod:`~repro.vsync.flush`
and :mod:`~repro.vsync.membership`.

Group bootstrap is *merge-based*: a joiner probes the group address and,
hearing no coordinator, founds a singleton view; concurrent singletons
(or views separated by partitions) converge through the presence-beacon
merge path.  This uniformity is what makes partition healing "just
another merge".
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..runtime.interfaces import NodeId
from .flush import FlushParticipant
from .membership import EndpointState, ViewChangeManager
from .messages import (
    BranchFlushed,
    FlushDone,
    FlushFill,
    FlushState,
    InstallView,
    JoinProbe,
    JoinRequest,
    LeaveRequest,
    MergeDecline,
    MergeRequest,
    Nack,
    Ordered,
    Presence,
    Publish,
    StabilityAck,
    StabilityAnnounce,
    Stop,
    VsyncMessage,
)
from .total_order import OrderedChannel
from .view import GroupId, View, ViewId

#: A joiner that hears no coordinator within this long after probing
#: founds the group as a singleton view.
JOIN_PROBE_TIMEOUT_US = 250_000
#: A joiner that sent a JoinRequest probes again after this long.
HWG_JOIN_RETRY_US = 800_000
#: A leaver re-sends its LeaveRequest at this period.
LEAVE_RETRY_US = 800_000


class HwgListener:
    """Upcall interface for users of an endpoint (paper Table 1).

    Subclass and override what you need; the default ``on_stop`` keeps
    the Stop/StopOk handshake invisible (auto-acknowledge), matching the
    paper's note that "Stop and StopOk may be hidden from the user".
    """

    def on_view(self, group: GroupId, view: View) -> None:
        """A new view was installed."""

    def on_data(self, group: GroupId, src: NodeId, payload: Any, size: int) -> None:
        """A totally-ordered multicast was delivered."""

    def on_stop(self, group: GroupId, stop_ok: Callable[[], None]) -> None:
        """Traffic must stop (view change in progress); call ``stop_ok()``."""
        stop_ok()

    def on_left(self, group: GroupId) -> None:
        """Our Leave completed (or the group dissolved under us)."""

    # -- optional state transfer ---------------------------------------
    def get_state(self, group: GroupId) -> Any:
        """Snapshot the application state for a joining member.

        Called at the view-change leader *after* its branch flushed —
        i.e. exactly at the old view's delivery cut — so the snapshot
        plus the new view's messages reconstruct the group state.
        Return None (the default) to disable state transfer.
        """
        return None

    def on_state(self, group: GroupId, state: Any) -> None:
        """Receive the state snapshot on join (before any Data upcall)."""


class HwgEndpoint:
    """One process's membership in one heavy-weight group."""

    def __init__(self, stack, group: GroupId, listener: Optional[HwgListener] = None):
        self.stack = stack
        self.env = stack.env
        self.node: NodeId = stack.node
        self.group = group
        self.listener = listener or HwgListener()
        self._state = EndpointState.IDLE
        self.current_view: Optional[View] = None
        self.known_ancestors: Set[ViewId] = set()
        self.channel = OrderedChannel(self)
        self.participant = FlushParticipant(self)
        self.vcm = ViewChangeManager(self)
        self._prejoin_sends: List[Tuple[Any, int]] = []
        # Peers currently monitored via the failure detector, kept as a
        # sorted tuple computed once per view install: every later
        # traversal (leave teardown, monitoring diffs) needs the sorted
        # order for determinism, so sorting at mutation time replaces a
        # ``sorted(set)`` per traversal on the view-change path.
        self._monitored: Tuple[NodeId, ...] = ()
        self._join_timer = None
        self._leave_timer = None
        self.views_installed = 0

    @property
    def state(self) -> EndpointState:
        return self._state

    @state.setter
    def state(self, value: EndpointState) -> None:
        # Every transition invalidates endpoint-derived caches above
        # (the stack-wide epoch backs e.g. the member-HWG set cache).
        self._state = value
        self.stack.endpoint_epoch += 1

    @property
    def fd(self):
        """The process-wide shared failure detector."""
        return self.stack.fd

    @property
    def addressing(self):
        return self.stack.addressing

    # ------------------------------------------------------------------
    # Table-1 downcalls
    # ------------------------------------------------------------------
    def join(self) -> None:
        """Join the group (async; completion surfaces as a View upcall)."""
        if self.state is not EndpointState.IDLE:
            return
        self.state = EndpointState.JOINING
        self.addressing.subscribe(self.group, self.node)
        self.trace("join_start")
        self._probe()

    def leave(self) -> None:
        """Leave the group (async; completion surfaces as on_left)."""
        if self.state is not EndpointState.MEMBER:
            return
        view = self.current_view
        if view is not None and view.members == (self.node,):
            self.trace("leave_singleton")
            self._finish_leave()
            return
        self.state = EndpointState.LEAVING
        self._leave_attempt()

    def send(self, payload: Any, size: int = 256) -> None:
        """Virtually synchronous totally-ordered multicast to the group."""
        if self.state is EndpointState.IDLE:
            raise RuntimeError(f"send on {self.group} before join")
        if self.state is EndpointState.JOINING or self.current_view is None:
            self._prejoin_sends.append((payload, size))
            return
        self.channel.send(payload, size)

    def stop_ok(self) -> None:
        """Confirm a Stop upcall (Table 1 StopOk)."""
        self.participant.stop_acknowledged()

    def secede(self) -> None:
        """Fall back to a singleton view of ourselves (abandonment recovery).

        Used when our own coordinator demonstrably moved on without us.
        The singleton descends from our current view, so beacons from the
        main view and ours discover each other and merge normally.
        """
        if self.state is not EndpointState.MEMBER or self.current_view is None:
            return
        singleton = View(
            group=self.group,
            view_id=ViewId(self.node, self.stack.next_view_seq()),
            members=(self.node,),
            parents=(self.current_view.view_id,),
        )
        self.trace(
            "seceded",
            view=str(singleton.view_id),
            parent=str(self.current_view.view_id),
        )
        self._install(singleton, self.channel.floor_snapshot())

    def force_refresh(self) -> None:
        """Force a flush and an identity view change (coordinator only).

        Used by the LWG merge-views protocol (Figure 5): "the coordinator
        of the HWG flushes the HWG".  A no-op at non-coordinators.
        """
        if self.state is EndpointState.MEMBER and self.vcm.am_leader():
            self.vcm.request_refresh()

    # ------------------------------------------------------------------
    # Join machinery
    # ------------------------------------------------------------------
    def _probe(self) -> None:
        if self.state is not EndpointState.JOINING:
            return
        others = self.addressing.subscribers(self.group) - {self.node}
        if others:
            probe = JoinProbe(group=self.group, joiner=self.node)
            self.stack.raw_multicast(others, probe, probe.size_bytes())
        self._join_timer = self.stack.set_timer(JOIN_PROBE_TIMEOUT_US, self._probe_timeout)

    def _probe_timeout(self) -> None:
        if self.state is not EndpointState.JOINING:
            return
        # Nobody answered: found the group as a singleton view.
        view = View(
            group=self.group,
            view_id=ViewId(self.node, self.stack.next_view_seq()),
            members=(self.node,),
            parents=(),
        )
        self.trace("founded_singleton", view=str(view.view_id))
        self._install(view, {})

    def _on_presence_while_joining(self, src: NodeId, msg: Presence) -> None:
        if self._join_timer is not None:
            self._join_timer.cancel()
        self.reliable_send(src, JoinRequest(group=self.group, joiner=self.node))
        self._join_timer = self.stack.set_timer(HWG_JOIN_RETRY_US, self._probe)

    # ------------------------------------------------------------------
    # Leave machinery
    # ------------------------------------------------------------------
    def _leave_attempt(self) -> None:
        if self.state is not EndpointState.LEAVING:
            return
        if self._leave_timer is not None:
            self._leave_timer.cancel()
        coordinator = self.vcm.acting_coordinator()
        msg = LeaveRequest(group=self.group, leaver=self.node)
        if coordinator == self.node:
            self.vcm.on_leave_request(msg)
        elif self.channel.pending:
            # Our publishes are raw datagrams and the LeaveRequest is not:
            # sent now, it could reach the coordinator ahead of a lost or
            # reordered publish, and the leave's flush would strand it.
            # Ask once the last one is delivered (its Ordered is the ack),
            # after the delivery that drained it has run to completion.
            self.channel.on_drained = lambda: self.stack.set_timer(0, self._leave_attempt)
        elif coordinator is not None:
            self.reliable_send(coordinator, msg)
        self._leave_timer = self.stack.set_timer(LEAVE_RETRY_US, self._leave_attempt)

    def _finish_leave(self) -> None:
        if self._leave_timer is not None:
            self._leave_timer.cancel()
        old_view = self.current_view
        self.addressing.unsubscribe(self.group, self.node)
        self.state = EndpointState.IDLE
        self.current_view = None
        self.vcm.reset()
        self.participant.reset()
        self.channel.freeze()  # stops its re-publish and NACK timers
        self.channel = OrderedChannel(self)
        for peer in self._monitored:  # already sorted (see __init__)
            self.fd.unmonitor(peer)
        self._monitored = ()
        self.trace("left", view=str(old_view.view_id) if old_view else None)
        self.listener.on_left(self.group)

    # ------------------------------------------------------------------
    # Message dispatch (called by the stack)
    # ------------------------------------------------------------------
    def on_message(self, src: NodeId, msg: VsyncMessage) -> None:
        """Route one group-addressed message to the right sub-machine."""
        if isinstance(msg, Publish):
            self.channel.on_publish(src, msg)
        elif isinstance(msg, Ordered):
            self.channel.on_ordered(msg)
        elif isinstance(msg, Nack):
            self.channel.on_nack(msg)
        elif isinstance(msg, StabilityAck):
            self.channel.on_stability_ack(msg)
        elif isinstance(msg, StabilityAnnounce):
            self.channel.on_stability_announce(msg)
        elif isinstance(msg, Stop):
            self.vcm.observed_round(msg.round_no)
            self.participant.on_stop(msg)
        elif isinstance(msg, FlushState):
            leader = self._active_flush_leader()
            if leader is not None:
                leader.on_flush_state(msg)
        elif isinstance(msg, FlushFill):
            self.participant.on_fill(msg)
        elif isinstance(msg, FlushDone):
            leader = self._active_flush_leader()
            if leader is not None:
                leader.on_flush_done(msg)
        elif isinstance(msg, InstallView):
            self.apply_install(src, msg)
        elif isinstance(msg, Presence):
            if self.state is EndpointState.JOINING:
                self._on_presence_while_joining(src, msg)
            else:
                self.vcm.on_presence(src, msg)
        elif isinstance(msg, JoinProbe):
            if self.state is EndpointState.MEMBER and self.vcm.am_leader():
                self.reliable_send(src, self._presence_message())
        elif isinstance(msg, JoinRequest):
            self.vcm.on_join_request(msg)
        elif isinstance(msg, LeaveRequest):
            self.vcm.on_leave_request(msg)
        elif isinstance(msg, MergeRequest):
            self.vcm.on_merge_request(src, msg)
        elif isinstance(msg, MergeDecline):
            self.vcm.on_merge_decline(msg)
        elif isinstance(msg, BranchFlushed):
            self.vcm.on_branch_flushed(msg)

    def _active_flush_leader(self):
        if self.vcm.round is not None and self.vcm.round.flush is not None:
            return self.vcm.round.flush
        if self.vcm.subordinate is not None and self.vcm.subordinate.flush is not None:
            return self.vcm.subordinate.flush
        return None

    # ------------------------------------------------------------------
    # View installation
    # ------------------------------------------------------------------
    def apply_install(self, src: NodeId, msg: InstallView) -> None:
        """Validate and apply an InstallView from ``src`` (possibly ourselves)."""
        if msg.view is None:
            if self.state is EndpointState.LEAVING:
                self._finish_leave()
            return
        view = msg.view
        if self.node not in view.members:
            if self.state is EndpointState.LEAVING:
                self._finish_leave()
            return
        if self.state is EndpointState.JOINING:
            if self.stack.is_stale_view(self.group, view.view_id):
                # Leftover InstallView from a previous incarnation of
                # this node (delayed in the fabric across our crash):
                # installing it would resurrect a view the surviving
                # members already superseded.
                self.trace("stale_install_rejected", view=str(view.view_id))
                return
            if msg.app_state is not None:
                self.listener.on_state(self.group, msg.app_state)
            self._install(view, msg.dedup)
            return
        if self.state in (EndpointState.MEMBER, EndpointState.LEAVING):
            current = self.current_view
            if current is None:
                return
            if msg.via_branch != current.view_id:
                return  # not a successor of our view: stale or foreign
            if not self.participant.stop_acked:
                return  # we never flushed for this change: refuse
            self._install(view, msg.dedup)

    def _install(self, view: View, dedup: Dict[NodeId, int]) -> None:
        old = self.current_view
        if old is not None:
            self.known_ancestors.add(old.view_id)
        self.known_ancestors.update(view.parents)
        self.current_view = view
        self.participant.reset()
        self.vcm.round_completed()
        self.channel.install_view(view, dedup)
        self._update_monitoring(view)
        was_joining = self.state is EndpointState.JOINING
        # A leave survives the install: a LEAVING endpoint keeps retrying
        # until a view without it (or InstallView(view=None)) arrives.
        if self.state is not EndpointState.LEAVING:
            self.state = EndpointState.MEMBER
        if was_joining and self._join_timer is not None:
            self._join_timer.cancel()
        self.views_installed += 1
        self.stack.note_view_installed(self.group, view.view_id)
        self.trace(
            "view_installed",
            view=str(view.view_id),
            members=list(view.members),
            parents=[str(p) for p in view.parents],
        )
        self.listener.on_view(self.group, view)
        if self._prejoin_sends:
            queued, self._prejoin_sends = self._prejoin_sends, []
            for payload, size in queued:
                self.channel.send(payload, size)
        # New coordinators announce themselves immediately: this is what
        # accelerates convergence after a heal.
        if self.vcm.am_leader():
            self.beacon()
        self.vcm.maybe_start()

    def _update_monitoring(self, view: View) -> None:
        wanted = set(view.members) - {self.node}
        current = set(self._monitored)
        # Sorted iteration: monitor() order fixes the detector's internal
        # peer order and thus its suspicion-notification order, which
        # must not depend on hash-randomized set iteration.
        for peer in sorted(wanted - current):
            self.fd.monitor(peer)
        for peer in sorted(current - wanted):
            self.fd.unmonitor(peer)
        self._monitored = tuple(sorted(wanted))

    # ------------------------------------------------------------------
    # Presence beacons
    # ------------------------------------------------------------------
    def _presence_message(self) -> Presence:
        assert self.current_view is not None
        return Presence(
            group=self.group,
            view_id=self.current_view.view_id,
            members=self.current_view.members,
        )

    def beacon(self) -> None:
        """Multicast a presence beacon to every subscriber if we
        coordinate a live view."""
        if self.state is not EndpointState.MEMBER or not self.vcm.am_leader():
            return
        targets = self.addressing.subscribers(self.group) - {self.node}
        if targets:
            msg = self._presence_message()
            self.stack.raw_multicast(targets, msg, msg.size_bytes())

    # ------------------------------------------------------------------
    # Helpers used by sub-machines (host interface)
    # ------------------------------------------------------------------
    def reliable_send(self, dst: NodeId, msg: VsyncMessage) -> None:
        self.stack.reliable_send(dst, msg, msg.size_bytes())

    def raw_send(self, dst: NodeId, msg: VsyncMessage) -> None:
        self.stack.send(dst, msg, msg.size_bytes())

    def multicast_view(self, msg: VsyncMessage, size: int) -> None:
        assert self.current_view is not None
        # The member tuple as is: the fabric keys its fan-out on
        # ``frozenset(dsts)`` and a View never holds a duplicate member.
        self.stack.raw_multicast(self.current_view.members, msg, size)

    def deliver_data(self, sender: NodeId, payload: Any, size: int) -> None:
        self.listener.on_data(self.group, sender, payload, size)

    def raise_stop(self) -> None:
        self.listener.on_stop(self.group, self.stop_ok)

    def capture_state(self) -> Any:
        """Ask the application for a state snapshot (state transfer)."""
        return self.listener.get_state(self.group)

    def handle_stop_locally(self, stop: Stop) -> None:
        self.vcm.observed_round(stop.round_no)
        self.participant.on_stop(stop)

    def handle_fill_locally(self, fill: FlushFill) -> None:
        self.participant.on_fill(fill)

    def route_flush_state_locally(self, state: FlushState) -> None:
        leader = self._active_flush_leader()
        if leader is not None:
            leader.on_flush_state(state)

    def route_flush_done_locally(self, done: FlushDone) -> None:
        leader = self._active_flush_leader()
        if leader is not None:
            leader.on_flush_done(done)

    def on_suspicion_change(self, peer: NodeId, suspected: bool) -> None:
        self.vcm.on_suspicion_change(peer, suspected)

    def trace(self, event: str, **fields) -> None:
        tracer = self.env.tracer
        if tracer.enabled("hwg"):
            tracer.emit("hwg", event, node=self.node, group=self.group, **fields)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        vid = str(self.current_view.view_id) if self.current_view else "-"
        return f"HwgEndpoint({self.node}/{self.group}, {self.state.value}, view={vid})"
