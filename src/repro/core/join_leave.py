"""The LWG join and leave protocols.

Joining a light-weight group (Section 3.1, partition-hardened per
Section 5.2):

1. read the naming service; if live mappings exist, target the one on
   the highest-gid HWG (consistent with the Section 6.2 reconciliation
   rule, so joiners racing a reconciliation pick the surviving side);
2. become a member of the target HWG (the heavy machinery — failure
   detection, flush, total order — all happens down there);
3. multicast an ``LwgJoinReq`` on the HWG; the LWG coordinator answers
   by installing a new LWG view that includes us;
4. if the mapping was stale: members holding a *forward pointer* redirect
   us to the HWG the LWG switched to; if nobody answers at all within
   the claim timeout, the mapping is dead and we (re)create the LWG here
   via ``ns.testset`` — losing that race simply restarts the loop with
   the winner's record.

:class:`JoinDriver` runs one joiner's loop; :class:`JoinLeaveManager`
owns the drivers and the rest of both protocols for one process: the
coordinator's handling of join/leave requests, the ordered LWG view
messages, state transfer to joiners, and the leave itself.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..naming.records import HwgId, LwgId, MappingRecord
from ..sim.engine import SECOND
from ..vsync.membership import EndpointState
from ..vsync.view import View, ViewId
from .ids import highest_gid
from .mapping_table import LocalLwg, LwgState
from .messages import (
    LwgDissolved,
    LwgJoinReq,
    LwgLeaveReq,
    LwgStateMsg,
    LwgViewMsg,
    RedirectLwg,
)

#: How long a new member buffers data awaiting its state transfer, and
#: the period at which a leaver re-sends its leave request.
LWG_JOIN_RETRY_US = 1 * SECOND
#: How long the joiner waits for the LWG to show up on the mapped HWG
#: before concluding the mapping is stale and (re)creating the LWG.
JOIN_CLAIM_US = 2 * SECOND
#: A non-coordinator member that hears nothing from its view's
#: coordinator (no announce, no install, no data) for this long
#: concludes the view was abandoned and rejoins through the naming
#: service.  Keep this a few announce periods
#: (:data:`repro.core.service.ANNOUNCE_PERIOD_US`) long.
COORDINATOR_SILENCE_US = 6 * SECOND


class JoinDriver:
    """State machine driving one process's join of one LWG."""

    def __init__(self, service, local: LocalLwg, on_created: Callable):
        self.svc = service
        self.local = local
        self._on_created = on_created  # (local, view, hwg): our claim won
        self.lwg: LwgId = local.lwg
        self.target_hwg: Optional[HwgId] = None
        self.mode = "read"  # read | join | create
        self.done = False
        self._timer = None
        self._epoch = 0  # bumps on every retarget; stale timers check it
        self._acted_epoch = -1  # guards one action per (re)target
        self._last_signature: Optional[frozenset] = None
        self._futile_rounds = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.svc.trace("lwg_join_start", lwg=self.lwg)
        self._read_naming()

    def cancel(self) -> None:
        self.done = True
        self._cancel_timer()

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _arm(self, delay: int, callback) -> None:
        self._cancel_timer()
        epoch = self._epoch

        def fire() -> None:
            if not self.done and epoch == self._epoch:
                callback()

        self._timer = self.svc.stack.set_timer(delay, fire)

    # ------------------------------------------------------------------
    # Step 1: naming lookup
    # ------------------------------------------------------------------
    def _read_naming(self) -> None:
        self.mode = "read"
        self._epoch += 1
        self.svc.naming.read(self.lwg, self._on_ns_records)

    def _on_ns_records(self, records: Sequence[MappingRecord]) -> None:
        if self.done:
            return
        live = [r for r in records if not r.deleted]
        signature = frozenset((r.lwg_view, r.hwg, r.version, r.writer) for r in live)
        if live and signature == self._last_signature:
            self._futile_rounds += 1
        else:
            self._futile_rounds = 0
        self._last_signature = signature
        if live and self._futile_rounds >= 2:
            self._bury_dead_mappings(live)
            return
        if live:
            # Prefer the mapping on the highest-gid HWG (Section 6.2 rule).
            best_hwg = highest_gid({r.hwg for r in live})
            self._target(best_hwg, mode="join")
        else:
            chosen = self.svc.mapping_policy.choose(self.lwg, self.svc)
            self._target(chosen or self.svc.mint_hwg_id(), mode="create")

    def _bury_dead_mappings(self, live: Sequence[MappingRecord]) -> None:
        """Nobody behind these records answered across two full
        join->claim cycles: the recorded views are dead — every member
        crashed without the graceful leave that would have tombstoned
        the mapping — or partitioned away from us.  Bury each record
        with the *weakest possible* tombstone: same version and writer
        with ``deleted`` flipped, which outranks only that exact twin
        in the LWW order.  Our claim can then go through, while any
        later write by the true coordinator (always a higher version)
        immediately overrides the burial and normal reconciliation
        merges the two lineages.
        """
        self.svc.trace("lwg_join_bury_dead", lwg=self.lwg, buried=len(live))
        for r in sorted(live, key=lambda rec: (rec.lwg_view, rec.hwg)):
            self.svc.naming.unset(replace(r, deleted=True))
        self._futile_rounds = 0
        self._last_signature = None
        self._epoch += 1
        self._arm(JOIN_CLAIM_US, self._read_naming)

    # ------------------------------------------------------------------
    # Step 2: get onto the HWG
    # ------------------------------------------------------------------
    def _target(self, hwg: HwgId, mode: str) -> None:
        self._epoch += 1
        self.mode = mode
        self.target_hwg = hwg
        self.local.hwg = hwg
        endpoint = self.svc.ensure_hwg(hwg)
        if endpoint.state is EndpointState.MEMBER and endpoint.current_view is not None:
            self.on_hwg_ready()
            return
        # The service calls on_hwg_ready when the HWG view containing us
        # installs.  The safety timer below covers every wedge this can
        # hit in a churning system (a stale mapping pointing at an HWG
        # being drained, a record that switched away mid-join, ...): if
        # nothing happened after the stall window, restart from the
        # naming lookup with fresh information.
        stall_window = 2 * JOIN_CLAIM_US
        self._arm(stall_window, self._stalled)

    def _stalled(self) -> None:
        self.svc.trace("lwg_join_stalled_retry", lwg=self.lwg, target=self.target_hwg)
        self._read_naming()

    def on_hwg_ready(self) -> None:
        """We are now a member of the target HWG: run the LWG-level step.

        The manager only wakes live drivers that target the HWG.
        """
        if self._acted_epoch == self._epoch:
            return  # already acted for this target; timers drive retries
        self._acted_epoch = self._epoch
        if self.mode == "join":
            self._send_join_request()
        elif self.mode == "create":
            self._claim()

    # ------------------------------------------------------------------
    # Step 3: ask the LWG coordinator to admit us
    # ------------------------------------------------------------------
    def _send_join_request(self) -> None:
        assert self.target_hwg is not None
        request = LwgJoinReq(lwg=self.lwg, joiner=self.svc.node)
        self.svc.hwg_send(self.target_hwg, request)
        # If nothing materialises, the mapping may be stale: claim the LWG.
        self._arm(JOIN_CLAIM_US, self._claim_or_retry)

    def _claim_or_retry(self) -> None:
        directory = self.svc.table.dir_for(self.target_hwg)
        recorded = directory.views.get(self.lwg)
        if recorded is not None and self._has_admitter(recorded):
            # The LWG is alive here; the coordinator just hasn't admitted
            # us yet (e.g. mid-switch).  Ask again.
            self._send_join_request()
        elif recorded is not None:
            # The directory still records a view for the LWG, but none of
            # its members — other than ourselves — is in the HWG anymore:
            # nobody here can answer the join request, so resending loops
            # forever.  (Reachable when every other member crash-recovers
            # with a clean slate while we were forced out: the stale view
            # lists *us*, so member-pruning keeps it alive.)  Restart from
            # naming; repeated futile rounds bury the dead record and let
            # our claim through.
            self.svc.trace(
                "lwg_join_dead_directory", lwg=self.lwg, hwg=self.target_hwg
            )
            self._read_naming()
        else:
            self._claim()

    def _has_admitter(self, recorded: View) -> bool:
        """True while the recorded LWG view keeps a member other than us
        inside the target HWG's current view — someone who could still
        admit us.  Unknown HWG state counts as "keep asking"."""
        endpoint = self.svc.hwg_endpoint(self.target_hwg)
        if endpoint is None or endpoint.current_view is None:
            return True
        here = set(endpoint.current_view.members)
        return any(m != self.svc.node and m in here for m in recorded.members)

    # ------------------------------------------------------------------
    # Step 4: create (or re-create) the LWG on the target HWG
    # ------------------------------------------------------------------
    def _claim(self) -> None:
        assert self.target_hwg is not None
        endpoint = self.svc.hwg_endpoint(self.target_hwg)
        if endpoint is None or endpoint.current_view is None:
            self._acted_epoch = -1  # let the next HWG view re-fire us
            return
        self.mode = "create"
        view = View(
            group=self.lwg,
            view_id=ViewId(self.svc.node, self.svc.stack.next_view_seq()),
            members=(self.svc.node,),
            parents=(),
        )
        hwg_view = endpoint.current_view.view_id
        record = self.svc.mapping_record(self.lwg, view, self.target_hwg, hwg_view)
        claimed_epoch = self._epoch
        self.svc.naming.testset(
            record,
            parents=(),
            on_reply=lambda records: self._on_testset_reply(view, claimed_epoch, records),
        )

    def _on_testset_reply(
        self, proposed: View, epoch: int, records: Tuple[MappingRecord, ...]
    ) -> None:
        if self.done or epoch != self._epoch:
            return
        won = any(r.lwg_view == proposed.view_id for r in records)
        if won:
            self._on_created(self.local, proposed, self.target_hwg)
            return
        # Lost the creation race: follow whatever mapping won.
        self._on_ns_records(records)

    # ------------------------------------------------------------------
    # Events surfaced by the JoinLeaveManager
    # ------------------------------------------------------------------
    def on_redirect(self, to_hwg: HwgId) -> None:
        """A forward pointer told us the LWG switched to ``to_hwg``."""
        if self.done:
            return
        self.svc.trace("lwg_join_redirect", lwg=self.lwg, to=to_hwg)
        self._target(to_hwg, mode="join")

    def complete(self) -> None:
        """The LWG view including us was installed."""
        self.done = True
        self._cancel_timer()
        self.svc.trace("lwg_join_done", lwg=self.lwg, hwg=self.target_hwg)


class JoinLeaveManager:
    """One process's side of the join and leave protocols, for every LWG:
    the join drivers, the ordered view/join/leave/state/dissolve messages
    (as joiner, leaver, coordinator or bystander), the ``RedirectLwg``
    unicast and the announce tick.  A crash cancels every driver."""

    def __init__(self, service):
        self.svc = service
        #: lwg -> the driver of our join in progress.
        self.drivers: Dict[LwgId, JoinDriver] = {}

    def handlers(self) -> Dict[type, Callable]:
        return {
            LwgViewMsg: self.on_view_msg,
            LwgJoinReq: self.on_join_req,
            LwgLeaveReq: self.on_leave_req,
            LwgStateMsg: self.on_state,
            LwgDissolved: self.on_dissolved,
        }

    def reset(self) -> None:
        for driver in self.drivers.values():
            driver.cancel()
        self.drivers.clear()

    # -- joining ------------------------------------------------------------
    def join(self, local: LocalLwg) -> None:
        """Start (or restart) our join of ``local``'s LWG."""
        local.state = LwgState.JOINING
        driver = JoinDriver(self.svc, local, self.adopt_created_view)
        self.drivers[local.lwg] = driver
        driver.start()

    def adopt_created_view(self, local: LocalLwg, view: View, hwg: HwgId) -> None:
        """Our claim won the creation race: we are the founding member."""
        local.hwg = hwg
        self._complete_join(local, view, announce=True)

    def _complete_join(self, local: LocalLwg, view: View, announce: bool = False) -> None:
        svc = self.svc
        if view.parents and len(view.members) > 1:
            # Admitted into an existing group: the coordinator's state
            # snapshot follows in the same total order.  Buffer data for
            # this view until it arrives (with a timeout guard in case
            # the coordinator dies at exactly this moment).
            local.awaiting_state_for = view.view_id
            expected = view.view_id

            def give_up() -> None:
                if local.awaiting_state_for == expected:
                    svc.trace("state_transfer_timeout", lwg=local.lwg)
                    self.release_state_buffer(local)

            svc.stack.set_timer(LWG_JOIN_RETRY_US, give_up)
        svc.install_local_view(local, view, reason="join")
        driver = self.drivers.pop(local.lwg, None)
        if driver is not None:
            driver.complete()
        if announce:
            # Tell the HWG about the newborn LWG (directory + discovery).
            assert local.hwg is not None
            svc.hwg_send(local.hwg, LwgViewMsg(lwg=local.lwg, view=view, announce=True))
        if local.intent == "leave":
            local.intent = None
            self.leave(local)

    def forced_out(self, local: LocalLwg, hwg: HwgId) -> None:
        """The coordinator dropped us (it believed us dead): rejoin."""
        self.svc.trace("lwg_forced_out", lwg=local.lwg, hwg=hwg)
        self.svc.switching.abandon(local)
        local.view = None
        self.join(local)

    def on_hwg_ready(self, hwg: HwgId) -> None:
        """A view of ``hwg`` including us installed: wake its joiners."""
        for driver in list(self.drivers.values()):
            if driver.target_hwg == hwg:
                driver.on_hwg_ready()

    def on_redirect(self, src: str, msg: RedirectLwg) -> bool:
        driver = self.drivers.get(msg.lwg)
        if driver is not None:
            driver.on_redirect(msg.to_hwg)
        return True

    # -- state transfer -----------------------------------------------------
    def transfer_state(self, local: LocalLwg, old: Optional[View], view: View) -> None:
        """If ``view`` (replacing ``old``) admitted joiners and we coordinate
        it, multicast the state snapshot: this total-order position is
        exactly the joiners' admission point."""
        if old is None or view.parents != (old.view_id,) or view.members[0] != self.svc.node:
            return
        joiners = tuple(m for m in view.members if m not in old.members)
        if joiners:
            state = local.listener.get_state(local.lwg)
            snapshot = LwgStateMsg(
                lwg=local.lwg,
                view_id=view.view_id,
                targets=joiners,
                state=state,
                state_size=256 if state is not None else 0,
            )
            assert local.hwg is not None
            self.svc.hwg_send(local.hwg, snapshot)

    def on_state(self, hwg: HwgId, message: LwgStateMsg) -> None:
        local = self.svc.table.local(message.lwg)
        if (
            local is None
            or not local.is_member
            or local.hwg != hwg
            or local.awaiting_state_for != message.view_id
            or self.svc.node not in message.targets
        ):
            return
        if message.state is not None:
            local.listener.on_state(message.lwg, message.state)
        self.release_state_buffer(local)

    def release_state_buffer(self, local: LocalLwg) -> None:
        local.awaiting_state_for = None
        buffered, local.state_buffer = local.state_buffer, []
        for sender, payload, size in buffered:
            self.svc.stats.data_delivered += 1
            local.delivered += 1
            self.svc.trace(
                "lwg_data_delivered",
                lwg=local.lwg,
                view=str(local.view.view_id) if local.view else None,
                sender=sender,
            )
            local.listener.on_data(local.lwg, sender, payload, size)

    # -- leaving ------------------------------------------------------------
    def leave(self, local: LocalLwg) -> None:
        """Leave ``local``'s LWG, of which we are a member (async)."""
        svc = self.svc
        assert local.view is not None and local.hwg is not None
        if local.view.members == (svc.node,):
            # Last member: dissolve the LWG entirely.
            svc.hwg_send(local.hwg, LwgDissolved(lwg=local.lwg, view_id=local.view.view_id))
            endpoint = svc.hwg_endpoint(local.hwg)
            current = endpoint.current_view if endpoint is not None else None
            svc.tombstone_mapping(local, local.view, current.view_id if current else None)
            self._finish_leave(local)
            return
        local.state = LwgState.LEAVING
        self._send_leave_request(local)

    def _send_leave_request(self, local: LocalLwg) -> None:
        if local.state is not LwgState.LEAVING or local.hwg is None:
            return
        assert local.view is not None
        svc = self.svc
        svc.hwg_send(
            local.hwg,
            LwgLeaveReq(lwg=local.lwg, leaver=svc.node, view_id=local.view.view_id),
        )
        svc.stack.set_timer(LWG_JOIN_RETRY_US, lambda: self._send_leave_request(local))

    def _finish_leave(self, local: LocalLwg) -> None:
        self.svc.table.locals.pop(local.lwg, None)
        local.state = LwgState.IDLE
        self.svc.trace("lwg_left", lwg=local.lwg)
        local.listener.on_left(local.lwg)
        if local.intent == "join":
            self.svc.join(local.lwg, local.listener)

    def on_dissolved(self, hwg: HwgId, message: LwgDissolved) -> None:
        self.svc.table.dir_for(hwg).remove_lwg(message.lwg)

    # -- ordered LWG views --------------------------------------------------
    def on_view_msg(self, hwg: HwgId, message: LwgViewMsg) -> None:
        svc = self.svc
        view = message.view
        assert view is not None
        directory = svc.table.dir_for(hwg)
        # Keep an active merge round's collected set complete: ordered
        # view messages are common knowledge at the coming flush point.
        svc.merge_mgr.observe_view(hwg, view)
        # And lift any departure block: a view message delivered after a
        # SWITCH-COMMIT proves the view returned to this HWG.
        svc.merge_mgr.observe_view_msg(hwg, view.view_id)
        local = svc.table.local(view.group)
        if local is not None and local.view is not None and local.state in (
            LwgState.MEMBER,
            LwgState.LEAVING,
        ):
            current = local.view
            if view.view_id == current.view_id:
                if local.hwg == hwg:
                    # Our coordinator's (re-)announce on the HWG we map
                    # the view on: the view is alive.  An announce on a
                    # *different* HWG deliberately does not count — it
                    # means our mapping diverged from the coordinator's
                    # (e.g. a switch committed asymmetrically across a
                    # partition heal), which is exactly what the
                    # coordinator-silence backstop must detect.
                    local.last_coordinator_heard = svc.env.now
                directory.record_view(view)
                return
            if local.ancestors.is_stale(view.view_id):
                return
            if current.view_id in view.parents:
                # Direct successor of our view.
                directory.record_view(view)
                local.minted_head = None
                if svc.node in view.members:
                    svc.install_local_view(local, view, reason="progress")
                elif local.state is LwgState.LEAVING:
                    self._finish_leave(local)
                else:
                    self.forced_out(local, hwg)
                return
            # Neither our view, nor stale, nor a successor: concurrent.
            directory.record_view(view)
            if local.hwg == hwg and local.is_member:
                svc.merge_mgr.trigger(hwg, view.group)
            return
        if (
            local is not None
            and local.state is LwgState.JOINING
            and svc.node in view.members
            and local.hwg == hwg
        ):
            directory.record_view(view)
            self._complete_join(local, view)
            return
        # Pure observer (an HWG member with no stake in this LWG).
        directory.record_view(view)
        if svc.node in view.members and (local is None or local.state is LwgState.IDLE):
            # A merge of concurrent branches resurrected us into a group
            # we already left (a leave raced a partition or a merge).
            # Ask the coordinator to take us out again.
            svc.trace("ghost_eviction", lwg=view.group, view=str(view.view_id))
            svc.hwg_send(
                hwg,
                LwgLeaveReq(lwg=view.group, leaver=svc.node, view_id=view.view_id),
            )

    # -- join/leave requests (we may be the coordinator) --------------------
    def _acting_coordinator_of(self, local: Optional[LocalLwg], hwg: HwgId) -> bool:
        """True if we currently coordinate ``local``'s view on ``hwg``.

        A LEAVING coordinator still serves — it must process its own
        leave request (and any interleaved joins) until the view that
        excludes it installs, or the group wedges.
        """
        return (
            local is not None
            and local.state in (LwgState.MEMBER, LwgState.LEAVING)
            and local.view is not None
            and local.hwg == hwg
            and local.coordinator() == self.svc.node
            and local.switch_epoch is None
        )

    def _mint_successor(self, local: LocalLwg, hwg: HwgId, base: View, members) -> None:
        """Order, on ``hwg``, the successor of ``base`` with ``members``."""
        new_view = View(
            group=local.lwg,
            view_id=self.svc.mint_view_id(),
            members=members,
            parents=(base.view_id,),
        )
        local.minted_head = new_view
        self.svc.hwg_send(hwg, LwgViewMsg(lwg=local.lwg, view=new_view))

    def on_join_req(self, hwg: HwgId, message: LwgJoinReq) -> None:
        svc = self.svc
        if svc.merge_mgr.round_active(hwg):
            # No view minting during a merge round: the minted message
            # would land after the flush and diverge from the merge.
            svc.merge_mgr.defer(hwg, "join", message)
            return
        local = svc.table.local(message.lwg)
        directory = svc.table.dir_for(hwg)
        if self._acting_coordinator_of(local, hwg):
            assert local is not None
            base = local.minted_head or local.view
            assert base is not None
            if message.joiner not in base.members:  # else a duplicate request
                self._mint_successor(local, hwg, base, base.members + (message.joiner,))
            return
        forward = directory.forward.get(message.lwg)
        if forward is not None and message.joiner != svc.node:
            redirect = RedirectLwg(lwg=message.lwg, to_hwg=forward)
            svc.stack.send(message.joiner, redirect, redirect.size_bytes())

    def on_leave_req(self, hwg: HwgId, message: LwgLeaveReq) -> None:
        if self.svc.merge_mgr.round_active(hwg):
            self.svc.merge_mgr.defer(hwg, "leave", message)
            return
        local = self.svc.table.local(message.lwg)
        if not self._acting_coordinator_of(local, hwg):
            return
        assert local is not None
        base = local.minted_head or local.view
        assert base is not None
        if message.leaver not in base.members:
            return
        remaining = tuple(m for m in base.members if m != message.leaver)
        if remaining:  # sole-member leaves are handled locally as dissolution
            self._mint_successor(local, hwg, base, remaining)

    def replay_deferred(self, hwg: HwgId) -> None:
        """Replay the requests deferred during ``hwg``'s merge round."""
        for kind, message in self.svc.merge_mgr.take_deferred(hwg):
            if kind == "join":
                self.on_join_req(hwg, message)
            else:
                self.on_leave_req(hwg, message)

    def tick_announcements(self) -> None:
        """Periodic LWG view beacons (local peer discovery liveness).

        Each coordinator re-announces its current view on its HWG.  A
        member of a concurrent co-mapped view that hears it triggers the
        Figure-5 merge — even when the groups carry no data traffic.
        """
        svc = self.svc
        for local in svc.table.coordinated_lwgs(svc.node):
            if local.switch_epoch is not None or local.hwg is None:
                continue
            if svc.merge_mgr.round_active(local.hwg):
                continue
            assert local.view is not None
            svc.hwg_send(
                local.hwg,
                LwgViewMsg(lwg=local.lwg, view=local.view, announce=True),
            )
        # Coordinator-silence backstop: a member whose coordinator has
        # gone quiet for several announce periods is holding an
        # abandoned view (the coordinator adopted a different lineage
        # via a racing switch or an asymmetric partition-heal merge, so
        # it will never announce — or tombstone — this one).  The HWG
        # layer cannot flag it: the coordinator is alive and still an
        # HWG member.  Rejoin through the naming service.
        now = svc.env.now
        for local in list(svc.table.locals.values()):
            if (
                not local.is_member
                or local.switch_epoch is not None
                or local.hwg is None
                or local.coordinator() == svc.node
            ):
                continue
            if now - local.last_coordinator_heard >= COORDINATOR_SILENCE_US:
                svc.trace(
                    "coordinator_silence",
                    lwg=local.lwg,
                    hwg=local.hwg,
                    view=str(local.view.view_id) if local.view else None,
                )
                self.forced_out(local, local.hwg)
