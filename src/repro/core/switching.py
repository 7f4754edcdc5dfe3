"""The switching protocol: re-mapping an LWG between HWGs at run time.

The switch is the run-time corrective of the dynamic service (triggered
by the Figure-1 rules) *and* the reconciliation mechanism of Section 6.2
(triggered by MULTIPLE-MAPPINGS callbacks).  It preserves the LWG's
virtual synchrony by using the old HWG's total order as the cut:

1. ``SwitchStart`` (ordered on the old HWG) — members suspend new LWG
   sends (buffering them) and join the target HWG;
2. each member multicasts ``SwitchReady`` (on the old HWG) once its
   membership of the target HWG is installed;
3. when every member is ready, the coordinator multicasts
   ``SwitchCommit`` — totally ordered, so every member cuts over after
   delivering exactly the same set of LWG messages.  Remaining old-HWG
   members install a *forward pointer*; buffered sends flow on the new
   HWG; the coordinator re-registers the mapping in the naming service.

Crucially the LWG *view identifier does not change* across a switch —
Table 4 (stage 3) shows ``lwg_a`` and ``lwg'_a`` keeping their ids while
moving onto ``hwg''_1``.  Only the view-to-view mapping is rewritten.

A switch that cannot complete (member crash, target unreachable) is
aborted by the coordinator after a timeout; members also clear stale
switch state on their own timer so a dead coordinator cannot wedge them.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set

from ..naming.records import HwgId, LwgId
from ..sim.engine import SECOND
from ..vsync.membership import EndpointState
from .mapping_table import LocalLwg, LwgState
from .messages import LwgViewMsg, SwitchAbort, SwitchCommit, SwitchReady, SwitchStart

#: How long the coordinator waits for every member to reach the target
#: HWG before aborting the switch; members drop stale switch state after
#: twice this.
SWITCH_TIMEOUT_US = 5 * SECOND


class SwitchDriver:
    """Coordinator-side state machine for one switch of one LWG."""

    def __init__(self, service, local: LocalLwg, to_hwg: Optional[HwgId], reason: str, epoch: int):
        self.svc = service
        self.local = local
        self.lwg: LwgId = local.lwg
        assert local.view is not None and local.hwg is not None
        self.from_hwg: HwgId = local.hwg
        self.to_hwg: HwgId = to_hwg or service.mint_hwg_id()
        self.reason = reason
        self.epoch = epoch
        self.ready: Set[str] = set()
        self.committed = False
        self.aborted = False
        self._timer = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.svc.trace(
            "switch_start",
            lwg=self.lwg,
            from_hwg=self.from_hwg,
            to_hwg=self.to_hwg,
            reason=self.reason,
            epoch=self.epoch,
        )
        assert self.local.view is not None
        message = SwitchStart(
            lwg=self.lwg,
            view_id=self.local.view.view_id,
            from_hwg=self.from_hwg,
            to_hwg=self.to_hwg,
            epoch=self.epoch,
        )
        self.svc.hwg_send(self.from_hwg, message)
        self._timer = self.svc.stack.set_timer(SWITCH_TIMEOUT_US, self._timeout)

    def _timeout(self) -> None:
        if not self.committed and not self.aborted:
            self.abort("timeout")

    def abort(self, why: str) -> None:
        """Give up: members resume LWG traffic on the old HWG."""
        self.aborted = True
        if self._timer is not None:
            self._timer.cancel()
        self.svc.trace("switch_abort", lwg=self.lwg, epoch=self.epoch, why=why)
        # A forced-out coordinator aborts before its view is reset
        # (``SwitchManager.abandon``), so the view is still readable.
        assert self.local.view is not None
        self.svc.hwg_send(
            self.from_hwg,
            SwitchAbort(lwg=self.lwg, view_id=self.local.view.view_id, epoch=self.epoch),
        )

    # ------------------------------------------------------------------
    # Events (routed by the SwitchManager from ordered old-HWG traffic)
    # ------------------------------------------------------------------
    def on_ready(self, message: SwitchReady) -> None:
        if message.epoch != self.epoch or self.committed or self.aborted:
            return
        self.ready.add(message.member)
        self._check_complete()

    def on_lwg_view_changed(self) -> None:
        """The LWG view shrank mid-switch (restriction): recheck readiness."""
        if not self.committed and not self.aborted:
            self._check_complete()

    def _check_complete(self) -> None:
        assert self.local.view is not None  # reset only after abandon()
        needed = set(self.local.view.members)
        if needed <= self.ready:
            self.committed = True
            if self._timer is not None:
                self._timer.cancel()
            self.svc.hwg_send(
                self.from_hwg,
                SwitchCommit(
                    lwg=self.lwg,
                    view_id=self.local.view.view_id,
                    to_hwg=self.to_hwg,
                    epoch=self.epoch,
                ),
            )

    @property
    def finished(self) -> bool:
        return self.committed or self.aborted


def _clear_switch_state(local: LocalLwg) -> None:
    """Drop ``local``'s switch-in-flight markers."""
    local.switch_epoch = None
    local.switch_target = None
    local.switch_ready_epoch = None


class SwitchManager:
    """One process's side of the switch protocol, for every LWG: the
    drivers of the switches it coordinates, and the member's reaction to
    the four ordered switch messages.  A crash drops the drivers without
    aborting them; the epoch counter survives it, so a switch started
    after recovery never reuses an epoch."""

    def __init__(self, service):
        self.svc = service
        #: lwg -> the driver of the switch we coordinate for it.
        self.drivers: Dict[LwgId, SwitchDriver] = {}
        self._epoch_counter = 0

    def handlers(self) -> Dict[type, Callable]:
        return {
            SwitchStart: self.on_start,
            SwitchReady: self.on_ready,
            SwitchCommit: self.on_commit,
            SwitchAbort: self.on_abort,
        }

    def reset(self) -> None:
        self.drivers.clear()

    def start(self, local: LocalLwg, to_hwg: Optional[HwgId], reason: str) -> None:
        """Begin switching ``local`` to ``to_hwg`` (None mints a fresh HWG)."""
        svc = self.svc
        if (
            not local.is_member
            or local.switch_epoch is not None
            or local.lwg in self.drivers
            or local.coordinator() != svc.node
        ):
            return
        self._epoch_counter += 1
        driver = SwitchDriver(svc, local, to_hwg, reason, self._epoch_counter)
        self.drivers[local.lwg] = driver
        svc.stats.switches_started += 1
        svc.ensure_hwg(driver.to_hwg)
        driver.start()

    def abandon(self, local: LocalLwg) -> None:
        """We were forced out of ``local``'s LWG: a switch in flight cannot
        survive the reset.  Abort it while the view is still readable (the
        SwitchAbort unblocks the other members) and clear our markers."""
        driver = self.drivers.pop(local.lwg, None)
        if driver is not None and not driver.finished:
            driver.abort("coordinator reset")
        _clear_switch_state(local)

    def on_view_installed(self, local: LocalLwg) -> None:
        driver = self.drivers.get(local.lwg)
        if driver is not None:
            driver.on_lwg_view_changed()

    def on_hwg_view(self, hwg: HwgId) -> None:
        """Members waiting to reach their target HWG: maybe ready now."""
        for local in list(self.svc.table.locals.values()):
            if local.switch_target == hwg:
                self._check_ready(local)

    # -- ordered messages on the old HWG -------------------------------------
    def on_start(self, hwg: HwgId, message: SwitchStart) -> None:
        svc = self.svc
        # Ordered at every HWG member: mark the view switch-in-flight so
        # a concurrent merge round excludes it (see MergeManager).
        svc.merge_mgr.observe_switch_start(hwg, message.view_id)
        local = svc.table.local(message.lwg)
        if (
            local is None
            or not local.is_member
            or local.hwg != hwg
            or local.view is None
            or local.view.view_id != message.view_id
        ):
            return
        local.switch_epoch = message.epoch
        local.switch_target = message.to_hwg
        svc.ensure_hwg(message.to_hwg)
        epoch = message.epoch

        def stale_guard() -> None:
            # A dead switch coordinator must not wedge us forever.
            if local.switch_epoch == epoch:
                svc.trace("switch_stale_guard", lwg=local.lwg, epoch=epoch)
                self._resume(local)

        svc.stack.set_timer(2 * SWITCH_TIMEOUT_US, stale_guard)
        self._check_ready(local)

    def _check_ready(self, local: LocalLwg) -> None:
        """``local`` is mid-switch (both callers checked it)."""
        if local.switch_ready_epoch == local.switch_epoch:
            return
        svc = self.svc
        endpoint = svc.hwg_endpoint(local.switch_target)
        if (
            endpoint is None
            or endpoint.state is not EndpointState.MEMBER
            or endpoint.current_view is None
            or svc.node not in endpoint.current_view.members
        ):
            return
        assert local.view is not None and local.hwg is not None
        local.switch_ready_epoch = local.switch_epoch
        svc.hwg_send(
            local.hwg,
            SwitchReady(
                lwg=local.lwg,
                view_id=local.view.view_id,
                to_hwg=local.switch_target,
                member=svc.node,
                epoch=local.switch_epoch,
            ),
        )

    def on_ready(self, hwg: HwgId, message: SwitchReady) -> None:
        driver = self.drivers.get(message.lwg)
        if driver is not None:
            driver.on_ready(message)

    def on_commit(self, hwg: HwgId, message: SwitchCommit) -> None:
        svc = self.svc
        # Ordered cut: the view left this HWG — no merge round here may
        # ever include it again (see MergeManager serialisation note).
        svc.merge_mgr.observe_switch_commit(hwg, message.view_id)
        local = svc.table.local(message.lwg)
        directory = svc.table.dir_for(hwg)
        # A commit whose epoch we no longer track can still bind us: if
        # our stale guard gave up on a slow (not dead) switch
        # coordinator and resumed on the old HWG, the commit for our
        # *current* view arriving afterwards is the real cut — it is
        # totally ordered on this HWG, and the other members moved at
        # it.  Ignoring it would strand us on an HWG where nobody
        # listens to this LWG anymore (and the naming record of our
        # branch is garbage-collected once the movers merge, so no
        # MULTIPLE-MAPPINGS conflict would ever pull us back).
        late_commit = (
            local is not None
            and local.switch_epoch is None
            and local.view is not None
            and local.view.view_id == message.view_id
        )
        if not (
            local is not None
            and local.state in (LwgState.MEMBER, LwgState.LEAVING)
            and local.hwg == hwg
            and (local.switch_epoch == message.epoch or late_commit)
        ):
            # Pure observer on the old HWG: install the forward pointer.
            directory.remove_lwg(message.lwg, forward_to=message.to_hwg)
            return
        if late_commit:
            svc.trace(
                "switch_commit_late",
                lwg=message.lwg,
                to_hwg=message.to_hwg,
                epoch=message.epoch,
            )
        local.hwg = message.to_hwg
        _clear_switch_state(local)
        directory.remove_lwg(message.lwg, forward_to=message.to_hwg)
        if local.view is not None:
            svc.table.dir_for(message.to_hwg).record_view(local.view)
        svc.trace(
            "switch_committed",
            lwg=message.lwg,
            from_hwg=hwg,
            to_hwg=message.to_hwg,
        )
        if local.pending_sends:
            svc.release_pending_sends(local)
        if local.coordinator() == svc.node:
            svc.stats.switches_committed += 1
            svc.register_mapping(local)
            assert local.view is not None
            svc.hwg_send(
                message.to_hwg,
                LwgViewMsg(lwg=message.lwg, view=local.view, announce=True),
            )
            self.drivers.pop(message.lwg, None)

    def on_abort(self, hwg: HwgId, message: SwitchAbort) -> None:
        self.svc.merge_mgr.observe_switch_abort(hwg, message.view_id)
        local = self.svc.table.local(message.lwg)
        if local is not None and local.switch_epoch == message.epoch:
            self._resume(local)
        driver = self.drivers.get(message.lwg)
        if driver is not None and driver.epoch == message.epoch:
            self.svc.stats.switches_aborted += 1
            del self.drivers[message.lwg]

    def _resume(self, local: LocalLwg) -> None:
        """Abort path: resume LWG traffic on the old HWG, releasing any
        sends buffered while the switch was in flight."""
        _clear_switch_state(local)
        if local.is_member and local.pending_sends:
            self.svc.release_pending_sends(local)
