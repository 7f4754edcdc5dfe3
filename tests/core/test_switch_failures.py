"""Failure paths of the switch protocol: aborts, crashes mid-switch."""

import pytest

from repro.core import LwgConfig, LwgListener, switching
from repro.core.messages import SwitchCommit
from repro.sim import SECOND
from repro.workloads import Cluster


def converged(handles, size):
    views = [h.view for h in handles]
    return (
        all(v is not None for v in views)
        and len({v.view_id for v in views}) == 1
        and all(len(v.members) == size for v in views)
    )


@pytest.fixture
def manual_cluster(monkeypatch):
    """Clusters with the policies off and a 2 s switch timeout."""
    monkeypatch.setattr(switching, "SWITCH_TIMEOUT_US", 2 * SECOND)

    def build(n, seed):
        config = LwgConfig()
        config.enable_policies = False
        return Cluster(num_processes=n, seed=seed, lwg_config=config)

    return build


def test_member_crash_mid_switch_still_completes_for_survivors(manual_cluster):
    cluster = manual_cluster(4, seed=91)
    handles = [cluster.service(i).join("g") for i in range(3)]
    assert cluster.run_until(lambda: converged(handles, 3), timeout_us=15 * SECOND)
    local = cluster.service(0).table.local("lwg:g")
    cluster.service(0).start_switch(local, None, reason="test")
    old_hwg = handles[0].hwg
    # One member dies while everyone is joining the target HWG.
    cluster.crash(2)
    assert cluster.run_until(
        lambda: handles[0].hwg != old_hwg
        and handles[1].hwg == handles[0].hwg
        and converged(handles[:2], 2),
        timeout_us=30 * SECOND,
    ), (handles[0].hwg, handles[1].hwg, handles[0].view)


def test_switch_coordinator_crash_releases_members(manual_cluster):
    """A dead switch coordinator must not wedge the members: the stale
    switch state clears, and the restricted group keeps working."""
    cluster = manual_cluster(4, seed=92)
    recorders = []

    class Recorder(LwgListener):
        def __init__(self):
            self.data = []
            recorders.append(self)

        def on_data(self, lwg, src, payload, size):
            self.data.append(payload)

    handles = [cluster.service(i).join("g", Recorder()) for i in range(3)]
    assert cluster.run_until(lambda: converged(handles, 3), timeout_us=15 * SECOND)
    coordinator = handles[0].view.members[0]
    coordinator_index = int(coordinator[1:])
    local = cluster.service(coordinator_index).table.local("lwg:g")
    cluster.service(coordinator_index).start_switch(local, None, reason="test")
    cluster.run_for(100_000)  # SwitchStart is out; members are switching
    cluster.crash(coordinator_index)
    survivors = [h for i, h in enumerate(handles) if i != coordinator_index]
    assert cluster.run_until(
        lambda: converged(survivors, 2), timeout_us=40 * SECOND
    )
    # Traffic flows again after the stale-switch guard clears.
    sender = survivors[0]
    assert cluster.run_until(
        lambda: sender.is_member
        and cluster.service(int(sender.view.members[0][1:])) is not None,
        timeout_us=10 * SECOND,
    )
    sender.send("after-recovery")
    assert cluster.run_until(
        lambda: any("after-recovery" in r.data for r in recorders),
        timeout_us=20 * SECOND,
    )


def test_switch_to_partitioned_target_founds_concurrent_view_then_merges(manual_cluster):
    """A target HWG across a partition is not "unreachable" — joining it
    founds a concurrent view on our side (partitionable semantics), the
    switch commits onto that view, and the heal merges the HWG."""
    cluster = manual_cluster(5, seed=93)
    handles = [cluster.service(i).join("g") for i in range(2)]
    other = [cluster.service(i).join("other") for i in (3, 4)]
    assert cluster.run_until(
        lambda: converged(handles, 2) and converged(other, 2),
        timeout_us=15 * SECOND,
    )
    target_hwg = other[0].hwg
    cluster.partition(["p0", "p1", "ns0"], ["p3", "p4", "ns1"])
    cluster.run_for_seconds(1)
    local = cluster.service(0).table.local("lwg:g")
    cluster.service(0).start_switch(local, target_hwg, reason="test")
    assert cluster.run_until(
        lambda: handles[0].hwg == target_hwg and converged(handles, 2),
        timeout_us=20 * SECOND,
    )
    # Our side's view of the target HWG is concurrent with p3/p4's.
    ours = cluster.stack(0).endpoints[target_hwg].current_view
    theirs = cluster.stack(3).endpoints[target_hwg].current_view
    assert ours.view_id != theirs.view_id
    # After the heal, the HWG views merge into one 4-member view.
    cluster.heal()
    assert cluster.run_until(
        lambda: len(cluster.stack(0).endpoints[target_hwg].current_view.members) == 4,
        timeout_us=30 * SECOND,
    )
    # Both LWGs still work on the merged HWG.
    assert converged(handles, 2) and converged(other, 2)


def test_switch_driver_aborts_on_timeout():
    """Unit-level: a driver whose members never report ready gives up."""
    from repro.core.switching import SwitchDriver
    from repro.vsync.view import View, ViewId

    sent = []

    class FakeService:
        node = "p0"

        class stack:  # noqa: N801 - minimal stub
            @staticmethod
            def set_timer(delay, callback):
                sent.append(("timer", delay, callback))

                class H:
                    @staticmethod
                    def cancel():
                        pass

                return H()

        @staticmethod
        def hwg_send(hwg, message):
            sent.append((hwg, message))

        @staticmethod
        def mint_hwg_id():
            return "hwg:fresh"

        @staticmethod
        def trace(event, **fields):
            pass

    class FakeLocal:
        lwg = "lwg:g"
        hwg = "hwg:old"
        view = View("lwg:g", ViewId("p0", 1), ("p0", "p1"))

    # The epoch is minted by the SwitchManager and handed to the driver.
    driver = SwitchDriver(FakeService(), FakeLocal(), None, reason="unit", epoch=7)
    driver.start()
    assert driver.to_hwg == "hwg:fresh"
    # Fire the timeout manually.
    timer = [entry for entry in sent if entry[0] == "timer"][0]
    timer[2]()
    assert driver.aborted and driver.finished
    from repro.core.messages import SwitchAbort

    aborts = [entry[1] for entry in sent
              if len(entry) == 2 and isinstance(entry[1], SwitchAbort)]
    assert len(aborts) == 1
    assert aborts[0].epoch == 7
    # A member's ready report that arrives after the abort changes nothing.
    from repro.core.messages import SwitchReady

    driver.on_ready(SwitchReady(lwg="lwg:g", to_hwg="hwg:fresh", member="p1", epoch=7))
    assert driver.ready == set()


def test_coordinator_forced_out_mid_switch_aborts_it_for_the_members(manual_cluster):
    """A coordinator dropped from its LWG view while it drives a switch
    aborts the switch first, so the members resume on the old HWG."""
    cluster = manual_cluster(3, seed=94)
    handles = [cluster.service(i).join("g") for i in range(3)]
    assert cluster.run_until(lambda: converged(handles, 3), timeout_us=15 * SECOND)
    coordinator = int(handles[0].view.members[0][1:])
    service = cluster.service(coordinator)
    local = service.table.local("lwg:g")
    old_hwg = local.hwg
    service.start_switch(local, None, reason="test")
    cluster.run_for(100_000)  # members have the SwitchStart
    members = [cluster.service(i).table.local("lwg:g") for i in range(3) if i != coordinator]
    assert all(m.switch_epoch is not None for m in members)
    service.join_leave.forced_out(local, old_hwg)
    aborts = cluster.env.tracer.select("lwg", "switch_abort")
    assert [r.fields["why"] for r in aborts] == ["coordinator reset"]
    assert not service.switching.drivers
    assert cluster.run_until(
        lambda: all(m.switch_epoch is None and m.hwg == old_hwg for m in members),
        timeout_us=SECOND,
    )


def test_commit_after_the_stale_guard_gave_up_still_moves_the_member(manual_cluster):
    """The member's stale guard resumed on the old HWG, but the commit for
    its current view is the cut everyone else moved at: follow it."""
    cluster = manual_cluster(2, seed=95)
    handles = [cluster.service(i).join("g") for i in range(2)]
    assert cluster.run_until(lambda: converged(handles, 2), timeout_us=15 * SECOND)
    member = cluster.service(1)
    local = member.table.local("lwg:g")
    old_hwg = local.hwg
    assert local.switch_epoch is None
    commit = SwitchCommit(lwg="lwg:g", view_id=local.view.view_id, to_hwg="hwg:moved", epoch=3)
    member.switching.on_commit(old_hwg, commit)
    assert local.hwg == "hwg:moved"
    late = cluster.env.tracer.select("lwg", "switch_commit_late")
    assert [r.fields["to_hwg"] for r in late] == ["hwg:moved"]
    assert member.table.dir_for(old_hwg).forward["lwg:g"] == "hwg:moved"
