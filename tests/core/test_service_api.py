"""Tests for the service's introspection and lifecycle conveniences."""

from repro.core import LwgListener
from repro.sim import SECOND
from repro.workloads import Cluster


class Recorder(LwgListener):
    def __init__(self):
        self.lefts = 0

    def on_left(self, lwg):
        self.lefts += 1


def converged(handles, size):
    views = [h.view for h in handles]
    return (
        all(v is not None for v in views)
        and len({v.view_id for v in views}) == 1
        and all(len(v.members) == size for v in views)
    )


def test_groups_and_members():
    cluster = Cluster(num_processes=2, seed=131)
    a = [cluster.service(i).join("alpha") for i in range(2)]
    b = [cluster.service(0).join("beta")]
    assert cluster.run_until(
        lambda: converged(a, 2) and converged(b, 1), timeout_us=15 * SECOND
    )
    service = cluster.service(0)
    assert service.groups() == ["lwg:alpha", "lwg:beta"]
    assert set(service.members("alpha")) == {"p0", "p1"}
    assert service.members("beta") == ("p0",)
    assert service.members("nonexistent") == ()


def test_describe_reports_roles():
    cluster = Cluster(num_processes=2, seed=132)
    handles = [cluster.service(i).join("g") for i in range(2)]
    assert cluster.run_until(lambda: converged(handles, 2), timeout_us=15 * SECOND)
    description = cluster.service(0).describe()
    entry = description["lwg:g"]
    assert entry["state"] == "member"
    assert set(entry["members"]) == {"p0", "p1"}
    assert entry["hwg"].startswith("hwg:")
    assert entry["switching"] is False
    coordinators = [
        cluster.service(i).describe()["lwg:g"]["coordinator"] for i in range(2)
    ]
    assert coordinators.count(True) == 1


def test_shutdown_leaves_everything():
    cluster = Cluster(num_processes=2, seed=133)
    recorder = Recorder()
    a = [cluster.service(i).join("alpha") for i in range(2)]
    cluster.service(0).join("beta", recorder)
    assert cluster.run_until(lambda: converged(a, 2), timeout_us=15 * SECOND)
    cluster.run_for_seconds(2)
    cluster.service(0).shutdown()
    assert cluster.run_until(
        lambda: cluster.service(0).groups() == [], timeout_us=20 * SECOND
    )
    # The remaining member of alpha continues alone.
    assert cluster.run_until(
        lambda: cluster.service(1).members("alpha") == ("p1",),
        timeout_us=15 * SECOND,
    )


def test_leave_during_join_runs_once_the_join_completes():
    cluster = Cluster(num_processes=3, seed=134)
    handles = [cluster.service(i).join("g") for i in range(2)]
    assert cluster.run_until(lambda: converged(handles, 2), timeout_us=15 * SECOND)
    recorder = Recorder()
    cluster.service(2).join("g", recorder)
    cluster.service(2).leave("g")  # the join is still in flight
    assert cluster.run_until(
        lambda: recorder.lefts == 1 and converged(handles, 2),
        timeout_us=20 * SECOND,
    )
    cluster.run_for_seconds(3)
    assert cluster.service(2).groups() == []
    assert set(cluster.service(0).members("g")) == {"p0", "p1"}
    assert recorder.lefts == 1


def test_join_during_leave_rejoins_once_the_leave_completes():
    cluster = Cluster(num_processes=3, seed=135)
    recorder = Recorder()
    handles = [cluster.service(i).join("g") for i in range(2)]
    handles.append(cluster.service(2).join("g", recorder))
    assert cluster.run_until(lambda: converged(handles, 3), timeout_us=15 * SECOND)
    cluster.service(2).leave("g")
    cluster.service(2).join("g", recorder)  # the leave is still in flight
    assert cluster.run_until(
        lambda: recorder.lefts == 1 and converged(handles, 3),
        timeout_us=20 * SECOND,
    )
    assert cluster.service(2).groups() == ["lwg:g"]


def test_leave_of_a_group_never_joined_is_a_no_op():
    cluster = Cluster(num_processes=1, seed=136)
    service = cluster.service(0)
    service.leave("never-joined")
    assert service.groups() == [] and service.table.locals == {}


def test_join_racing_the_shrink_leave_of_its_hwg_rejoins_the_hwg():
    """The shrink rule is leaving an idle HWG when a join targets it again:
    the join waits for the leave to finish, then joins the HWG anew."""
    cluster = Cluster(num_processes=2, seed=137)
    recorder = Recorder()
    handles = [cluster.service(0).join("g"), cluster.service(1).join("g", recorder)]
    assert cluster.run_until(lambda: converged(handles, 2), timeout_us=15 * SECOND)
    service, hwg = cluster.service(1), handles[1].hwg
    service.leave("g")
    assert cluster.run_until(lambda: recorder.lefts == 1, timeout_us=10 * SECOND)
    service._leave_hwg_if_unused(hwg)  # the shrink rule's action
    handle = service.join("g", recorder)
    assert cluster.run_until(
        lambda: converged([handles[0], handle], 2), timeout_us=15 * SECOND
    )
    assert handle.hwg == hwg and not service._rejoin_after_leave
    # The endpoint joined the HWG anew at the instant it finished leaving.
    left = [r.time for r in cluster.env.tracer.select("hwg", "left") if r.fields["node"] == "p1"]
    joined = [
        r.time for r in cluster.env.tracer.select("hwg", "join_start")
        if r.fields["node"] == "p1" and r.time >= left[-1]
    ]
    assert joined[0] == left[-1]


def test_mapping_registration_needs_a_view_and_a_view_of_its_hwg(monkeypatch):
    cluster = Cluster(num_processes=1, seed=138)
    handle = cluster.service(0).join("g")
    assert cluster.run_until(lambda: handle.view is not None, timeout_us=10 * SECOND)
    service = cluster.service(0)
    local = service.table.local("lwg:g")
    written = []
    monkeypatch.setattr(service.naming, "set", lambda record, parents=(): written.append(record))
    view, hwg = local.view, local.hwg
    local.view = None
    service.register_mapping(local)
    local.view, local.hwg = view, "hwg:not-a-member"
    service.register_mapping(local)
    local.hwg = hwg
    service.register_mapping(local)
    assert [(r.lwg_view, r.hwg) for r in written] == [(view.view_id, hwg)]
