"""Integration tests of the dynamic LWG service on a live cluster."""

from repro.core import LwgListener
from repro.core.service import LwgService
from repro.runtime import trace
from repro.sim import SECOND
from repro.workloads import Cluster


class Recorder(LwgListener):
    def __init__(self):
        self.views = []
        self.data = []
        self.lefts = 0

    def on_view(self, lwg, view):
        self.views.append(view)

    def on_data(self, lwg, src, payload, size):
        self.data.append((src, payload))

    def on_left(self, lwg):
        self.lefts += 1


def converged_lwg(handles, size):
    views = [h.view for h in handles]
    if any(v is None for v in views):
        return False
    return len({v.view_id for v in views}) == 1 and all(
        len(v.members) == size for v in views
    )


def test_single_join_creates_lwg_and_hwg():
    cluster = Cluster(num_processes=1, seed=1)
    recorder = Recorder()
    handle = cluster.service(0).join("solo", recorder)
    cluster.run_for_seconds(3)
    assert handle.is_member
    assert handle.view.members == ("p0",)
    assert handle.hwg is not None and handle.hwg.startswith("hwg:")
    assert recorder.views


def test_four_members_converge_to_one_view():
    cluster = Cluster(num_processes=4, seed=2)
    handles = [cluster.service(i).join("g") for i in range(4)]
    assert cluster.run_until(lambda: converged_lwg(handles, 4), timeout_us=10 * SECOND)


def fast_policies():
    from repro.core import LwgConfig

    config = LwgConfig()
    config.policy_period_us = 2 * SECOND
    return config


def test_staggered_lwgs_reuse_existing_hwg():
    """The optimistic rule: a new LWG maps onto an existing HWG."""
    cluster = Cluster(num_processes=3, seed=3)
    first = [cluster.service(i).join("g1") for i in range(3)]
    assert cluster.run_until(lambda: converged_lwg(first, 3), timeout_us=10 * SECOND)
    second = [cluster.service(i).join("g2") for i in range(3)]
    assert cluster.run_until(lambda: converged_lwg(second, 3), timeout_us=10 * SECOND)
    assert second[0].hwg == first[0].hwg


def test_share_rule_collapses_simultaneously_created_hwgs():
    """Racing creations mint several HWGs with identical membership; the
    share rule must collapse them into one."""
    cluster = Cluster(num_processes=3, seed=3, lwg_config=fast_policies())
    groups = ["g1", "g2", "g3"]
    handles = {}
    for group in groups:
        for i in range(3):
            handles[(group, i)] = cluster.service(i).join(group)
    assert cluster.run_until(
        lambda: len({handles[(g, i)].hwg for g in groups for i in range(3)}) == 1
        and all(converged_lwg([handles[(g, i)] for i in range(3)], 3) for g in groups),
        timeout_us=30 * SECOND,
    ), {handles[(g, 0)].hwg for g in groups}


def test_data_delivered_to_members_in_order():
    cluster = Cluster(num_processes=3, seed=4)
    recorders = [Recorder() for _ in range(3)]
    handles = [cluster.service(i).join("g", recorders[i]) for i in range(3)]
    assert cluster.run_until(lambda: converged_lwg(handles, 3), timeout_us=10 * SECOND)
    handles[0].send("one")
    handles[1].send("two")
    handles[2].send("three")
    cluster.run_for_seconds(2)
    sequences = {tuple(r.data) for r in recorders}
    assert len(sequences) == 1
    assert len(next(iter(sequences))) == 3


def test_data_filtered_for_non_members():
    """Messages of a co-mapped LWG must not reach non-member processes'
    listeners — but they do arrive at their LWG layer (interference)."""
    cluster = Cluster(num_processes=3, seed=5)
    r_g = [Recorder() for _ in range(3)]
    g_handles = [cluster.service(i).join("g", r_g[i]) for i in range(3)]
    assert cluster.run_until(lambda: converged_lwg(g_handles, 3), timeout_us=10 * SECOND)
    r_h = Recorder()
    # "h" has members p0, p1 only, but shares the HWG with "g".
    h0 = cluster.service(0).join("h", r_h)
    h1 = cluster.service(1).join("h")
    cluster.run_for_seconds(8)
    assert h0.hwg == g_handles[0].hwg  # co-mapped
    h0.send("h-only")
    cluster.run_for_seconds(2)
    assert ("p0", "h-only") in r_h.data
    assert all(("p0", "h-only") not in r.data for r in r_g)
    # p2 paid the filtering cost at the LWG layer.
    assert cluster.service(2).stats.data_filtered >= 1


def test_leave_removes_member_from_view():
    cluster = Cluster(num_processes=3, seed=6)
    recorders = [Recorder() for _ in range(3)]
    handles = [cluster.service(i).join("g", recorders[i]) for i in range(3)]
    assert cluster.run_until(lambda: converged_lwg(handles, 3), timeout_us=10 * SECOND)
    handles[2].leave()
    assert cluster.run_until(
        lambda: recorders[2].lefts == 1 and converged_lwg(handles[:2], 2),
        timeout_us=10 * SECOND,
    )
    assert "p2" not in handles[0].view.members


def test_last_leave_dissolves_lwg_and_tombstones_naming():
    cluster = Cluster(num_processes=1, seed=7)
    recorder = Recorder()
    handle = cluster.service(0).join("g", recorder)
    cluster.run_for_seconds(3)
    cluster.service(0).leave("g")
    cluster.run_for_seconds(2)
    assert recorder.lefts == 1
    server = cluster.name_servers["ns0"]
    assert server.db.live_records("lwg:g") == []


def test_rejoin_after_leave():
    cluster = Cluster(num_processes=2, seed=8)
    handles = [cluster.service(i).join("g") for i in range(2)]
    assert cluster.run_until(lambda: converged_lwg(handles, 2), timeout_us=10 * SECOND)
    cluster.service(1).leave("g")
    cluster.run_for_seconds(3)
    handles[1] = cluster.service(1).join("g")
    assert cluster.run_until(lambda: converged_lwg(handles, 2), timeout_us=10 * SECOND)


def test_send_before_join_is_buffered():
    cluster = Cluster(num_processes=2, seed=9)
    recorders = [Recorder(), Recorder()]
    handles = [cluster.service(i).join("g", recorders[i]) for i in range(2)]
    handles[0].send("early")
    assert cluster.run_until(lambda: converged_lwg(handles, 2), timeout_us=10 * SECOND)
    cluster.run_for_seconds(2)
    assert any(p == "early" for _, p in recorders[0].data)


def test_send_without_join_raises():
    cluster = Cluster(num_processes=1, seed=10)
    try:
        cluster.service(0).send("never-joined", "x")
        raised = False
    except RuntimeError:
        raised = True
    assert raised


def test_coordinator_registers_mapping_in_naming_service():
    cluster = Cluster(num_processes=2, seed=11)
    handles = [cluster.service(i).join("g") for i in range(2)]
    assert cluster.run_until(lambda: converged_lwg(handles, 2), timeout_us=10 * SECOND)
    cluster.run_for_seconds(1)
    records = cluster.name_servers["ns0"].db.live_records("lwg:g")
    assert len(records) == 1
    assert set(records[0].lwg_members) == {"p0", "p1"}
    assert records[0].hwg == handles[0].hwg


def test_member_crash_restricts_lwg_view():
    cluster = Cluster(num_processes=3, seed=12)
    handles = [cluster.service(i).join("g") for i in range(3)]
    assert cluster.run_until(lambda: converged_lwg(handles, 3), timeout_us=10 * SECOND)
    cluster.crash(2)
    assert cluster.run_until(lambda: converged_lwg(handles[:2], 2), timeout_us=15 * SECOND)
    assert "p2" not in handles[0].view.members


def test_stats_counters_track_data_path():
    cluster = Cluster(num_processes=2, seed=13)
    handles = [cluster.service(i).join("g") for i in range(2)]
    assert cluster.run_until(lambda: converged_lwg(handles, 2), timeout_us=10 * SECOND)
    handles[0].send("x")
    cluster.run_for_seconds(1)
    svc = cluster.service(0)
    assert svc.stats.data_sent == 1
    assert svc.stats.data_delivered >= 1
    assert svc.stats.lwg_views_installed >= 1


def test_disjoint_groups_get_disjoint_hwgs():
    cluster = Cluster(num_processes=4, seed=14)
    a = [cluster.service(i).join("a") for i in (0, 1)]
    b = [cluster.service(i).join("b") for i in (2, 3)]
    cluster.run_for_seconds(8)
    assert a[0].hwg != b[0].hwg


# ----------------------------------------------------------------------
# Delivery tracing is gated on Tracer.enabled like the rest of the data path
# ----------------------------------------------------------------------
def deliver_one(cluster):
    recorder = Recorder()
    handles = [cluster.service(0).join("g"), cluster.service(1).join("g", recorder)]
    assert cluster.run_until(lambda: converged_lwg(handles, 2), timeout_us=10 * SECOND)
    handles[0].send("hello")
    assert cluster.run_until(lambda: recorder.data, timeout_us=5 * SECOND)
    return handles


def test_lwg_subscriber_still_sees_data_deliveries():
    cluster = Cluster(num_processes=2, seed=5, keep_trace=False, checkers=False)
    seen = []
    cluster.env.tracer.subscribe(seen.append, categories=["lwg"])
    handles = deliver_one(cluster)
    delivered = [r for r in seen if r.event == "lwg_data_delivered"]
    assert sorted(r.fields["node"] for r in delivered) == ["p0", "p1"]
    for record in delivered:
        assert record.fields == {
            "node": record.fields["node"],
            "lwg": "lwg:g",
            "view": str(handles[0].view.view_id),
            "sender": "p0",
        }


def test_unobserved_delivery_builds_no_trace_record(monkeypatch):
    cluster = Cluster(num_processes=2, seed=5, keep_trace=False, checkers=False)
    built, traced = [], []
    real_record = trace.TraceRecord
    monkeypatch.setattr(
        trace, "TraceRecord", lambda *a, **kw: built.append(a) or real_record(*a, **kw)
    )
    real_trace = LwgService.trace
    monkeypatch.setattr(
        LwgService,
        "trace",
        lambda self, event, **fields: traced.append(event) or real_trace(self, event, **fields),
    )
    deliver_one(cluster)
    assert built == []
    assert "lwg_data_delivered" not in traced
