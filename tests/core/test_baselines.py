"""Tests for the comparison services: no-LWG and static."""

from repro.core import LwgListener
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


def converged(handles, size):
    views = [h.view for h in handles]
    if any(v is None for v in views):
        return False
    return len({v.view_id for v in views}) == 1 and all(
        len(v.members) == size for v in views
    )


# ----------------------------------------------------------------------
# NoLwgService
# ----------------------------------------------------------------------
def test_none_flavour_basic_group():
    cluster = Cluster(num_processes=3, seed=41, flavour="none")
    recorders = [Recorder() for _ in range(3)]
    handles = [cluster.service(i).join("g", recorders[i]) for i in range(3)]
    assert cluster.run_until(lambda: converged(handles, 3), timeout_us=10 * SECOND)
    handles[0].send("direct")
    cluster.run_for_seconds(2)
    assert all(("p0", "direct") in r.data for r in recorders)


def test_none_flavour_one_hwg_per_group():
    cluster = Cluster(num_processes=2, seed=42, flavour="none")
    g = [cluster.service(i).join("g") for i in range(2)]
    h = [cluster.service(i).join("h") for i in range(2)]
    assert cluster.run_until(
        lambda: converged(g, 2) and converged(h, 2), timeout_us=10 * SECOND
    )
    assert g[0].hwg != h[0].hwg


def test_none_flavour_leave():
    cluster = Cluster(num_processes=2, seed=43, flavour="none")
    recorders = [Recorder(), Recorder()]
    handles = [cluster.service(i).join("g", recorders[i]) for i in range(2)]
    assert cluster.run_until(lambda: converged(handles, 2), timeout_us=10 * SECOND)
    cluster.service(1).leave("g")
    assert cluster.run_until(lambda: recorders[1].lefts == 1, timeout_us=10 * SECOND)


def test_none_flavour_rejoin_takes_the_new_listener_and_send_by_name():
    cluster = Cluster(num_processes=2, seed=45, flavour="none")
    first = Recorder()
    handles = [cluster.service(0).join("g", first), cluster.service(1).join("g")]
    assert cluster.run_until(lambda: converged(handles, 2), timeout_us=10 * SECOND)
    cluster.service(0).leave("g")
    assert cluster.run_until(lambda: first.lefts == 1, timeout_us=10 * SECOND)
    assert not handles[0].is_member
    again = Recorder()
    rejoined = cluster.service(0).join("g", again)  # the same HWG endpoint
    assert cluster.run_until(
        lambda: rejoined.is_member and converged([rejoined, handles[1]], 2),
        timeout_us=10 * SECOND,
    )
    cluster.service(1).send("g", "by-name")
    cluster.run_for_seconds(2)
    assert ("p1", "by-name") in again.data and first.data == []


def test_none_flavour_has_no_naming_traffic():
    cluster = Cluster(num_processes=2, seed=44, flavour="none")
    handles = [cluster.service(i).join("g") for i in range(2)]
    assert cluster.run_until(lambda: converged(handles, 2), timeout_us=10 * SECOND)
    assert all(s.requests_served == 0 for s in cluster.name_servers.values())


# ----------------------------------------------------------------------
# Static service
# ----------------------------------------------------------------------
def test_static_flavour_maps_everything_to_one_hwg():
    cluster = Cluster(num_processes=4, seed=45, flavour="static")
    g = [cluster.service(i).join("g") for i in range(4)]
    h = [cluster.service(i).join("h") for i in (0, 1)]
    assert cluster.run_until(
        lambda: converged(g, 4) and converged(h, 2), timeout_us=15 * SECOND
    )
    assert g[0].hwg == h[0].hwg
    assert g[0].hwg.startswith("hwg:static")


def test_static_flavour_never_switches():
    cluster = Cluster(num_processes=4, seed=46, flavour="static")
    g = [cluster.service(i).join("g") for i in range(4)]
    small = [cluster.service(i).join("small") for i in (0,)]
    cluster.run_for_seconds(12)
    assert cluster.service(0).stats.switches_started == 0


def test_static_flavour_preserves_lwg_semantics():
    """Even statically mapped, each LWG keeps its own views and filtering."""
    cluster = Cluster(num_processes=3, seed=47, flavour="static")
    r_g = [Recorder() for _ in range(3)]
    g = [cluster.service(i).join("g", r_g[i]) for i in range(3)]
    r_h = Recorder()
    h = [cluster.service(0).join("h", r_h), cluster.service(1).join("h")]
    assert cluster.run_until(
        lambda: converged(g, 3) and converged(h, 2), timeout_us=15 * SECOND
    )
    h[0].send("h-data")
    cluster.run_for_seconds(2)
    assert ("p0", "h-data") in r_h.data
    assert all(("p0", "h-data") not in r.data for r in r_g)


def test_all_flavours_share_the_user_api():
    for flavour in ("dynamic", "static", "none"):
        cluster = Cluster(num_processes=2, seed=49, flavour=flavour)
        recorder = Recorder()
        handle = cluster.service(0).join("g", recorder)
        other = cluster.service(1).join("g")
        assert cluster.run_until(
            lambda: converged([handle, other], 2), timeout_us=15 * SECOND
        ), flavour
        handle.send("x")
        cluster.run_for_seconds(2)
        assert recorder.data, flavour
        handle.leave()
        cluster.run_for_seconds(3)
