"""Naming-service behaviour under server crashes."""


from repro.core import LwgListener
from repro.sim import SECOND
from repro.workloads import Cluster


def converged(handles, size):
    views = [h.view for h in handles]
    return (
        all(v is not None for v in views)
        and len({v.view_id for v in views}) == 1
        and all(len(v.members) == size for v in views)
    )


def test_client_survives_one_server_crash():
    cluster = Cluster(num_processes=2, seed=81, num_name_servers=2)
    cluster.env.failures.crash_now("ns0")
    handles = [cluster.service(i).join("g") for i in range(2)]
    assert cluster.run_until(lambda: converged(handles, 2), timeout_us=15 * SECOND)
    # All traffic landed on the surviving replica.
    assert len(cluster.name_servers["ns1"].db) >= 1


def test_recovered_server_catches_up_via_gossip():
    cluster = Cluster(num_processes=2, seed=82, num_name_servers=2)
    cluster.env.failures.crash_now("ns1")
    handles = [cluster.service(i).join("g") for i in range(2)]
    assert cluster.run_until(lambda: converged(handles, 2), timeout_us=15 * SECOND)
    cluster.run_for_seconds(1)
    cluster.env.failures.recover_now("ns1")
    assert cluster.run_until(
        lambda: len(cluster.name_servers["ns1"].db.live_records("lwg:g")) == 1,
        timeout_us=10 * SECOND,
    )


def test_all_servers_down_joins_stall_then_recover():
    cluster = Cluster(num_processes=2, seed=83, num_name_servers=1)
    cluster.env.failures.crash_now("ns0")
    handles = [cluster.service(i).join("g") for i in range(2)]
    cluster.run_for_seconds(4)
    # Creation needs the naming service: nobody is a member yet.
    assert not any(h.is_member for h in handles)
    cluster.env.failures.recover_now("ns0")
    assert cluster.run_until(lambda: converged(handles, 2), timeout_us=20 * SECOND)


def test_lwg_operations_continue_while_naming_degraded():
    """Once mapped, data flow does not depend on the naming service."""
    cluster = Cluster(num_processes=3, seed=84, num_name_servers=1)

    class Recorder(LwgListener):
        def __init__(self):
            self.data = []

        def on_data(self, lwg, src, payload, size):
            self.data.append(payload)

    recorder = Recorder()
    handles = [cluster.service(i).join("g") for i in range(2)]
    handles.append(cluster.service(2).join("g", recorder))
    assert cluster.run_until(lambda: converged(handles, 3), timeout_us=15 * SECOND)
    cluster.env.failures.crash_now("ns0")
    handles[0].send("no-naming-needed")
    cluster.run_for_seconds(2)
    assert "no-naming-needed" in recorder.data
