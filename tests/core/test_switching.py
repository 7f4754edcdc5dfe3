"""Tests for the run-time switch protocol."""

from repro.core import LwgListener
from repro.sim import SECOND
from repro.workloads import Cluster


class Recorder(LwgListener):
    def __init__(self):
        self.views = []
        self.data = []

    def on_view(self, lwg, view):
        self.views.append(view)

    def on_data(self, lwg, src, payload, size):
        self.data.append((src, payload))


def converged_lwg(handles, size):
    views = [h.view for h in handles]
    if any(v is None for v in views):
        return False
    return len({v.view_id for v in views}) == 1 and all(
        len(v.members) == size for v in views
    )


def build_minority_setup(seed=21):
    """A 2-member LWG "small" co-mapped with a 4-member LWG "big":
    small is a minority (2 <= 4/k_m with k_m=2 here? use 8 procs)."""
    from repro.core import LwgConfig

    config = LwgConfig()
    config.policy_period_us = 2 * SECOND
    config.shrink_grace_us = 1 * SECOND
    cluster = Cluster(num_processes=8, seed=seed, lwg_config=config)
    big = [cluster.service(i).join("big") for i in range(8)]
    assert cluster.run_until(lambda: converged_lwg(big, 8), timeout_us=20 * SECOND)
    recorders = [Recorder(), Recorder()]
    small = [cluster.service(i).join("small", recorders[i]) for i in range(2)]
    assert cluster.run_until(lambda: converged_lwg(small, 2), timeout_us=20 * SECOND)
    assert small[0].hwg == big[0].hwg  # optimistic co-mapping
    return cluster, big, small, recorders


def test_interference_rule_switches_minority_lwg_out():
    cluster, big, small, _ = build_minority_setup()
    old_hwg = small[0].hwg
    assert cluster.run_until(
        lambda: small[0].hwg != old_hwg and small[1].hwg == small[0].hwg,
        timeout_us=30 * SECOND,
    )
    # The LWG view identifier survives the switch (Table 4, stage 3).
    assert converged_lwg(small, 2)
    # The big group is untouched.
    assert big[0].hwg == old_hwg


def test_switch_updates_naming_service():
    cluster, big, small, _ = build_minority_setup(seed=22)
    old_hwg = small[0].hwg
    assert cluster.run_until(lambda: small[0].hwg != old_hwg, timeout_us=30 * SECOND)
    cluster.run_for_seconds(2)
    records = cluster.name_servers["ns0"].db.live_records("lwg:small")
    assert len(records) == 1
    assert records[0].hwg == small[0].hwg


def test_switch_leaves_forward_pointer():
    cluster, big, small, _ = build_minority_setup(seed=23)
    old_hwg = small[0].hwg
    assert cluster.run_until(lambda: small[0].hwg != old_hwg, timeout_us=30 * SECOND)
    # A process that stayed on the old HWG (e.g. p5, a big-only member)
    # now holds a forward pointer for the switched LWG.
    directory = cluster.service(5).table.dir_for(old_hwg)
    assert directory.forward.get("lwg:small") == small[0].hwg


def test_data_sent_during_switch_is_not_lost():
    cluster, big, small, recorders = build_minority_setup(seed=24)
    old_hwg = small[0].hwg
    # Pump messages continuously while the switch happens.
    sent = []

    def pump():
        if len(sent) < 60:
            payload = f"m{len(sent)}"
            sent.append(payload)
            small[0].send(payload)
            cluster.stack(0).set_timer(100_000, pump)

    pump()
    assert cluster.run_until(lambda: small[0].hwg != old_hwg, timeout_us=30 * SECOND)
    assert cluster.run_until(lambda: len(sent) >= 60, timeout_us=30 * SECOND)
    cluster.run_for_seconds(3)
    delivered_at_1 = [p for _, p in recorders[1].data]
    assert delivered_at_1 == sent, (
        f"lost={set(sent) - set(delivered_at_1)} dup/order broken"
    )


def test_joiner_during_switch_is_redirected():
    cluster, big, small, _ = build_minority_setup(seed=25)
    old_hwg = small[0].hwg
    assert cluster.run_until(lambda: small[0].hwg != old_hwg, timeout_us=30 * SECOND)
    # p7 now joins "small" — the naming record may be fresh, but even a
    # stale path through the old HWG must end in membership.
    late = cluster.service(7).join("small")
    assert cluster.run_until(
        lambda: late.is_member and late.hwg == small[0].hwg, timeout_us=20 * SECOND
    )
    assert cluster.run_until(lambda: converged_lwg(small + [late], 3), timeout_us=10 * SECOND)


def test_shrink_rule_drains_abandoned_hwg():
    """After 'small' switches away, its members leave the old HWG only if
    no other LWG of theirs lives there — here 'big' still does, so they
    must stay."""
    cluster, big, small, _ = build_minority_setup(seed=26)
    old_hwg = small[0].hwg
    assert cluster.run_until(lambda: small[0].hwg != old_hwg, timeout_us=30 * SECOND)
    cluster.run_for_seconds(6)
    # p0 is in "big" too: must still be a member of the old HWG.
    endpoint = cluster.stack(0).endpoints.get(old_hwg)
    assert endpoint is not None and endpoint.current_view is not None
    assert "p0" in endpoint.current_view.members
