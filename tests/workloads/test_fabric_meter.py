"""FabricMeter accounting: heartbeat traffic and fan-out memo stats."""

from repro.core import LwgConfig
from repro.sim import SECOND
from repro.workloads import Cluster
from repro.workloads.placement import FabricMeter


def fast_config():
    config = LwgConfig()
    config.policy_period_us = 2 * SECOND
    config.shrink_grace_us = 1 * SECOND
    return config


def run_metered():
    cluster = Cluster(
        num_processes=3, seed=29, lwg_config=fast_config(), checkers=False,
    )
    meter = FabricMeter(cluster)
    for node in cluster.process_ids:
        cluster.service(node).join("g0")
    cluster.run_for_seconds(10)
    return cluster, meter


def test_flat_fd_traffic_is_heartbeats():
    _, meter = run_metered()
    assert meter.heartbeats > 0
    assert meter.by_type["Heartbeat"] == meter.heartbeats


def test_fd_traffic_does_not_pollute_flush_accounting():
    _, meter = run_metered()
    assert meter.heartbeats > 0
    flush_kinds = {kind for kind in meter.by_type if kind != "Heartbeat"}
    total_flush = sum(meter.by_type[kind] for kind in flush_kinds)
    assert meter.flush_messages == total_flush


def test_fanout_memo_counters_surface_through_the_meter():
    cluster, meter = run_metered()
    counters = meter.counters()
    # The protocol layers multicast to the same membership repeatedly,
    # so the sorted-destination memo must be hit-dominated.
    assert counters["fanout_memo_hits"] > counters["fanout_memo_misses"] > 0
    assert counters["fanout_memo_hits"] == cluster.env.network.fanout_memo_hits
    for key in ("flush_messages", "flush_bytes", "heartbeats"):
        assert counters[key] == getattr(meter, key)
