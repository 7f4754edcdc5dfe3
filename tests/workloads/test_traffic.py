"""Tests for traffic generation and probe plumbing."""

from repro.metrics import LatencyCollector
from repro.sim import MS, SECOND
from repro.workloads import Cluster, PeriodicSender, ProbeHub, ProbeListener, probe_payload


def converged(handles, size):
    views = [h.view for h in handles]
    return (
        all(v is not None for v in views)
        and len({v.view_id for v in views}) == 1
        and all(len(v.members) == size for v in views)
    )


def build():
    cluster = Cluster(num_processes=2, seed=141)
    hub = ProbeHub(env=cluster.env)
    probes = [ProbeListener(hub, f"p{i}") for i in range(2)]
    handles = [cluster.service(i).join("g", probes[i]) for i in range(2)]
    assert cluster.run_until(lambda: converged(handles, 2), timeout_us=15 * SECOND)
    return cluster, hub, probes, handles


def test_probe_payload_carries_timestamp():
    cluster, hub, probes, handles = build()
    payload = probe_payload(cluster.env, 7)
    assert payload[0] == "probe" and payload[1] == 7
    assert payload[2] == cluster.env.now


def test_probe_listener_records_latency():
    cluster, hub, probes, handles = build()
    handles[0].send(probe_payload(cluster.env, 0))
    cluster.run_for_seconds(1)
    stats = hub.latency.summary("lwg:g")
    assert stats is not None and stats.count == 2  # both members delivered
    assert stats.mean_us > 0


def test_non_probe_payloads_counted_but_not_timed():
    cluster, hub, probes, handles = build()
    handles[0].send("plain message")
    cluster.run_for_seconds(1)
    assert hub.deliveries == 2
    assert hub.latency.summary() is None


def test_periodic_sender_rate_until_stopped():
    cluster, hub, probes, handles = build()
    sender = PeriodicSender(cluster.env, cluster.stack(0), handles[0], period_us=50 * MS)
    sender.start()
    cluster.run_for(220 * MS)  # ticks at 0, 50, 100, 150 and 200 ms
    sender.stop()
    cluster.run_for_seconds(2)
    assert sender.sent == 5
    assert hub.deliveries == 10  # 5 messages x 2 members


def test_periodic_sender_stop():
    cluster, hub, probes, handles = build()
    sender = PeriodicSender(
        cluster.env, cluster.stack(0), handles[0], period_us=50 * MS
    )
    sender.start()
    cluster.run_for(120 * MS)
    sender.stop()
    sent_at_stop = sender.sent
    cluster.run_for_seconds(1)
    assert sender.sent == sent_at_stop


def test_views_feed_recovery_timer():
    cluster, hub, probes, handles = build()
    hub.recovery.arm(cluster.env.now, "p1", [("lwg:g", "p0")])
    cluster.crash(1)
    assert cluster.run_until(lambda: hub.recovery.complete, timeout_us=20 * SECOND)
    assert hub.recovery.recovery_time_us() > 0
