"""Tests for measurement collectors."""

from repro.metrics import LatencyCollector, RecoveryTimer, SummaryStats


def test_latency_collector_groups_by_key():
    collector = LatencyCollector()
    collector.record("g1", 100, 300)
    collector.record("g1", 100, 500)
    collector.record("g2", 0, 50)
    assert collector.samples("g1") == [200, 400]
    assert collector.samples() == [200, 400, 50]
    assert collector.keys() == ["g1", "g2"]


def test_latency_summary():
    collector = LatencyCollector()
    for latency in (100, 200, 300, 400):
        collector.record("g", 0, latency)
    summary = collector.summary("g")
    assert summary.count == 4
    assert summary.mean_us == 250
    assert summary.max_us == 400


def test_quantiles_single_sample():
    stats = SummaryStats.of([42.0])
    assert stats.p50_us == 42.0
    assert stats.p95_us == 42.0
    assert stats.max_us == 42.0


def test_quantiles_two_samples():
    stats = SummaryStats.of([20.0, 10.0])
    # Nearest-rank: ceil(0.5 * 2) = rank 1 -> the lower value, and
    # ceil(0.95 * 2) = rank 2 -> the upper one (the old floor-index
    # formula returned the max for p50 here).
    assert stats.p50_us == 10.0
    assert stats.p95_us == 20.0


def test_quantiles_nineteen_samples():
    stats = SummaryStats.of(list(range(1, 20)))
    assert stats.p50_us == 10  # ceil(9.5) = rank 10
    assert stats.p95_us == 19  # ceil(18.05) = rank 19


def test_quantiles_twenty_samples():
    stats = SummaryStats.of(list(range(1, 21)))
    assert stats.p50_us == 10
    # ceil(19.0) = rank 19; the old int(0.95 * 20) indexed past it and
    # reported the max (20) as p95.
    assert stats.p95_us == 19


def test_quantiles_hundred_samples():
    stats = SummaryStats.of(list(range(1, 101)))
    assert stats.p50_us == 50
    assert stats.p95_us == 95
    assert stats.max_us == 100


def test_summary_of_empty_is_none():
    assert SummaryStats.of([]) is None
    assert LatencyCollector().summary() is None


def test_summary_str_formats_ms():
    summary = SummaryStats.of([1000.0])
    assert "mean=1.00ms" in str(summary)


def test_recovery_timer_completes_when_all_reconfigure():
    timer = RecoveryTimer()
    timer.arm(1000, "victim", [("g1", "a"), ("g1", "b")])
    timer.note_view("g1", "a", ["a", "b"], 2000)
    assert not timer.complete
    timer.note_view("g1", "b", ["a", "b"], 2500)
    assert timer.complete
    assert timer.recovery_time_us() == 1500


def test_recovery_timer_ignores_views_containing_victim():
    timer = RecoveryTimer()
    timer.arm(1000, "victim", [("g1", "a")])
    timer.note_view("g1", "a", ["a", "victim"], 2000)
    assert not timer.complete


def test_recovery_timer_ignores_pre_crash_views():
    timer = RecoveryTimer()
    timer.arm(1000, "victim", [("g1", "a")])
    timer.note_view("g1", "a", ["a"], 500)
    assert not timer.complete


def test_recovery_timer_first_reconfiguration_wins():
    timer = RecoveryTimer()
    timer.arm(0, "v", [("g1", "a")])
    timer.note_view("g1", "a", ["a"], 100)
    timer.note_view("g1", "a", ["a", "b"], 200)
    assert timer.recovery_time_us() == 100
