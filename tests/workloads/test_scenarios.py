"""Tests for the paper-shape scenario harness."""

import pytest

from repro.workloads import (
    GROUP_SIZE,
    build_figure2,
    build_overlap,
    build_partition_scenario,
    measure_latency,
    measure_recovery,
    measure_throughput,
)
from repro.workloads.placement import build_placement_scenario


@pytest.mark.parametrize("flavour", ["none", "static", "dynamic"])
def test_figure2_builds_and_converges(flavour):
    setup = build_figure2(n=2, flavour=flavour, seed=1)
    assert setup.converged()
    assert len(setup.groups) == 4
    for members in setup.groups.values():
        assert len(members) == GROUP_SIZE


def test_figure2_dynamic_uses_two_hwgs():
    setup = build_figure2(n=3, flavour="dynamic", seed=2)
    hwgs = {handle.hwg for handle in setup.handles.values()}
    assert len(hwgs) == 2


def test_figure2_static_uses_one_hwg():
    setup = build_figure2(n=3, flavour="static", seed=2)
    hwgs = {handle.hwg for handle in setup.handles.values()}
    assert len(hwgs) == 1


def test_figure2_none_uses_one_hwg_per_group():
    setup = build_figure2(n=3, flavour="none", seed=2)
    hwgs = {handle.hwg for handle in setup.handles.values()}
    assert len(hwgs) == 6


def test_latency_measurement_returns_stats():
    setup = build_figure2(n=2, flavour="dynamic", seed=3)
    stats = measure_latency(setup, probes_per_group=4)
    assert stats.count > 0
    assert 0 < stats.mean_us < 1_000_000


def test_throughput_measurement_positive():
    setup = build_figure2(n=2, flavour="dynamic", seed=4)
    throughput = measure_throughput(setup, burst_per_group=10)
    assert throughput > 0


def test_recovery_measurement_breakdown():
    setup = build_figure2(n=2, flavour="dynamic", seed=5)
    result = measure_recovery(setup)
    assert result.total_us > 0
    assert 0 <= result.detection_us <= result.total_us
    assert result.reconfig_us == result.total_us - result.detection_us


def test_overlap_dynamic_uses_one_hwg_per_membership_class():
    setup = build_overlap(n=1, flavour="dynamic", seed=7)
    assert setup.converged()
    assert setup.groups == {"oa0": ["p0", "p1", "p2", "p3"], "ob0": ["p2", "p3", "p4", "p5"]}
    assert len(setup.hwgs_in_use()) == 2


def test_overlap_recovery_of_a_shared_member_without_traffic():
    setup = build_overlap(n=1, flavour="dynamic", seed=7)
    result = measure_recovery(setup, victim="p3", traffic_period_us=None)
    assert result.reconfig_us > 0
    assert setup.hub.deliveries == 0  # a quiet crash: no background traffic


def test_partition_scenario_builds_crossed_mappings():
    scenario = build_partition_scenario(num_groups=2, seed=6)
    assert not scenario.converged()  # still partitioned
    for group in scenario.groups:
        hwg_a = scenario.handles[(group, "p0")].hwg
        hwg_b = scenario.handles[(group, "p2")].hwg
        assert hwg_a != hwg_b


def test_paper_rules_converge_through_a_bulk_load():
    """A move in the middle of the bulk join once stranded joining LWGs
    on this seed; no LWG moves while its process's views still change."""
    setup = build_placement_scenario(num_lwgs=40, seed=1)
    assert setup.converged()
