"""End-to-end tests of the Section-6 reconciliation pipeline.

These reproduce the paper's worked example (Figures 3-4, Tables 3-4):
LWGs created with crossed mappings in concurrent partitions, healed, and
driven through global peer discovery, mapping reconciliation, local peer
discovery and the merge-views protocol.
"""

from repro.sim import SECOND
from repro.workloads import build_partition_scenario


def test_partition_sides_build_independent_mappings():
    scenario = build_partition_scenario(num_groups=2, seed=31)
    for group in scenario.groups:
        hwgs = {
            scenario.handles[(group, node)].hwg
            for node in scenario.cluster.process_ids
        }
        assert len(hwgs) == 2  # one per side
    ns0 = scenario.cluster.name_servers["ns0"].db
    ns1 = scenario.cluster.name_servers["ns1"].db
    for group in scenario.groups:
        assert len(ns0.live_records(f"lwg:{group}")) == 1
        assert len(ns1.live_records(f"lwg:{group}")) == 1


def test_merged_naming_database_detects_inconsistent_mappings():
    """Table 3 / Section 6.1: after reconciliation the database holds the
    mappings of both partitions; the server detects the inconsistency and
    fires MULTIPLE-MAPPINGS at the view coordinators, who reconcile by
    switching (Section 6.2)."""
    scenario = build_partition_scenario(num_groups=1, seed=32)
    cluster = scenario.cluster
    cluster.heal()
    assert cluster.run_until(scenario.converged, timeout_us=40 * SECOND)
    # The conflict was detected and pushed (not polled).
    notified = sum(s.notifier.notifications_sent for s in cluster.name_servers.values())
    assert notified >= 2  # both concurrent views' coordinators
    # At least one coordinator acted on it with a reconciliation switch.
    received = switches = 0
    for node in scenario.cluster.process_ids:
        reconciler = cluster.service(node).reconciler
        received += reconciler.callbacks_received
        switches += reconciler.switches_initiated
    assert received >= 1
    assert switches >= 1


def test_full_reconciliation_converges():
    """Table 4 stage 4: a single merged view per LWG, one mapping stored."""
    scenario = build_partition_scenario(num_groups=2, seed=33)
    cluster = scenario.cluster
    cluster.heal()
    assert cluster.run_until(scenario.converged, timeout_us=40 * SECOND)
    cluster.run_for_seconds(3)  # let naming GC settle
    for group in scenario.groups:
        records = cluster.name_servers["ns0"].db.live_records(f"lwg:{group}")
        assert len(records) == 1, [str(r) for r in records]
        assert set(records[0].lwg_members) == set(
            scenario.cluster.process_ids
        )


def test_reconciliation_switches_to_highest_gid_hwg():
    """Section 6.2: inconsistent mappings are conciliated onto the HWG
    with the highest group identifier."""
    scenario = build_partition_scenario(num_groups=1, seed=34)
    cluster = scenario.cluster
    hwgs_before = {
        scenario.handles[("a", node)].hwg
        for node in scenario.cluster.process_ids
    }
    winner = max(hwgs_before)
    cluster.heal()
    assert cluster.run_until(scenario.converged, timeout_us=40 * SECOND)
    final = {scenario.handles[("a", node)].hwg for node in scenario.cluster.process_ids}
    assert final == {winner}


def test_merged_view_genealogy_spans_both_sides():
    scenario = build_partition_scenario(num_groups=1, seed=35)
    cluster = scenario.cluster
    side_views = {
        scenario.handles[("a", "p0")].view.view_id,
        scenario.handles[("a", "p2")].view.view_id,
    }
    cluster.heal()
    assert cluster.run_until(scenario.converged, timeout_us=40 * SECOND)
    merged = scenario.handles[("a", "p0")].view
    # Both pre-heal views are ancestors of the merged view.
    assert side_views <= set(merged.parents)


def test_data_flows_after_reconciliation():
    scenario = build_partition_scenario(num_groups=1, seed=36)
    cluster = scenario.cluster
    cluster.heal()
    assert cluster.run_until(scenario.converged, timeout_us=40 * SECOND)
    scenario.handles[("a", "p0")].send("post-heal")
    cluster.run_for_seconds(2)
    everyone = scenario.cluster.process_ids
    for node in everyone[1:]:
        probe = scenario.probes[("a", node)]
        assert any(p == "post-heal" for _, p in probe.delivered)


def test_three_groups_reconcile_through_shared_flush():
    """Figure 5's resource-sharing claim: all co-mapped LWGs merge in one
    round of flushes, not one flush per LWG."""
    scenario = build_partition_scenario(num_groups=3, seed=37)
    cluster = scenario.cluster
    cluster.heal()
    assert cluster.run_until(scenario.converged, timeout_us=60 * SECOND)
    # Count distinct merged views: every group must have exactly one.
    for group in scenario.groups:
        ids = {
            scenario.handles[(group, node)].view.view_id
            for node in scenario.cluster.process_ids
        }
        assert len(ids) == 1


def test_reconciliation_with_asymmetric_sides():
    scenario = build_partition_scenario(num_groups=1, side_size=3, seed=38)
    cluster = scenario.cluster
    cluster.heal()
    assert cluster.run_until(scenario.converged, timeout_us=40 * SECOND)
    merged = scenario.handles[("a", "p0")].view
    assert len(merged.members) == 6
