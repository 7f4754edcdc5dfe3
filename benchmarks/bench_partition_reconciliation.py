"""Figures 3-4 and Tables 3-4: the partition-reconciliation walkthrough.

Regenerates the paper's worked example end-to-end and prints the
naming-service database at each stage of Table 4:

  (Fig 3)  crossed mappings established in concurrent partitions
  (Tab 3)  merged naming database holds both partitions' mappings
  (6.1/6.2) MULTIPLE-MAPPINGS callbacks and the highest-gid switch
  (6.3/6.4) local peer discovery and the merge-views protocol
  (Tab 4-4) one merged view per LWG, obsolete mappings garbage-collected

The benchmark figure is heal-to-convergence time.
"""

from conftest import SEED

from repro.metrics import format_table, shape_check
from repro.sim import SECOND
from repro.workloads import build_partition_scenario


def snapshot_rows(scenario, stage):
    db = scenario.cluster.name_servers["ns0"].db
    rows = []
    for group in scenario.groups:
        for record in db.live_records(f"lwg:{group}"):
            rows.append([stage, f"lwg:{group}", str(record.lwg_view),
                         f"{record.hwg}@{record.hwg_view}"])
    return rows


def run_reconciliation():
    scenario = build_partition_scenario(num_groups=2, seed=SEED)
    cluster = scenario.cluster
    stages = []
    stages += snapshot_rows(scenario, "partitioned (ns0 side only)")
    heal_at = cluster.env.now
    cluster.heal()
    converged = cluster.run_until(scenario.converged, timeout_us=60 * SECOND)
    assert converged, "reconciliation did not converge"
    convergence_us = cluster.env.now - heal_at
    cluster.run_for_seconds(3)  # let naming GC settle
    stages += snapshot_rows(scenario, "healed + reconciled")
    callbacks = sum(
        cluster.service(node).reconciler.callbacks_received
        for node in cluster.process_ids
    )
    switches = sum(
        cluster.service(node).reconciler.switches_initiated
        for node in cluster.process_ids
    )
    merges = sum(
        cluster.service(node).merge_mgr.merges_completed
        for node in cluster.process_ids
    )
    return scenario, stages, convergence_us, callbacks, switches, merges


def test_partition_reconciliation(benchmark):
    scenario, stages, convergence_us, callbacks, switches, merges = benchmark.pedantic(
        run_reconciliation, rounds=1, iterations=1
    )
    print(
        format_table(
            "Tables 3-4 — naming database across the heal",
            ["stage", "LWG", "lwg view", "mapped onto"],
            stages,
        )
    )
    db = scenario.cluster.name_servers["ns0"].db
    checks = [
        shape_check(
            f"MULTIPLE-MAPPINGS callbacks reached coordinators ({callbacks})",
            callbacks >= 1,
        ),
        shape_check(f"reconciliation switches ran ({switches})", switches >= 1),
        shape_check(f"merge-views protocol merged views ({merges})", merges >= 2),
        shape_check(
            "final naming DB: exactly one mapping per LWG (Table 4 stage 4)",
            all(len(db.live_records(f"lwg:{g}")) == 1 for g in scenario.groups),
        ),
        shape_check(
            f"heal-to-convergence {convergence_us / 1000:.0f}ms < 20s",
            convergence_us < 20 * SECOND,
        ),
    ]
    print("\n".join(checks))
    assert all(c.startswith("[PASS]") for c in checks)
