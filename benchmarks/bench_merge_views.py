"""Figure 5: the merge-views protocol and its resource-sharing claim.

"the algorithm merges all concurrent views of all LWGs mapped in the
same HWG in a single flush operation.  Resource sharing is promoted
because a flush for each light-weight group is avoided."

We co-map m LWGs (m = 1..6) on the same HWG pair across a partition,
heal, and count the HWG view changes (each one is a flush) needed until
every LWG has a single merged view.  The count must stay flat in m —
the naive alternative (one flush per LWG) would grow linearly.
"""

from conftest import SEED

from repro.metrics import series_table, shape_check
from repro.sim import SECOND
from repro.workloads import build_partition_scenario

M_VALUES = (1, 2, 4, 6)


def merge_flush_points(cluster, node):
    """(# merge flush points, # LWG unifications) observed at ``node``.

    A unification is either a computed merge (``lwg_views_merged``) or
    the adoption of a merge computed in an earlier flush
    (``lwg_view_adopted``).  Both fire at HWG view installations (the
    flush points of Figure 5); events sharing a flush share a timestamp.
    The paper's claim is many unifications per flush point.
    """
    times = set()
    unifications = 0
    for record in cluster.env.tracer.records:
        if record.category != "lwg" or record.event not in (
            "lwg_views_merged",
            "lwg_view_adopted",
        ):
            continue
        if record.fields.get("node") == node:
            times.add(record.time)
            unifications += 1
    return len(times), unifications


def run_merge_scan():
    flush_points = []
    merged_lwgs = []
    convergence_ms = []
    for m in M_VALUES:
        scenario = build_partition_scenario(num_groups=m, seed=SEED + m)
        cluster = scenario.cluster
        cluster.env.tracer.clear()
        heal_at = cluster.env.now
        cluster.heal()
        assert cluster.run_until(scenario.converged, timeout_us=90 * SECOND), m
        cluster.run_for_seconds(1)
        observer = cluster.process_ids[0]
        points, merges = merge_flush_points(cluster, observer)
        flush_points.append(points)
        merged_lwgs.append(merges)
        convergence_ms.append((cluster.env.now - heal_at) / 1000.0)
    return flush_points, merged_lwgs, convergence_ms


def test_figure5_merge_views(benchmark):
    flush_points, merged_lwgs, convergence_ms = benchmark.pedantic(
        run_merge_scan, rounds=1, iterations=1
    )
    print(
        series_table(
            "Figure 5 — merge flush points vs co-mapped LWGs (m)",
            "m",
            list(M_VALUES),
            {
                "LWG merges performed": merged_lwgs,
                "flush points used (measured)": flush_points,
                "flush points if one per LWG (naive)": list(M_VALUES),
                "heal-to-converged (ms)": convergence_ms,
            },
            note="one flush merges every co-mapped LWG: points << m",
        )
    )
    checks = [
        shape_check(
            f"every LWG merged exactly once at the observer ({merged_lwgs})",
            merged_lwgs == list(M_VALUES),
        ),
        shape_check(
            f"flush points grow sub-linearly ({flush_points[-1]} points for "
            f"m={M_VALUES[-1]}, naive would use {M_VALUES[-1]})",
            flush_points[-1] < M_VALUES[-1],
        ),
        shape_check(
            "convergence time roughly flat in m "
            f"({convergence_ms[0]:.0f}ms -> {convergence_ms[-1]:.0f}ms)",
            convergence_ms[-1] <= 3 * max(convergence_ms[0], 1),
        ),
    ]
    print("\n".join(checks))
    assert all(c.startswith("[PASS]") for c in checks)
