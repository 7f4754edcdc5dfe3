"""Ablation: the k_m / k_c hysteresis parameters of Figure 1.

The paper fixes ``k_m = k_c = 4`` and argues the resulting 75%/25%
hysteresis band prevents oscillation.  This ablation sweeps the
parameters on a workload with a borderline group (a 2-member LWG
co-mapped with a 4-member HWG — exactly half):

* aggressive settings (k_m = 2: "minority" at <= 50%) evict the small
  group into its own HWG;
* the paper's settings (k_m = 4: minority at <= 25%) leave it shared.

Both outcomes must be *stable* — no further switching once settled.
"""

from conftest import SEED

from repro.core import LwgConfig
from repro.metrics import format_table, shape_check
from repro.sim import SECOND
from repro.workloads import Cluster


def run_with_params(k_m, k_c):
    config = LwgConfig()
    config.k_m = k_m
    config.k_c = k_c
    config.policy_period_us = 2 * SECOND
    cluster = Cluster(num_processes=4, seed=SEED, lwg_config=config)
    big = [cluster.service(i).join("big") for i in range(4)]
    cluster.run_for_seconds(6)
    small = [cluster.service(i).join("small") for i in range(2)]
    cluster.run_for_seconds(6)
    co_mapped_initially = small[0].hwg == big[0].hwg
    cluster.run_for_seconds(20)
    switches = sum(
        cluster.service(i).stats.switches_committed for i in range(4)
    )
    cluster.run_for_seconds(10)
    switches_late = sum(
        cluster.service(i).stats.switches_committed for i in range(4)
    )
    return {
        "k_m": k_m,
        "k_c": k_c,
        "co_mapped_initially": co_mapped_initially,
        "separated": small[0].hwg != big[0].hwg,
        "switches": switches,
        "oscillating": switches_late > switches,
        "small_ok": all(h.is_member and len(h.view.members) == 2 for h in small),
    }


def run_sweep():
    return [run_with_params(k_m, k_c) for k_m, k_c in ((4, 4), (2, 2), (8, 8))]


def test_km_kc_ablation(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print(
        format_table(
            "Ablation — k_m/k_c hysteresis on a half-size co-mapped LWG",
            ["k_m", "k_c", "separated?", "switches", "oscillating?", "healthy?"],
            [
                [r["k_m"], r["k_c"], r["separated"], r["switches"],
                 r["oscillating"], r["small_ok"]]
                for r in rows
            ],
            note="paper defaults (4,4) keep the half-size group shared; "
            "aggressive (2,2) evicts it; both must settle",
        )
    )
    paper, aggressive, conservative = rows
    checks = [
        shape_check("paper defaults (4,4) keep the 50% group co-mapped",
                    not paper["separated"]),
        shape_check("aggressive (2,2) evicts the 50% group", aggressive["separated"]),
        shape_check("conservative (8,8) keeps it co-mapped",
                    not conservative["separated"]),
        shape_check("no configuration oscillates",
                    not any(r["oscillating"] for r in rows)),
        shape_check("the small LWG stays healthy in every configuration",
                    all(r["small_ok"] for r in rows)),
    ]
    print("\n".join(checks))
    assert all(c.startswith("[PASS]") for c in checks)
