"""Configuration B (precursor paper [8]): overlapping group sets.

Two sets of n groups over p0..p3 and p2..p5 (p2, p3 in both).  The
dynamic heuristics must find the *partial* sharing structure: one HWG
per membership class, with the overlap processes in both — a mapping the
static design cannot express and the no-service design pays 2n groups'
worth of machinery for.
"""

import statistics

from conftest import SEED

from repro.metrics import series_table, shape_check
from repro.workloads import build_overlap, measure_latency, measure_recovery

NS = (2, 4, 8)
FLAVOURS = ("none", "static", "dynamic", "optimizer")

#: Scan rows -> (cluster flavour, placement policy).  "optimizer" is
#: the dynamic service with the §19 greedy placement pass instead of
#: the Figure-1 rules; it must find the same partial-sharing structure.
_VARIANTS = {
    "none": ("none", "paper"),
    "static": ("static", "paper"),
    "dynamic": ("dynamic", "paper"),
    "optimizer": ("dynamic", "optimizer"),
}


def class_pure(setup):
    """True if no HWG carries LWGs of both membership classes."""
    classes_on = {}
    for (group, _node), handle in setup.handles.items():
        cls = tuple(setup.groups[group])
        classes_on.setdefault(handle.hwg, set()).add(cls)
    return all(len(cs) == 1 for cs in classes_on.values())


def run_overlap_scan():
    latency = {flavour: [] for flavour in FLAVOURS}
    recovery = {flavour: [] for flavour in FLAVOURS}
    hwg_counts = {flavour: [] for flavour in FLAVOURS}
    purity = []
    for n in NS:
        for flavour in FLAVOURS:
            cluster_flavour, placement = _VARIANTS[flavour]
            setup = build_overlap(
                n=n, flavour=cluster_flavour, seed=SEED, placement=placement
            )
            hwg_counts[flavour].append(len(setup.hwgs_in_use()))
            if flavour == "optimizer":
                purity.append(class_pure(setup))
            stats = measure_latency(setup, probes_per_group=6)
            latency[flavour].append(stats.mean_us / 1000.0)
            fresh = build_overlap(
                n=n, flavour=cluster_flavour, seed=SEED, placement=placement
            )
            result = measure_recovery(fresh, victim="p3", traffic_period_us=None)
            recovery[flavour].append(result.reconfig_us / 1000.0)
    return latency, recovery, hwg_counts, purity


def test_overlap_configuration(benchmark):
    latency, recovery, hwg_counts, optimizer_purity = benchmark.pedantic(
        run_overlap_scan, rounds=1, iterations=1
    )
    print(
        series_table(
            "Configuration B — latency vs n (overlapping sets p0-p3 / p2-p5)",
            "n",
            list(NS),
            latency,
            unit="ms",
        )
    )
    print(
        series_table(
            "Configuration B — heavy-weight groups used",
            "n",
            list(NS),
            {f: [float(x) for x in hwg_counts[f]] for f in FLAVOURS},
        )
    )
    print(
        series_table(
            "Configuration B — crash recovery of an overlap member (p3) vs n",
            "n",
            list(NS),
            recovery,
            unit="ms",
            note="p3 belongs to BOTH classes: all 2n groups must reconfigure",
        )
    )
    static_lat = statistics.fmean(latency["static"])
    dynamic_lat = statistics.fmean(latency["dynamic"])
    none_lat = statistics.fmean(latency["none"])
    none_rec_first, none_rec_last = recovery["none"][0], recovery["none"][-1]
    dynamic_rec_last = recovery["dynamic"][-1]
    checks = [
        shape_check(
            "dynamic stabilises on 2 HWGs (one per membership class, "
            f"not collapsed across the 50% overlap): {hwg_counts['dynamic']}",
            all(c == 2 for c in hwg_counts["dynamic"]),
        ),
        shape_check(
            f"no-service uses 2n HWGs: {hwg_counts['none']}",
            hwg_counts["none"] == [2 * n for n in NS],
        ),
        shape_check(
            f"static latency ({static_lat:.2f}ms) >= dynamic ({dynamic_lat:.2f}ms)",
            static_lat >= dynamic_lat,
        ),
        shape_check(
            "no-service recovery grows with n "
            f"({none_rec_first:.1f} -> {none_rec_last:.1f}ms)",
            none_rec_last > 1.5 * none_rec_first,
        ),
        shape_check(
            f"dynamic recovery far below no-service at n={NS[-1]} "
            f"({dynamic_rec_last:.1f} vs {none_rec_last:.1f}ms)",
            dynamic_rec_last < 0.6 * none_rec_last,
        ),
        shape_check(
            f"dynamic latency within 30% of none ({dynamic_lat:.2f} vs {none_lat:.2f}ms)",
            dynamic_lat <= 1.3 * none_lat,
        ),
        shape_check(
            "optimizer never collapses across the 50% overlap "
            f"(every HWG single-class): {optimizer_purity}",
            all(optimizer_purity),
        ),
        shape_check(
            # The §19 fill places each membership class whole, so the
            # optimizer finds the same one-HWG-per-class structure as
            # the Figure-1 rules at every n.
            "optimizer uses one HWG per membership class: "
            f"{hwg_counts['optimizer']}",
            all(c == 2 for c in hwg_counts["optimizer"]),
        ),
        shape_check(
            "optimizer latency within 30% of the Figure-1 rules "
            f"({statistics.fmean(latency['optimizer']):.2f} vs {dynamic_lat:.2f}ms)",
            statistics.fmean(latency["optimizer"]) <= 1.3 * dynamic_lat,
        ),
    ]
    print("\n".join(checks))
    assert all(c.startswith("[PASS]") for c in checks)
