"""Figure 1: the mapping heuristics — convergence and cost.

Two claims from Section 3.2 are checked:

* **stability** — after the system converges to a good mapping, further
  policy evaluations prescribe no actions (no oscillation);
* **negligible overhead** — one policy evaluation over a realistic local
  state costs microseconds of real CPU (the paper runs it once a minute
  precisely so its cost "is negligible").

A third check goes past the paper: at high group counts the Figure-1
rules converge to one HWG per zone and can never leave it (see
``repro/workloads/placement.py``), asserted on every seed below.
"""

from conftest import SEED

from repro.core import LwgConfig, PolicyEngine, PolicySnapshot
from repro.metrics import format_table, shape_check
from repro.runtime.rng import RngRegistry
from repro.sim import SECOND
from repro.workloads import Cluster
from repro.workloads.placement import build_placement_scenario

#: Scale of the placement bed: large enough that the zone collapse
#: dominates (the paper rules are stuck paying fan-out 12 for 4-8
#: member classes), small enough to run every seed of
#: ``PLACEMENT_SEEDS`` within the job's budget.  The rules converge here
#: and at 80 LWGs because no LWG moves while a process's views are still
#: changing, so a bulk load finishes before placement starts.
PLACEMENT_LWGS = 40
#: The seeds the bed runs on: the bench seed, and the four seeds on
#: which the paper rules once stranded joining LWGs.
PLACEMENT_SEEDS = (SEED, 0, 1, 5, 6)


def build_converged_cluster(
    num_processes: int = 8,
    set_size: int = 4,
    groups_per_set: int = 3,
    settle_seconds: float = 20.0,
):
    """Disjoint `set_size`-process sets, `groups_per_set` groups on each.

    Defaults reproduce the original Figure-1 harness: 8 processes, two
    4-process sets, 3 groups per set, fast policies.
    """
    assert num_processes % set_size == 0
    config = LwgConfig()
    config.policy_period_us = 2 * SECOND
    config.shrink_grace_us = 1 * SECOND
    cluster = Cluster(num_processes=num_processes, seed=SEED, lwg_config=config)
    handles = []
    num_sets = num_processes // set_size
    for g in range(groups_per_set):
        for s in range(num_sets):
            base = s * set_size
            name = f"s{s}" if num_sets > 26 else chr(ord("a") + s)
            for i in range(base, base + set_size):
                handles.append(cluster.service(i).join(f"{name}{g}"))
    cluster.run_for_seconds(settle_seconds)
    assert all(h.is_member for h in handles)
    return cluster, handles


def run_stability():
    cluster, handles = build_converged_cluster()
    # After convergence, policy evaluations must be empty at every node.
    # A round whose LWGs were all busy (views still changing) would show
    # zero actions without the rules having looked, so record them too.
    actions_per_round = []
    busy_per_round = []
    for _ in range(3):
        cluster.run_for_seconds(3)
        round_actions = 0
        busy = set()
        for node in cluster.process_ids:
            service = cluster.service(node)
            busy |= service.build_policy_snapshot().busy_lwgs
            round_actions += len(service.run_policies_once())
        actions_per_round.append(round_actions)
        busy_per_round.append(sorted(busy))
    hwgs = {h.hwg for h in handles}
    return actions_per_round, busy_per_round, hwgs, cluster


def test_figure1_policy_stability(benchmark):
    actions_per_round, busy_per_round, hwgs, cluster = benchmark.pedantic(
        run_stability, rounds=1, iterations=1
    )
    print(
        format_table(
            "Figure 1 — policy actions after convergence (must be zero)",
            ["round", "actions prescribed (all 8 nodes)"],
            [[i + 1, count] for i, count in enumerate(actions_per_round)],
        )
    )
    checks = [
        shape_check(
            f"converged to 2 HWGs (one per membership class): {sorted(hwgs)}",
            len(hwgs) == 2,
        ),
        shape_check(
            f"no policy oscillation after convergence: {actions_per_round}",
            actions_per_round[-1] == 0,
        ),
        shape_check(
            f"every zero-action round evaluated its LWGs (none busy): {busy_per_round}",
            all(not busy for busy, count in zip(busy_per_round, actions_per_round)
                if count == 0),
        ),
    ]
    print("\n".join(checks))
    assert all(c.startswith("[PASS]") for c in checks)


def test_figure1_policy_evaluation_cost(benchmark):
    """Micro-benchmark: one evaluation over a 50-LWG/10-HWG local state."""
    members = {f"hwg:{i:02d}": frozenset(f"p{j}" for j in range(i % 6 + 2))
               for i in range(10)}
    snapshot = PolicySnapshot(
        node="p0",
        now_us=60_000_000,
        coordinated_lwgs={
            f"lwg:g{i}": (frozenset(f"p{j}" for j in range(i % 4 + 1)),
                          f"hwg:{i % 10:02d}")
            for i in range(50)
        },
        hwg_members=members,
        local_lwgs_per_hwg={h: 5 for h in members},
        hwg_idle_since={h: 0 for h in members},
    )
    engine = PolicyEngine(LwgConfig())
    result = benchmark(engine.evaluate, snapshot)
    assert isinstance(result, list)


POLICY_LWGS = 200
POLICY_PROCS = 24
POLICY_HWGS = 12


def policy_scale_snapshot(seed):
    """A high-group-count local state: 200 LWGs over 24 processes.

    Deterministic from ``seed`` alone (a dedicated RNG stream — never
    Python's hash order), shaped like the placement workload: nested
    member windows per 12-process zone, LWG counts skewed toward the
    narrow windows.
    """
    rng = RngRegistry(seed).stream("bench:policy_scale")
    procs = [f"p{i}" for i in range(POLICY_PROCS)]
    hwgs = {}
    for i in range(POLICY_HWGS):
        zone = (i % 2) * 12
        width = 4 + (i * 5) % 9  # 4..12
        hwgs[f"hwg:{i:02d}"] = frozenset(procs[zone : zone + width])
    hwg_names = sorted(hwgs)
    coordinated = {}
    for g in range(POLICY_LWGS):
        hwg = hwg_names[rng.randrange(POLICY_HWGS)]
        pool = sorted(hwgs[hwg])
        width = max(1, len(pool) - rng.randrange(3))
        coordinated[f"lwg:g{g:03d}"] = (frozenset(pool[:width]), hwg)
    return PolicySnapshot(
        node="p0",
        now_us=60 * SECOND,
        coordinated_lwgs=coordinated,
        hwg_members=hwgs,
        local_lwgs_per_hwg={
            h: sum(1 for _, (_, u) in coordinated.items() if u == h)
            for h in hwg_names
        },
        hwg_idle_since={h: 0 for h in hwg_names},
    )


def test_policy_evaluation_at_scale(benchmark):
    """One evaluation of the Figure-1 rules over 200 LWGs / 12 HWGs.

    Each evaluation builds a fresh snapshot (the cached-property derived
    data is part of the cost being measured, exactly as in production
    where every policy tick starts from a new snapshot).  Wall-clock is
    the trend; the action count is the deterministic half.
    """
    engine = PolicyEngine(LwgConfig())

    def run():
        return len(engine.evaluate(policy_scale_snapshot(SEED)))

    actions = benchmark(run)
    print(f"\nactions per evaluation: {actions}")
    assert actions == 170


def largest_hwg(cluster):
    """Largest HWG membership seen from any process."""
    return max(
        len(endpoint.current_view.members)
        for node in cluster.process_ids
        for endpoint in cluster.stack(node).endpoints.values()
        if endpoint.current_view is not None
    )


def run_placement_bed():
    """The converged bed's HWG count and largest HWG, per seed."""
    results = {}
    for seed in PLACEMENT_SEEDS:
        setup = build_placement_scenario(num_lwgs=PLACEMENT_LWGS, seed=seed)
        results[seed] = (len(setup.hwgs_in_use()), largest_hwg(setup.cluster))
    return results


def test_paper_rules_stuck_on_one_hwg_per_zone(benchmark):
    """On every seed the Figure-1 rules drive each 12-process zone onto
    one HWG and keep it there."""
    results = benchmark.pedantic(run_placement_bed, rounds=1, iterations=1)
    checks = []
    for seed, (hwg_count, largest) in results.items():
        print(
            format_table(
                f"Placement at {PLACEMENT_LWGS} LWGs / 24 processes, seed {seed} — "
                "Figure-1 rules",
                ["metric", "paper"],
                [["HWGs in use", hwg_count], ["largest HWG", largest]],
            )
        )
        checks.append(
            shape_check(
                "paper rules are stuck on one HWG per zone: "
                f"{hwg_count} HWGs, largest {largest}",
                hwg_count == 2 and largest == 12,
            )
        )
    print("\n".join(checks))
    assert all(c.startswith("[PASS]") for c in checks)
