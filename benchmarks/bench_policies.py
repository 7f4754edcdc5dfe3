"""Figure 1: the mapping heuristics — convergence and cost.

Two claims from Section 3.2 are checked:

* **stability** — after the system converges to a good mapping, further
  policy evaluations prescribe no actions (no oscillation);
* **negligible overhead** — one policy evaluation over a realistic local
  state costs microseconds of real CPU (the paper runs it once a minute
  precisely so its cost "is negligible").

A third experiment goes past the paper: at high group counts the
Figure-1 rules converge to a mapping they can never escape (see
``repro/workloads/placement.py``), and the §19 optimizer — one greedy
pass that places each membership class whole — must beat them by at
least 20% on crash-churn flush work while carrying no more steady-state
fabric traffic than they do, asserted below.
"""

from conftest import SEED

from repro.core import LwgConfig, PolicyEngine, PolicySnapshot
from repro.metrics import format_table, shape_check
from repro.runtime.rng import RngRegistry
from repro.sim import SECOND
from repro.workloads import Cluster
from repro.workloads.placement import build_placement_scenario, measure_placement

#: Scale for the placement-policy comparison: large enough that the
#: zone collapse dominates (the paper rules are stuck paying fan-out 12
#: for 4-8 member classes), small enough that *both* flavours converge
#: at this bench's seed.  Past ~80 LWGs on the shared medium the paper
#: rules stop converging, which would leave nothing to compare against.
#: The joins are not the cause: with no policy acting they converge.
#: Policy actions during the bulk load strand joining LWGs (ROADMAP
#: item 15, which also lists failing seeds at 40 LWGs).
PLACEMENT_LWGS = 40


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
    actions_per_round = []
    for _ in range(3):
        cluster.run_for_seconds(3)
        round_actions = 0
        for node in cluster.process_ids:
            round_actions += len(cluster.service(node).run_policies_once())
        actions_per_round.append(round_actions)
    hwgs = {h.hwg for h in handles}
    return actions_per_round, hwgs, cluster


def test_figure1_policy_stability(benchmark):
    actions_per_round, hwgs, cluster = benchmark.pedantic(
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
        hwg_pinned={h: () for h in hwg_names},
    )


def test_policy_evaluation_at_scale(benchmark):
    """One evaluation of each placement policy over 200 LWGs / 12 HWGs.

    Each evaluation builds a fresh snapshot (the cached-property derived
    data is part of the cost being measured, exactly as in production
    where every policy tick starts from a new snapshot).  Wall-clock is
    the trend; the action counts are the deterministic half.
    """
    paper = PolicyEngine(LwgConfig())
    optimizer = PolicyEngine(LwgConfig(placement_policy="optimizer"))

    def run():
        return (
            len(paper.evaluate(policy_scale_snapshot(SEED))),
            len(
                optimizer.evaluate(
                    policy_scale_snapshot(SEED), mint=lambda: "hwg:minted"
                )
            ),
        )

    paper_actions, optimizer_actions = benchmark(run)
    print(f"\nactions per evaluation: paper {paper_actions}, optimizer {optimizer_actions}")
    assert paper_actions == 170
    # The optimizer's plan is larger; it is drained a bounded batch per tick.
    assert optimizer_actions == LwgConfig().placement_max_switches == 4


def run_placement_comparison():
    """Both placements over the identical Zipf-class zone scenario."""
    results = {}
    for placement in ("paper", "optimizer"):
        setup = build_placement_scenario(
            placement, num_lwgs=PLACEMENT_LWGS, seed=SEED
        )
        results[placement] = measure_placement(setup)
    return results


def test_placement_optimizer_vs_paper(benchmark):
    """§19 acceptance: over identical simulated windows, the global
    optimizer beats the stuck Figure-1 mapping by ≥20% on crash-churn
    merge/flush work and sends no more paced-phase fabric messages."""
    results = benchmark.pedantic(run_placement_comparison, rounds=1, iterations=1)
    paper, opt = results["paper"], results["optimizer"]
    data_ratio = opt.data_messages / paper.data_messages
    flush_ratio = opt.flush_messages / paper.flush_messages
    print(
        format_table(
            f"Placement at {PLACEMENT_LWGS} LWGs / 24 processes — "
            "Figure-1 rules vs §19 optimizer",
            ["metric", "paper", "optimizer", "ratio"],
            [
                ["fabric messages (paced data phase, no heartbeats)",
                 paper.data_messages, opt.data_messages, round(data_ratio, 3)],
                ["merge/flush messages (crash+recover churn)",
                 paper.flush_messages, opt.flush_messages, round(flush_ratio, 3)],
                ["HWGs in use", paper.hwg_count, opt.hwg_count, ""],
                ["largest HWG", paper.max_hwg_size, opt.max_hwg_size, ""],
            ],
        )
    )
    checks = [
        shape_check(
            "paper rules are stuck on one HWG per zone: "
            f"{paper.hwg_count} HWGs, largest {paper.max_hwg_size}",
            paper.hwg_count == 2 and paper.max_hwg_size == 12,
        ),
        shape_check(
            "optimizer peels the sub-window classes onto their own HWGs: "
            f"{opt.hwg_count} HWGs",
            opt.hwg_count > paper.hwg_count,
        ),
        # Data traffic is a cost to bound, not the headline win: the old
        # 0.79x was made of per-Publish transport acks, paid by the paper
        # side's non-sequencer senders on one 12-member HWG and by none of
        # the optimizer side's senders (each sequences its own HWG).  With
        # the sequencer's Ordered as the acknowledgement both sides pay
        # the same two datagrams per send, and the only fabric left to
        # save is the sub-classes' slack fan-out.
        shape_check(
            f"optimizer fabric messages <= 1.0x paper ({data_ratio:.3f})",
            data_ratio <= 1.0,
        ),
        shape_check(
            f"optimizer merge/flush work <= 0.8x paper ({flush_ratio:.3f})",
            flush_ratio <= 0.8,
        ),
    ]
    print("\n".join(checks))
    assert all(c.startswith("[PASS]") for c in checks)
