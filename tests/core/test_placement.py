"""Tests of the global placement optimizer (repro.core.placement).

Three layers:

* unit tests pinning the deterministic tie-breaks the greedy fill
  promises (sorted candidate order, anchors-before-fresh, stickiness)
  and that a membership class is never split;
* property tests (Hypothesis) over random PlacementViews: every plan
  respects the k_m/k_c overlap constraints, assignments are total,
  classes stay whole and planning is a pure function of the view;
* policy-level tests of the SwitchAction adapter: hysteresis gate,
  rate limit, fresh-group minting, and a cross-process determinism
  check that re-plans a fixed view under different PYTHONHASHSEEDs.
"""

import json
import os
import subprocess
import sys
import textwrap

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import LwgConfig, PolicyEngine, PolicySnapshot, SwitchAction
from repro.core import placement
from repro.core.placement import (
    HYSTERESIS,
    OptimizerPlacementPolicy,
    PlacementOptimizer,
    PlacementView,
    is_fresh_key,
)
from repro.workloads.placement import zipf_classes

PROCS = [f"p{i}" for i in range(10)]


def fs(*names):
    return frozenset(names)


def view(lwgs, current, anchors, pinned=None):
    return PlacementView(
        lwgs=tuple(sorted(lwgs)),
        current=dict(current),
        anchors=tuple(sorted(anchors)),
        pinned={a: tuple((pinned or {}).get(a, ())) for a in anchors},
    )


def final_groups(view_, plan):
    """key -> (movable cargo sets, moved-in sets, union incl. pinned)."""
    groups = {}
    members_of = dict(view_.lwgs)
    for lwg, key in plan.assignment.items():
        cargo, moved, union = groups.setdefault(key, ([], [], set()))
        m = members_of[lwg]
        cargo.append(m)
        union.update(m)
        anchored = not is_fresh_key(key)
        if not anchored or view_.current.get(lwg) != key:
            moved.append(m)
    for key, (cargo, moved, union) in groups.items():
        for m in view_.pinned.get(key, ()):
            cargo.append(m)
            union.update(m)
    return groups


# ----------------------------------------------------------------------
# Deterministic tie-breaks
# ----------------------------------------------------------------------
class TestTieBreaks:
    def test_equal_cost_anchors_pick_lexicographically_smallest(self):
        # Two empty anchors are perfectly symmetric targets.
        v = view(
            lwgs=[("lwg:g", fs("p0", "p1", "p2", "p3"))],
            current={"lwg:g": None},
            anchors=["hwg:a", "hwg:b"],
        )
        plan = PlacementOptimizer(LwgConfig()).plan(v)
        assert plan.assignment["lwg:g"] == "hwg:a"

    def test_anchor_beats_equal_cost_fresh_group(self):
        # A single empty anchor costs exactly what a fresh group costs
        # (same HWG_COST charge, same fan-out) — the anchor must win so
        # the system reuses HWGs instead of minting churn.
        v = view(
            lwgs=[("lwg:g", fs("p0", "p1", "p2", "p3"))],
            current={"lwg:g": None},
            anchors=["hwg:a"],
        )
        plan = PlacementOptimizer(LwgConfig()).plan(v)
        assert plan.assignment["lwg:g"] == "hwg:a"
        assert not plan.fresh_groups

    def test_stickiness_prefers_current_anchor_on_cost_ties(self):
        # Both anchors carry identical pinned cargo, so the cost deltas
        # are equal; the class currently rides hwg:b and must stay there
        # (lexicographic order alone would migrate it to hwg:a).
        pin = fs("p0", "p1", "p2", "p3")
        v = view(
            lwgs=[("lwg:g", pin)],
            current={"lwg:g": "hwg:b"},
            anchors=["hwg:a", "hwg:b"],
            pinned={"hwg:a": [pin], "hwg:b": [pin]},
        )
        plan = PlacementOptimizer(LwgConfig()).plan(v)
        assert plan.assignment["lwg:g"] == "hwg:b"
        assert plan.moves(v) == []

    def test_identical_views_yield_identical_plans(self):
        v = view(
            lwgs=[
                ("lwg:a", fs("p0", "p1", "p2", "p3", "p4", "p5")),
                ("lwg:b", fs("p0", "p1", "p2", "p3", "p4", "p5")),
                ("lwg:c", fs(*PROCS)),
            ],
            current={"lwg:a": "hwg:z", "lwg:b": "hwg:z", "lwg:c": "hwg:z"},
            anchors=["hwg:z"],
        )
        opt = PlacementOptimizer(LwgConfig())
        p1, p2 = opt.plan(v), opt.plan(v)
        assert p1.assignment == p2.assignment
        assert p1.fresh_groups == p2.fresh_groups
        assert p1.cost == p2.cost


# ----------------------------------------------------------------------
# The motivating scenario: peel a stuck sub-class off the zone HWG
# ----------------------------------------------------------------------
def test_separates_subclasses_the_paper_rules_are_stuck_with():
    # 12-process zone HWG carrying two sub-window classes (6- and
    # 8-member) plus a zone-spanning LWG.  Neither sub-class is ever a
    # k_m=4 minority (6*4 > 12) so the interference rule never moves
    # them — but every sub-class message fans out to 12.  The optimizer
    # must take the sub-classes off the 12-wide union (which group keeps
    # the anchor is its choice; the right-sized unions are what matter).
    zone = fs(*[f"p{i}" for i in range(12)])
    sub_a = fs(*[f"p{i}" for i in range(6)])
    sub_b = fs(*[f"p{i}" for i in range(8)])
    lwg_class = {
        "lwg:a0": sub_a,
        "lwg:a1": sub_a,
        "lwg:a2": sub_a,
        "lwg:b0": sub_b,
        "lwg:b1": sub_b,
        "lwg:z": zone,
    }
    v = view(
        lwgs=list(lwg_class.items()),
        current={l: "hwg:zone" for l in lwg_class},
        anchors=["hwg:zone"],
    )
    plan = PlacementOptimizer(LwgConfig()).plan(v)
    assert plan.cost < plan.current_cost
    # Each membership class stays together...
    by_class = {}
    for lwg, members in lwg_class.items():
        by_class.setdefault(members, set()).add(plan.assignment[lwg])
    for members, targets in by_class.items():
        assert len(targets) == 1, (sorted(members), targets)
    # ...and no sub-class rides a union wider than the 8-member window.
    groups = final_groups(v, plan)
    for members in (sub_a, sub_b):
        (target,) = by_class[members]
        assert len(groups[target][2]) <= 8, (sorted(members), target)


# ----------------------------------------------------------------------
# A membership class is placed whole
# ----------------------------------------------------------------------
def test_identical_member_sets_plan_into_one_group():
    # Two LWGs over the same 10 processes, no anchors: one fresh group
    # (64 + 20·10 = 264) beats two (2·64 + 2·10·10 = 328).
    v = view(
        lwgs=[("lwg:g0", fs(*PROCS)), ("lwg:g1", fs(*PROCS))],
        current={"lwg:g0": None, "lwg:g1": None},
        anchors=[],
    )
    plan = PlacementOptimizer(LwgConfig()).plan(v)
    assert plan.assignment["lwg:g0"] == plan.assignment["lwg:g1"]
    assert plan.cost == 264


def test_zipf_zone_keeps_the_heavy_class_whole():
    # One zone of the placement workload at 40 LWGs, collapsed onto its
    # zone HWG as the Figure-1 rules leave it.  The heaviest class (9
    # LWGs over 6 members) must land in a single group.
    classes = [c for c in zipf_classes(num_lwgs=40) if c.zone == 0]
    lwgs = [
        (f"lwg:{cls.group_name(j)}", frozenset(cls.members))
        for cls in classes
        for j in range(cls.count)
    ]
    v = view(lwgs=lwgs, current={l: "hwg:zone" for l, _ in lwgs}, anchors=["hwg:zone"])
    plan = PlacementOptimizer(LwgConfig()).plan(v)
    (heavy,) = [c for c in classes if c.count == 9]
    assert len(heavy.members) == 6
    targets = {plan.assignment[f"lwg:{g}"] for g in heavy.group_names}
    assert len(targets) == 1, targets
    assert plan.cost < plan.current_cost


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------
procs = st.sampled_from(PROCS)
member_sets = st.frozensets(procs, min_size=1, max_size=10)


@st.composite
def placement_views(draw):
    anchors = [f"hwg:{i:02d}" for i in range(draw(st.integers(0, 3)))]
    pinned = {
        a: tuple(draw(st.lists(member_sets, max_size=2))) for a in anchors
    }
    lwgs = []
    current = {}
    for i in range(draw(st.integers(1, 6))):
        lwg = f"lwg:g{i}"
        lwgs.append((lwg, draw(member_sets)))
        current[lwg] = draw(
            st.one_of(st.none(), st.sampled_from(anchors)) if anchors else st.none()
        )
    return view(lwgs, current, anchors, pinned)


@settings(max_examples=150, deadline=None)
@given(v=placement_views())
def test_plan_assignment_is_total_and_consistent(v):
    plan = PlacementOptimizer(LwgConfig()).plan(v)
    assert set(plan.assignment) == {lwg for lwg, _ in v.lwgs}
    for lwg, key in plan.assignment.items():
        assert key in v.anchors or is_fresh_key(key)
    # fresh_groups is exactly the fresh side of the assignment.
    from_assignment = {}
    for lwg, key in sorted(plan.assignment.items()):
        if is_fresh_key(key):
            from_assignment.setdefault(key, []).append(lwg)
    assert {k: tuple(v_) for k, v_ in from_assignment.items()} == plan.fresh_groups


@settings(max_examples=150, deadline=None)
@given(v=placement_views(), k_m=st.integers(2, 6), k_c=st.integers(2, 6))
def test_plan_respects_overlap_constraints(v, k_m, k_c):
    config = LwgConfig(k_m=k_m, k_c=k_c)
    plan = PlacementOptimizer(config).plan(v)
    for key, (cargo, moved, union) in final_groups(v, plan).items():
        has_movable = any(
            plan.assignment[lwg] == key for lwg, _ in v.lwgs
        )
        if not has_movable:
            continue  # untouched anchor: its pinned state is not ours
        u = len(union)
        # Retention floor: no cargo (movable or pinned) may be a
        # minority of the union the optimizer itself built.
        for m in cargo:
            assert len(m) * k_m > u, (key, sorted(m), u)
        # Admission ceiling: every moved-in set must be close enough.
        for m in moved:
            assert (u - len(m)) * k_c <= u, (key, sorted(m), u)


@settings(max_examples=150, deadline=None)
@given(v=placement_views())
@example(
    v=view(
        lwgs=[("lwg:g0", fs(*PROCS)), ("lwg:g1", fs(*PROCS))],
        current={"lwg:g0": None, "lwg:g1": None},
        anchors=[],
    )
)
def test_moving_plan_keeps_each_membership_class_whole(v):
    plan = PlacementOptimizer(LwgConfig()).plan(v)
    if not plan.moves(v):
        return  # "change nothing" keeps whatever split the view has
    targets = {}
    for lwg, m in v.lwgs:
        targets.setdefault(m, set()).add(plan.assignment[lwg])
    for m, keys in targets.items():
        assert len(keys) == 1, (sorted(m), keys)


@settings(max_examples=100, deadline=None)
@given(v=placement_views())
def test_planning_is_deterministic(v):
    opt = PlacementOptimizer(LwgConfig())
    p1, p2 = opt.plan(v), opt.plan(v)
    assert p1.assignment == p2.assignment
    assert p1.cost == p2.cost
    assert p1.current_cost == p2.current_cost


@settings(max_examples=100, deadline=None)
@given(v=placement_views())
@example(
    # Found by ``--hypothesis-profile explore --hypothesis-seed=3``: the
    # first plan splits the two identical 10-member LWGs, and re-planning
    # from that state used to end above the cost it started from.
    v=view(
        lwgs=[
            ("lwg:g0", fs(*PROCS)),
            ("lwg:g1", fs(*PROCS)),
            ("lwg:g2", fs("p0")),
            ("lwg:g3", fs("p0", "p1", "p2", "p7", "p8")),
            ("lwg:g4", fs("p0", "p1", "p2", "p7", "p8")),
            ("lwg:g5", fs(*PROCS[:7])),
        ],
        current={f"lwg:g{i}": None for i in range(6)},
        anchors=["hwg:00"],
    )
)
def test_replanning_an_applied_plan_never_regresses(v):
    # Apply the plan as the new current assignment (fresh keys become
    # real anchors) and re-plan: the second plan must not cost more —
    # the plan always admits "change nothing".
    opt = PlacementOptimizer(LwgConfig())
    plan = opt.plan(v)
    renamed = {
        key: (key if not is_fresh_key(key) else f"hwg:f{key[-3:]}")
        for key in set(plan.assignment.values())
    }
    applied = view(
        lwgs=v.lwgs,
        current={lwg: renamed[key] for lwg, key in plan.assignment.items()},
        anchors=sorted(set(renamed.values()) | set(v.anchors)),
        pinned={a: v.pinned.get(a, ()) for a in set(renamed.values()) | set(v.anchors)},
    )
    replan = opt.plan(applied)
    assert replan.cost <= replan.current_cost + 1e-6


# ----------------------------------------------------------------------
# Policy adapter: hysteresis, rate limit, minting
# ----------------------------------------------------------------------
def zone_snapshot(zone_lwgs=1, foreign=0, **config_kwargs):
    """The motivating scenario as a PolicySnapshot (three classes).

    ``zone_lwgs`` LWGs span the zone; ``foreign`` more zone-wide LWGs are
    pinned on the zone HWG (coordinated elsewhere, so not ours to move).
    """
    zone = fs(*[f"p{i}" for i in range(12)])
    sub_a = fs(*[f"p{i}" for i in range(6)])
    sub_b = fs(*[f"p{i}" for i in range(8)])
    coordinated = {
        "lwg:a0": (sub_a, "hwg:zone"),
        "lwg:a1": (sub_a, "hwg:zone"),
        "lwg:a2": (sub_a, "hwg:zone"),
        "lwg:b0": (sub_b, "hwg:zone"),
        "lwg:b1": (sub_b, "hwg:zone"),
    }
    for j in range(zone_lwgs):
        coordinated[f"lwg:z{j}"] = (zone, "hwg:zone")
    pinned = tuple((f"lwg:foreign{j}", zone) for j in range(foreign))
    return (
        PolicySnapshot(
            node="p0",
            now_us=0,
            coordinated_lwgs=coordinated,
            hwg_members={"hwg:zone": zone},
            local_lwgs_per_hwg={"hwg:zone": len(coordinated)},
            hwg_idle_since={"hwg:zone": 0},
            hwg_pinned={"hwg:zone": pinned},
        ),
        LwgConfig(placement_policy="optimizer", **config_kwargs),
    )


def test_policy_emits_switches_with_shared_minted_hwg():
    snap, config = zone_snapshot()
    minted = []

    def mint():
        minted.append(f"hwg:minted:{len(minted)}")
        return minted[-1]

    actions = OptimizerPlacementPolicy(config).evaluate(snap, mint=mint)
    switches = [a for a in actions if isinstance(a, SwitchAction)]
    assert switches
    # One mint per fresh placement group, and LWGs of one membership
    # class land on the SAME minted HWG (not one each).
    targets = {a.to_hwg for a in switches}
    assert len(minted) == len(targets & set(minted))
    by_class = {}
    for a in switches:
        members, _ = snap.coordinated_lwgs[a.lwg]
        by_class.setdefault(members, set()).add(a.to_hwg)
    for members, class_targets in by_class.items():
        assert len(class_targets) == 1, (sorted(members), class_targets)


def test_policy_rate_limits_switches_per_evaluation():
    # Three zone-wide LWGs keep the anchor; both sub-classes (five LWGs)
    # move to one fresh group — more moves than the cap of two.
    snap, config = zone_snapshot(zone_lwgs=3, placement_max_switches=2)
    policy = OptimizerPlacementPolicy(config)
    view = PlacementView.from_snapshot(snap)
    assert len(policy.optimizer.plan(view).moves(view)) == 5
    actions = policy.evaluate(snap, mint=lambda: "hwg:new")
    assert len([a for a in actions if isinstance(a, SwitchAction)]) == 2


def test_policy_hysteresis_gate_blocks_marginal_plans():
    # Ten foreign zone-wide LWGs inflate the current cost; the plan still
    # gains 72 by peeling the sub-classes off, but that is under 5 %.
    snap, config = zone_snapshot(foreign=10)
    policy = OptimizerPlacementPolicy(config)
    view = PlacementView.from_snapshot(snap)
    plan = policy.optimizer.plan(view)
    assert plan.moves(view)
    assert 0 < plan.gain < HYSTERESIS * plan.current_cost
    assert policy.evaluate(snap, mint=lambda: "hwg:new") == []


def test_policy_min_gain_floor_blocks_tiny_plans(monkeypatch):
    # The motivating scenario clears the 5 % gate by a wide margin; an
    # absolute floor above its gain must still block every switch.
    snap, config = zone_snapshot()
    policy = OptimizerPlacementPolicy(config)
    view = PlacementView.from_snapshot(snap)
    plan = policy.optimizer.plan(view)
    assert plan.moves(view)
    assert plan.gain >= HYSTERESIS * plan.current_cost
    monkeypatch.setattr(placement, "MIN_GAIN", plan.gain + 1)
    assert policy.evaluate(snap, mint=lambda: "hwg:new") == []


def test_policy_never_switches_onto_current_hwg():
    snap, config = zone_snapshot()
    actions = OptimizerPlacementPolicy(config).evaluate(snap, mint=lambda: "hwg:new")
    for a in actions:
        if isinstance(a, SwitchAction):
            _, underlying = snap.coordinated_lwgs[a.lwg]
            assert a.to_hwg != underlying


def test_policy_engine_routes_to_optimizer():
    snap, config = zone_snapshot()
    engine = PolicyEngine(config)
    actions = engine.evaluate(snap, mint=lambda: "hwg:new")
    assert any(
        isinstance(a, SwitchAction) and a.reason == "placement" for a in actions
    )
    # The paper engine on the same snapshot is fully stuck (that is the
    # scenario's point): no switch actions at all.
    paper = PolicyEngine(LwgConfig()).evaluate(snap)
    assert not any(isinstance(a, SwitchAction) for a in paper)


def test_policy_reaches_fixed_point_under_repeated_evaluation():
    # Apply emitted switches back into the snapshot until quiescence;
    # hysteresis + strict-improvement must terminate quickly.
    snap, config = zone_snapshot()
    coordinated = dict(snap.coordinated_lwgs)
    hwg_members = dict(snap.hwg_members)
    policy = OptimizerPlacementPolicy(config)
    counter = [0]

    def mint():
        counter[0] += 1
        return f"hwg:minted:{counter[0]:02d}"

    for _ in range(10):
        snap = PolicySnapshot(
            node="p0",
            now_us=0,
            coordinated_lwgs=dict(coordinated),
            hwg_members=dict(hwg_members),
            local_lwgs_per_hwg={
                h: sum(1 for _, (_, u) in coordinated.items() if u == h)
                for h in hwg_members
            },
            hwg_idle_since={h: 0 for h in hwg_members},
        )
        switches = [
            a for a in policy.evaluate(snap, mint=mint) if isinstance(a, SwitchAction)
        ]
        if not switches:
            break
        for a in switches:
            members, _ = coordinated[a.lwg]
            coordinated[a.lwg] = (members, a.to_hwg)
        # Recompute HWG membership as the union of its cargo (the
        # steady state the switch/shrink machinery converges to).
        hwg_members = {}
        for members, hwg in coordinated.values():
            hwg_members[hwg] = hwg_members.get(hwg, frozenset()) | members
    else:
        raise AssertionError("no fixed point within 10 evaluations")


# ----------------------------------------------------------------------
# Cross-process determinism (PYTHONHASHSEED independence)
# ----------------------------------------------------------------------
_HASHSEED_PROBE = textwrap.dedent(
    """
    import json
    from repro.core import LwgConfig
    from repro.core.placement import PlacementOptimizer, PlacementView

    def fs(*names):
        return frozenset(names)

    zone = fs(*[f"p{i}" for i in range(12)])
    subs = [fs(*[f"p{i}" for i in range(n)]) for n in (4, 5, 6, 7, 8)]
    lwgs = [("lwg:z", zone)] + [
        (f"lwg:s{i}{j}", m) for i, m in enumerate(subs) for j in range(3)
    ]
    view = PlacementView(
        lwgs=tuple(sorted(lwgs)),
        current={lwg: "hwg:zone" for lwg, _ in lwgs},
        anchors=("hwg:zone",),
        pinned={"hwg:zone": ()},
    )
    plan = PlacementOptimizer(LwgConfig()).plan(view)
    print(json.dumps({
        "assignment": sorted(plan.assignment.items()),
        "fresh": sorted((k, list(v)) for k, v in plan.fresh_groups.items()),
        "cost": round(plan.cost, 9),
    }, sort_keys=True))
    """
)


def test_plan_is_independent_of_pythonhashseed():
    outputs = set()
    for seed in ("0", "1", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env.setdefault("PYTHONPATH", "src")
        result = subprocess.run(
            [sys.executable, "-c", _HASHSEED_PROBE],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.add(result.stdout.strip())
    assert len(outputs) == 1, outputs
    assert json.loads(outputs.pop())["assignment"]
