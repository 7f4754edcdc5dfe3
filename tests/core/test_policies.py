"""Tests for the Figure-1 heuristics: predicates and the policy engine."""

from repro.core import (
    LeaveHwgAction,
    LwgConfig,
    PolicyEngine,
    PolicySnapshot,
    SwitchAction,
    is_close_enough,
    is_minority,
    share_rule_applies,
)
from repro.sim.engine import SECOND


def fs(*members):
    return frozenset(members)


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------
def test_minority_requires_subset():
    assert not is_minority(fs("a", "x"), fs("a", "b", "c", "d", "e", "f", "g", "h"), 4)


def test_minority_threshold_with_km_4():
    """With k_m=4 a 2-member LWG is a minority of an 8-member HWG."""
    hwg = fs(*[f"m{i}" for i in range(8)])
    assert is_minority(fs("m0", "m1"), hwg, 4)
    assert not is_minority(fs("m0", "m1", "m2"), hwg, 4)


def test_minority_exact_boundary():
    # |g1| * k_m == |g2| counts as minority (<=).
    assert is_minority(fs("a"), fs("a", "b", "c", "d"), 4)


def test_closeness_requires_subset():
    assert not is_close_enough(fs("a", "x"), fs("a", "b", "c", "d"), 4)


def test_closeness_threshold_with_kc_4():
    """With k_c=4, a 3-of-4 subset is close (diff 1 <= 4/4)."""
    hwg = fs("a", "b", "c", "d")
    assert is_close_enough(fs("a", "b", "c"), hwg, 4)
    assert not is_close_enough(fs("a", "b"), hwg, 4)


def test_identical_membership_is_close():
    group = fs("a", "b")
    assert is_close_enough(group, group, 4)


def test_paper_hysteresis_claim():
    """Section 3.2: with k_m = k_c = 4, "for a LWG to be mapped on a HWG,
    the number of their common members must be greater than 75% of the
    size of the HWG, and the mapping remains stable until this number is
    reduced to 25%".  Figure 1's formal definitions use ``<=``, so the
    boundaries themselves (exactly 75% / exactly 25%) are inclusive."""
    hwg = fs(*[f"m{i}" for i in range(8)])
    overlap_5 = fs(*[f"m{i}" for i in range(5)])  # 62.5%: not close enough
    overlap_6 = fs(*[f"m{i}" for i in range(6)])  # 75% boundary: close
    assert not is_close_enough(overlap_5, hwg, 4)
    assert is_close_enough(overlap_6, hwg, 4)
    overlap_2 = fs("m0", "m1")  # 25% boundary: minority -> unmapped
    overlap_3 = fs("m0", "m1", "m2")  # 37.5%: stays
    assert is_minority(overlap_2, hwg, 4)
    assert not is_minority(overlap_3, hwg, 4)


def test_share_rule_fires_on_large_overlap():
    h1 = fs("a", "b", "c", "d", "x")
    h2 = fs("a", "b", "c", "d", "y")
    # k=4, n1=n2=1, sqrt(2) ~ 1.41 < 4.
    assert share_rule_applies(h1, h2, 4)


def test_share_rule_spares_minority_subset():
    small = fs("a")
    big = fs("a", "b", "c", "d", "e")
    assert not share_rule_applies(small, big, 4)


def test_share_rule_collapses_substantial_subset():
    sub = fs("a", "b", "c")
    sup = fs("a", "b", "c", "d")
    # Subset but NOT a minority: collapse (k=3 > sqrt(0)).
    assert share_rule_applies(sub, sup, 4)


def test_share_rule_needs_enough_overlap():
    h1 = fs("a", "b", "c", "d")
    h2 = fs("a", "x", "y", "z")
    # k=1, n1=n2=3, sqrt(18) ~ 4.24 > 1.
    assert not share_rule_applies(h1, h2, 4)


def test_share_rule_disjoint_groups_never_collapse():
    assert not share_rule_applies(fs("a", "b"), fs("x", "y"), 4)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
def snapshot(**kwargs):
    defaults = dict(
        node="p0",
        now_us=10_000_000,
        coordinated_lwgs={},
        hwg_members={},
        local_lwgs_per_hwg={},
        hwg_idle_since={},
        busy_lwgs=frozenset(),
    )
    defaults.update(kwargs)
    return PolicySnapshot(**defaults)


def engine(**config_kwargs):
    config = LwgConfig(**config_kwargs) if config_kwargs else LwgConfig()
    return PolicyEngine(config)


def test_empty_snapshot_no_actions():
    assert engine().evaluate(snapshot()) == []


def test_interference_rule_switches_minority_lwg_to_close_hwg():
    actions = engine().evaluate(
        snapshot(
            coordinated_lwgs={"lwg:x": (fs("p0", "p1"), "hwg:big")},
            hwg_members={
                "hwg:big": fs(*[f"p{i}" for i in range(8)]),
                "hwg:fit": fs("p0", "p1"),
            },
            local_lwgs_per_hwg={"hwg:big": 1, "hwg:fit": 0},
        )
    )
    switches = [a for a in actions if isinstance(a, SwitchAction)]
    assert len(switches) == 1
    assert switches[0].lwg == "lwg:x"
    assert switches[0].to_hwg == "hwg:fit"
    assert switches[0].reason == "interference"


def test_interference_rule_creates_new_hwg_when_no_fit():
    actions = engine().evaluate(
        snapshot(
            coordinated_lwgs={"lwg:x": (fs("p0", "p1"), "hwg:big")},
            hwg_members={"hwg:big": fs(*[f"p{i}" for i in range(8)])},
            local_lwgs_per_hwg={"hwg:big": 1},
        )
    )
    switches = [a for a in actions if isinstance(a, SwitchAction)]
    assert switches and switches[0].to_hwg is None
    assert switches[0].reason == "interference-new"


def test_interference_rule_leaves_majority_lwg_alone():
    actions = engine().evaluate(
        snapshot(
            coordinated_lwgs={"lwg:x": (fs("p0", "p1", "p2"), "hwg:h")},
            hwg_members={"hwg:h": fs("p0", "p1", "p2", "p3")},
            local_lwgs_per_hwg={"hwg:h": 1},
        )
    )
    assert not [a for a in actions if isinstance(a, SwitchAction)]


def test_interference_prefers_highest_gid_candidate():
    members = fs("p0", "p1")
    actions = engine().evaluate(
        snapshot(
            coordinated_lwgs={"lwg:x": (members, "hwg:big")},
            hwg_members={
                "hwg:big": fs(*[f"p{i}" for i in range(8)]),
                "hwg:aaa": members,
                "hwg:zzz": members,
            },
            local_lwgs_per_hwg={"hwg:big": 1},
        )
    )
    switches = [a for a in actions if isinstance(a, SwitchAction)]
    assert switches[0].to_hwg == "hwg:zzz"


def test_share_rule_switches_lwgs_off_lower_gid_hwg():
    shared = [f"p{i}" for i in range(4)]
    h1 = fs(*shared, "x")
    h2 = fs(*shared, "y")
    actions = engine().evaluate(
        snapshot(
            coordinated_lwgs={"lwg:x": (fs(*shared), "hwg:aaa")},
            hwg_members={"hwg:aaa": h1, "hwg:zzz": h2},
            local_lwgs_per_hwg={"hwg:aaa": 1, "hwg:zzz": 0},
        )
    )
    switches = [a for a in actions if isinstance(a, SwitchAction)]
    assert switches and switches[0].to_hwg == "hwg:zzz"
    assert switches[0].reason == "share"


def test_share_rule_does_not_touch_lwgs_on_winner():
    shared = [f"p{i}" for i in range(4)]
    actions = engine().evaluate(
        snapshot(
            coordinated_lwgs={"lwg:x": (fs(*shared), "hwg:zzz")},
            hwg_members={"hwg:aaa": fs(*shared, "x"), "hwg:zzz": fs(*shared, "y")},
            local_lwgs_per_hwg={"hwg:aaa": 0, "hwg:zzz": 1},
        )
    )
    share_switches = [
        a for a in actions if isinstance(a, SwitchAction) and a.reason == "share"
    ]
    assert not share_switches


def test_shrink_rule_leaves_idle_hwg_after_grace():
    # A 4 s period makes the shrink grace 2 s.
    actions = engine(policy_period_us=4 * SECOND).evaluate(
        snapshot(
            hwg_members={"hwg:idle": fs("p0", "p1")},
            local_lwgs_per_hwg={"hwg:idle": 0},
            hwg_idle_since={"hwg:idle": 0},
            now_us=10_000_000,
        )
    )
    leaves = [a for a in actions if isinstance(a, LeaveHwgAction)]
    assert leaves and leaves[0].hwg == "hwg:idle"


def test_shrink_rule_respects_grace_period():
    # A 4 s period makes the shrink grace 2 s.
    actions = engine(policy_period_us=4 * SECOND).evaluate(
        snapshot(
            hwg_members={"hwg:idle": fs("p0", "p1")},
            local_lwgs_per_hwg={"hwg:idle": 0},
            hwg_idle_since={"hwg:idle": 9_900_000},
            now_us=10_000_000,
        )
    )
    assert not [a for a in actions if isinstance(a, LeaveHwgAction)]


def test_shrink_rule_spares_used_hwgs():
    # A 4 s period makes the shrink grace 2 s.
    actions = engine(policy_period_us=4 * SECOND).evaluate(
        snapshot(
            hwg_members={"hwg:used": fs("p0", "p1")},
            local_lwgs_per_hwg={"hwg:used": 1},
            hwg_idle_since={"hwg:used": 0},
        )
    )
    assert not [a for a in actions if isinstance(a, LeaveHwgAction)]


def test_busy_lwgs_are_not_redecided():
    actions = engine().evaluate(
        snapshot(
            coordinated_lwgs={"lwg:x": (fs("p0", "p1"), "hwg:big")},
            hwg_members={"hwg:big": fs(*[f"p{i}" for i in range(8)])},
            local_lwgs_per_hwg={"hwg:big": 1},
            busy_lwgs=frozenset({"lwg:x"}),
        )
    )
    assert not [a for a in actions if isinstance(a, SwitchAction)]


def test_evaluation_is_deterministic():
    snap = snapshot(
        coordinated_lwgs={
            "lwg:x": (fs("p0", "p1"), "hwg:big"),
            "lwg:y": (fs("p0", "p2"), "hwg:big"),
        },
        hwg_members={"hwg:big": fs(*[f"p{i}" for i in range(8)])},
        local_lwgs_per_hwg={"hwg:big": 2},
    )
    e = engine()
    assert e.evaluate(snap) == e.evaluate(snap)


def test_each_lwg_switched_at_most_once_per_round():
    shared = [f"p{i}" for i in range(4)]
    snap = snapshot(
        coordinated_lwgs={"lwg:x": (fs("p0"), "hwg:aaa")},
        hwg_members={"hwg:aaa": fs(*shared, "x"), "hwg:zzz": fs(*shared, "y")},
        local_lwgs_per_hwg={"hwg:aaa": 1, "hwg:zzz": 0},
    )
    actions = engine().evaluate(snap)
    switches = [a for a in actions if isinstance(a, SwitchAction) and a.lwg == "lwg:x"]
    assert len(switches) <= 1


def test_km_parameter_changes_minority_boundary():
    hwg = fs(*[f"m{i}" for i in range(8)])
    lwg = fs("m0", "m1", "m2", "m3")  # half the HWG
    assert not is_minority(lwg, hwg, 4)
    assert is_minority(lwg, hwg, 2)


def test_lwg_on_an_hwg_we_hold_no_view_of_is_not_moved():
    """An LWG whose HWG membership is not installed (joining, leaving)
    gives neither the share nor the interference rule an overlap to
    measure."""
    big = fs(*[f"p{i}" for i in range(8)])
    actions = engine().evaluate(
        snapshot(
            coordinated_lwgs={"lwg:x": (fs("p0", "p1"), "hwg:pending")},
            hwg_members={"hwg:a": big, "hwg:b": big},
            local_lwgs_per_hwg={"hwg:a": 1, "hwg:b": 1},
        )
    )
    assert actions == []
