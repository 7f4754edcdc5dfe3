"""Global LWG→HWG placement: one greedy pass over membership classes.

The paper's Figure-1 rules (share/interference/shrink) are greedy and
strictly *local*: each evaluates one LWG or one HWG pair against the
current configuration.  At high group counts they settle into mappings
with avoidable HWGs and oversized multicast fan-out — an LWG that rides
an HWG at 40% coverage is inside the hysteresis band (neither minority
nor close-enough elsewhere), so no rule ever moves it, yet every one of
its messages is delivered to the 60% of the HWG that doesn't care.

This module instead plans the whole mapping at once: place every LWG we
coordinate into a *placement group* (an existing HWG or a fresh one) so
that the global cost

    cost(P) = HWG_COST · |chargeable groups| + Σ_g load(g) · |union(g)|

is low, subject to the paper's §3.2 overlap constraints on every
group's membership union ``U``:

* retention floor (``k_m``): no cargo member-set ``m`` may be a
  minority of ``U`` — ``|m| · k_m > |U|`` (the interference rule would
  evict it);
* admission ceiling (``k_c``): every cargo set *moved* into the group
  must be close enough — ``(|U| − |m|) · k_c ≤ |U|`` (the paper admits
  an LWG onto an HWG only above this coverage).

``load(g)`` uses ``|members|`` as the traffic-weight proxy (every
member is a potential sender), ``union(g)`` is the projected HWG
membership (cargo unions — residual members drain via the shrink
rule), and a group is *chargeable* when our movable cargo alone keeps
it alive (fresh groups, or anchored HWGs with no foreign cargo).

Algorithm: LWGs with identical member sets are interchangeable, so they
form one *membership class* and are placed whole.  Classes go heaviest
first; each lands on the feasible candidate — every group planned so
far in key order, plus one fresh group — with the smallest cost delta,
ties going to the group already carrying most of the class, then to
anchors over fresh groups, then to the smaller key.  There is no
refinement pass.  Every container is iterated in sorted order, so the
result is a pure function of the input, independent of
``PYTHONHASHSEED``.

The surrounding machinery is unchanged: the optimizer emits the same
``SwitchAction`` vocabulary as the Figure-1 rules (rate-limited per
evaluation), the shrink rule still produces ``LeaveHwgAction``s, and a
hysteresis gate (the plan must beat the current assignment by
:data:`HYSTERESIS` of its cost, and by at least :data:`MIN_GAIN`) makes
repeated evaluation converge to a fixed point instead of chasing
marginal rearrangements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..naming.records import HwgId, LwgId
from ..vsync.view import ProcessId
from .config import LwgConfig
from .policies import PolicySnapshot, SwitchAction

Members = FrozenSet[ProcessId]

#: Key prefix for planned-but-not-yet-minted placement groups.  Never
#: collides with real HWG ids (``hwg:...``).
_FRESH_PREFIX = "fresh:"

#: Cost of keeping one HWG alive for our cargo alone (membership
#: beacons, failure detection, view machinery), in fan-out units.
HWG_COST = 64.0

#: A plan is acted on only if it beats the current assignment by this
#: fraction of its cost, and by at least :data:`MIN_GAIN` cost units.
HYSTERESIS = 0.05
MIN_GAIN = 1.0


@dataclass(frozen=True)
class PlacementView:
    """The optimizer's pure input: who we may move, and where.

    Attributes:
        lwgs: (lwg, members) for every LWG we coordinate and may move,
            sorted by LWG id.
        current: lwg -> the anchor it currently rides (None when its
            HWG is not among the known anchors).
        anchors: sorted candidate target HWGs (the ones we belong to).
        pinned: anchor -> member sets of cargo we must not move (LWGs
            coordinated elsewhere, or mid-switch) — they stay in the
            group's union whatever we decide.
    """

    lwgs: Tuple[Tuple[LwgId, Members], ...]
    current: Dict[LwgId, Optional[HwgId]]
    anchors: Tuple[HwgId, ...]
    pinned: Dict[HwgId, Tuple[Members, ...]]

    @staticmethod
    def from_snapshot(snap: PolicySnapshot) -> "PlacementView":
        movable: List[Tuple[LwgId, Members]] = []
        current: Dict[LwgId, Optional[HwgId]] = {}
        for lwg in sorted(snap.coordinated_lwgs):
            if lwg in snap.busy_lwgs:
                continue
            members, hwg = snap.coordinated_lwgs[lwg]
            if not members:
                continue
            movable.append((lwg, members))
            current[lwg] = hwg if hwg in snap.hwg_members else None
        movable_ids = set(current)
        anchors = tuple(sorted(snap.hwg_members))
        pinned: Dict[HwgId, Tuple[Members, ...]] = {}
        for hwg in anchors:
            pinned[hwg] = tuple(
                m
                for lwg, m in snap.hwg_pinned.get(hwg, ())
                if lwg not in movable_ids and m
            )
        return PlacementView(tuple(movable), current, anchors, pinned)


@dataclass(frozen=True)
class PlacementPlan:
    """The optimizer's output: a target assignment and its cost."""

    #: lwg -> target group key (an anchor HWG id, or a ``fresh:NNN`` key).
    assignment: Dict[LwgId, str]
    #: fresh group key -> its lwgs, sorted (all share ONE minted HWG).
    fresh_groups: Dict[str, Tuple[LwgId, ...]]
    cost: float
    current_cost: float

    @property
    def gain(self) -> float:
        return self.current_cost - self.cost

    def moves(self, view: PlacementView) -> List[Tuple[LwgId, str]]:
        """(lwg, target key) for every LWG the plan relocates, sorted."""
        out = []
        for lwg, _ in view.lwgs:
            target = self.assignment[lwg]
            if target != view.current.get(lwg):
                out.append((lwg, target))
        return out


def is_fresh_key(key: str) -> bool:
    return key.startswith(_FRESH_PREFIX)


class _Slot:
    """One placement group as it fills: its union, load and the
    smallest cargo sizes the feasibility band keys on."""

    __slots__ = ("anchor", "pinned", "union", "load", "lwg_count", "min_size", "min_moved")

    def __init__(self, anchor: Optional[HwgId], pinned_sets: Sequence[Members]):
        self.anchor = anchor
        self.pinned = bool(pinned_sets)
        self.union = set().union(*pinned_sets)
        self.load = float(sum(len(m) for m in pinned_sets))
        self.lwg_count = 0
        #: Smallest cargo set (pinned or movable), and smallest moved-in set.
        self.min_size: Optional[int] = min((len(m) for m in pinned_sets), default=None)
        self.min_moved: Optional[int] = None

    @property
    def chargeable(self) -> bool:
        return self.lwg_count > 0 and not self.pinned

    def cost(self) -> float:
        return (HWG_COST if self.chargeable else 0.0) + self.load * len(self.union)

    def union_after(self, m: Members) -> int:
        return len(self.union) + sum(1 for p in m if p not in self.union)

    def feasible_after_add(self, m: Members, moved: bool, k_m: int, k_c: int) -> bool:
        """Would the group still satisfy the k_m/k_c band with ``m`` added?"""
        u = self.union_after(m)
        min_all = len(m) if self.min_size is None else min(self.min_size, len(m))
        if min_all * k_m <= u:
            return False  # some cargo becomes a minority of the union
        mc = self.min_moved
        if moved:
            mc = len(m) if mc is None else min(mc, len(m))
        return mc is None or (u - mc) * k_c <= u

    def add_delta(self, m: Members, count: int) -> float:
        """Cost delta of adding ``count`` LWGs over ``m``."""
        charge = HWG_COST if (self.lwg_count == 0 and not self.pinned) else 0.0
        grown = (self.load + len(m) * count) * self.union_after(m)
        return charge + grown - self.load * len(self.union)

    def add(self, m: Members, count: int, moved: bool) -> None:
        self.union.update(m)
        self.load += len(m) * count
        self.lwg_count += count
        self.min_size = len(m) if self.min_size is None else min(self.min_size, len(m))
        if moved:
            self.min_moved = len(m) if self.min_moved is None else min(self.min_moved, len(m))


class PlacementOptimizer:
    """Deterministic class-by-class placement over a :class:`PlacementView`."""

    def __init__(self, config: Optional[LwgConfig] = None):
        self.config = config or LwgConfig()

    def plan(self, view: PlacementView) -> PlacementPlan:
        """Compute the target assignment for ``view`` (pure function)."""
        slots, assign = self._fill(view)
        plan_cost = sum(s.cost() for s in slots.values())
        current_slots = self._current_slots(view)
        current_cost = sum(s.cost() for s in current_slots.values())
        if plan_cost > current_cost and self._may_stay(view, current_slots):
            # The fill ended above where it started: change nothing.
            assign = {lwg: view.current[lwg] for lwg, _ in view.lwgs}
            plan_cost = current_cost
        assignment = dict(sorted(assign.items()))
        fresh: Dict[str, List[LwgId]] = {}
        for lwg, key in assignment.items():
            if is_fresh_key(key):
                fresh.setdefault(key, []).append(lwg)
        fresh_groups = {k: tuple(sorted(v)) for k, v in sorted(fresh.items())}
        return PlacementPlan(
            assignment=assignment,
            fresh_groups=fresh_groups,
            cost=plan_cost,
            current_cost=current_cost,
        )

    def _fill(self, view: PlacementView) -> Tuple[Dict[str, _Slot], Dict[LwgId, str]]:
        """Place each membership class whole, heaviest class first."""
        k_m, k_c = self.config.k_m, self.config.k_c
        slots = self._base_slots(view)
        assign: Dict[LwgId, str] = {}
        classes: Dict[Members, List[LwgId]] = {}
        for lwg, m in view.lwgs:
            classes.setdefault(m, []).append(lwg)
        ordered = sorted(
            classes.items(),
            key=lambda item: (-len(item[0]) * len(item[1]), tuple(sorted(item[0]))),
        )
        for members, lwgs in ordered:
            count = len(lwgs)
            # Every slot past the anchors is a fresh group planned so far.
            fresh_key = f"{_FRESH_PREFIX}{len(slots) - len(view.anchors):03d}"
            # (Δcost, −LWGs of the class already on it, fresh?, key)
            best = (HWG_COST + len(members) * count * len(members), 0, True, fresh_key)
            for key in sorted(slots):
                slot = slots[key]
                riding = 0
                if slot.anchor is not None:
                    riding = sum(1 for lwg in lwgs if view.current.get(lwg) == slot.anchor)
                if not slot.feasible_after_add(members, riding < count, k_m, k_c):
                    continue
                candidate = (slot.add_delta(members, count), -riding, slot.anchor is None, key)
                if candidate < best:
                    best = candidate
            _, neg_riding, _, key = best
            if key == fresh_key:
                slots[key] = _Slot(None, ())
            slots[key].add(members, count, moved=-neg_riding < count)
            for lwg in lwgs:
                assign[lwg] = key
        return slots, assign

    def _current_slots(self, view: PlacementView) -> Dict[str, _Slot]:
        """The *current* assignment under the same projection."""
        slots = self._base_slots(view)
        for lwg, m in view.lwgs:
            cur = view.current.get(lwg)
            if cur is None:
                # Unknown anchor: charge it as its own fresh group.
                cur = _FRESH_PREFIX + "cur:" + lwg
                slots[cur] = _Slot(None, ())
            slots[cur].add(m, 1, moved=False)
        return slots

    def _may_stay(self, view: PlacementView, current_slots: Dict[str, _Slot]) -> bool:
        """Is "change nothing" an admissible plan?

        Only when every LWG rides a known anchor and no occupied group
        breaks the k_m retention floor: an infeasible status quo must be
        left even at a higher cost.
        """
        if any(view.current.get(lwg) is None for lwg, _ in view.lwgs):
            return False
        return all(
            (slot.min_size or 0) * self.config.k_m > len(slot.union)
            for slot in current_slots.values()
            if slot.lwg_count
        )

    @staticmethod
    def _base_slots(view: PlacementView) -> Dict[str, _Slot]:
        return {
            anchor: _Slot(anchor, view.pinned.get(anchor, ()))
            for anchor in view.anchors
        }


class OptimizerPlacementPolicy:
    """Adapts :class:`PlacementOptimizer` to the policy-engine contract.

    Emits the same ``SwitchAction`` vocabulary as the Figure-1 rules,
    guarded by hysteresis (the plan must beat the current assignment by
    :data:`HYSTERESIS` of its cost, with an absolute floor of
    :data:`MIN_GAIN`) and rate-limited to ``placement_max_switches``
    switches per evaluation, so repeated evaluation descends
    monotonically to a fixed point.
    """

    def __init__(self, config: Optional[LwgConfig] = None):
        self.config = config or LwgConfig()
        self.optimizer = PlacementOptimizer(self.config)

    def evaluate(
        self,
        snap: PolicySnapshot,
        mint: Optional[Callable[[], HwgId]] = None,
    ) -> List[SwitchAction]:
        view = PlacementView.from_snapshot(snap)
        if not view.lwgs:
            return []
        plan = self.optimizer.plan(view)
        moves = plan.moves(view)
        if not moves:
            return []
        if plan.gain < max(MIN_GAIN, HYSTERESIS * plan.current_cost):
            return []
        actions: List[SwitchAction] = []
        minted: Dict[str, Optional[HwgId]] = {}
        for lwg, target in moves:
            if len(actions) >= self.config.placement_max_switches:
                break
            if is_fresh_key(target):
                if target not in minted:
                    minted[target] = mint() if mint is not None else None
                to_hwg = minted[target]
            else:
                to_hwg = target
            # Never re-switch onto the HWG the LWG already rides (the
            # anchor was merely unknown to the optimizer's view).
            _, underlying = snap.coordinated_lwgs[lwg]
            if to_hwg == underlying:
                continue
            actions.append(SwitchAction(lwg, to_hwg, reason="placement"))
        return actions
