"""Global LWG→HWG placement as balanced, overlap-aware partitioning.

The paper's Figure-1 rules (share/interference/shrink) are greedy and
strictly *local*: each evaluates one LWG or one HWG pair against the
current configuration.  At high group counts they settle into mappings
with avoidable HWGs, skewed per-HWG load and oversized multicast
fan-out — an LWG that rides an HWG at 40% coverage is inside the
hysteresis band (neither minority nor close-enough elsewhere), so no
rule ever moves it, yet every one of its messages is delivered to the
60% of the HWG that doesn't care.

This module instead treats the mapping as an explicit optimization
problem in the spirit of balanced-partitioning assignment: place every
LWG we coordinate into a *placement group* (an existing HWG or a fresh
one) so that the global cost

    cost(P) = hwg_cost   · |chargeable groups|
            + fanout_w   · Σ_g load(g) · |union(g)|
            + skew_w     · max_g load(g)

is minimized subject to the paper's §3.2 overlap constraints on every
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

Algorithm: greedy seeding by membership class (LWGs with identical
member sets are interchangeable, so whole classes seed together,
largest weight first), then bounded local-search refinement — per-LWG
move passes and a budgeted swap pass — accepting strictly improving
steps only.  Every container is iterated in sorted order and every tie
is broken by an explicit deterministic key, so the result is a pure
function of the input, independent of ``PYTHONHASHSEED``.

The surrounding machinery is unchanged: the optimizer emits the same
``SwitchAction`` vocabulary as the Figure-1 rules (rate-limited per
evaluation), the shrink rule still produces ``LeaveHwgAction``s, and a
hysteresis gate (plan must beat the current assignment by a minimum
relative gain) makes repeated evaluation converge to a fixed point
instead of chasing marginal rearrangements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..naming.records import HwgId, LwgId
from ..vsync.view import ProcessId
from .config import LwgConfig
from .policies import PolicySnapshot, SwitchAction

Members = FrozenSet[ProcessId]

#: Key prefix for planned-but-not-yet-minted placement groups.  Never
#: collides with real HWG ids (``hwg:...``).
_FRESH_PREFIX = "fresh:"

_EPSILON = 1e-9

#: Local-search bounds: refinement passes per plan, and swap pairs
#: evaluated per pass.
_MAX_PASSES = 3
_SWAP_BUDGET = 256


@dataclass(frozen=True)
class PlacementCost:
    """Weights of the placement objective (see module docstring)."""

    #: Cost of keeping one HWG alive for our cargo alone (membership
    #: beacons, failure detection, view machinery).
    hwg_cost: float = 64.0
    #: Cost per (sender-weight × receiver) of multicast fan-out.
    fanout_weight: float = 1.0
    #: Penalty on the most-loaded group (balance pressure).
    skew_weight: float = 8.0


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


# ----------------------------------------------------------------------
# Working state
# ----------------------------------------------------------------------
class _Slot:
    """Mutable per-group accumulator used during the search.

    Tracks the movable cargo (per-process reference counts so unions
    update incrementally), the immovable (pinned) cargo, and the
    smallest cargo sizes the feasibility constraints key on.
    """

    __slots__ = (
        "key",
        "anchor",
        "pinned_sets",
        "pinned_union",
        "pinned_load",
        "pinned_min",
        "proc_count",
        "extra",
        "class_count",
        "changed_count",
        "load",
        "lwg_count",
        "_min_size",
        "_min_changed",
    )

    def __init__(self, key: str, anchor: Optional[HwgId], pinned_sets: Sequence[Members]):
        self.key = key
        self.anchor = anchor
        self.pinned_sets: Tuple[Members, ...] = tuple(pinned_sets)
        self.pinned_union: Members = (
            frozenset().union(*self.pinned_sets) if self.pinned_sets else frozenset()
        )
        self.pinned_load = float(sum(len(m) for m in self.pinned_sets))
        self.pinned_min: Optional[int] = (
            min(len(m) for m in self.pinned_sets) if self.pinned_sets else None
        )
        #: Movable-cargo process reference counts.
        self.proc_count: Dict[ProcessId, int] = {}
        #: Movable processes outside the pinned union (the union growth).
        self.extra: Set[ProcessId] = set()
        self.class_count: Dict[Members, int] = {}
        self.changed_count: Dict[Members, int] = {}
        self.load = 0.0
        self.lwg_count = 0
        self._min_size: Optional[int] = None
        self._min_changed: Optional[int] = None

    # -- aggregates ----------------------------------------------------
    @property
    def union_size(self) -> int:
        return len(self.pinned_union) + len(self.extra)

    @property
    def total_load(self) -> float:
        return self.pinned_load + self.load

    @property
    def fanout(self) -> float:
        return self.total_load * self.union_size

    @property
    def chargeable(self) -> bool:
        return self.lwg_count > 0 and not self.pinned_sets

    def min_size(self) -> Optional[int]:
        """Smallest cargo member-set size (pinned + movable)."""
        if self._min_size is None:
            sizes = [len(m) for m in self.class_count]
            if self.pinned_min is not None:
                sizes.append(self.pinned_min)
            self._min_size = min(sizes) if sizes else -1
        return None if self._min_size < 0 else self._min_size

    def min_changed(self) -> Optional[int]:
        """Smallest *moved-in* movable member-set size."""
        if self._min_changed is None:
            sizes = [len(m) for m in self.changed_count]
            self._min_changed = min(sizes) if sizes else -1
        return None if self._min_changed < 0 else self._min_changed

    # -- mutation ------------------------------------------------------
    def add(self, m: Members, weight: float, changed: bool) -> None:
        for p in m:
            n = self.proc_count.get(p, 0)
            self.proc_count[p] = n + 1
            if n == 0 and p not in self.pinned_union:
                self.extra.add(p)
        self.class_count[m] = self.class_count.get(m, 0) + 1
        if changed:
            self.changed_count[m] = self.changed_count.get(m, 0) + 1
        self.load += weight
        self.lwg_count += 1
        self._min_size = None
        self._min_changed = None

    def remove(self, m: Members, weight: float, changed: bool) -> None:
        for p in m:
            n = self.proc_count[p] - 1
            if n:
                self.proc_count[p] = n
            else:
                del self.proc_count[p]
                self.extra.discard(p)
        n = self.class_count[m] - 1
        if n:
            self.class_count[m] = n
        else:
            del self.class_count[m]
        if changed:
            n = self.changed_count[m] - 1
            if n:
                self.changed_count[m] = n
            else:
                del self.changed_count[m]
        self.load -= weight
        self.lwg_count -= 1
        self._min_size = None
        self._min_changed = None

    # -- candidate evaluation ------------------------------------------
    def union_growth(self, m: Members) -> int:
        """How many new processes adding ``m`` brings into the union."""
        return sum(
            1 for p in m if p not in self.pinned_union and p not in self.extra
        )

    def union_shrink(self, m: Members) -> int:
        """How many processes leave the union when ``m``'s last copy goes."""
        if self.class_count.get(m, 0) > 1:
            return 0  # an identical set keeps every process referenced
        return sum(
            1
            for p in m
            if self.proc_count.get(p, 0) == 1 and p not in self.pinned_union
        )

    def feasible_after_add(self, m: Members, changed: bool, k_m: int, k_c: int) -> bool:
        """Would the group still satisfy the k_m/k_c band with ``m`` added?"""
        u = self.union_size + self.union_growth(m)
        existing_min = self.min_size()
        min_all = len(m) if existing_min is None else min(existing_min, len(m))
        if min_all * k_m <= u:
            return False  # some cargo becomes a minority of the union
        mc = self.min_changed()
        if changed:
            mc = len(m) if mc is None else min(mc, len(m))
        if mc is not None and (u - mc) * k_c > u:
            return False  # some moved-in cargo is no longer close enough
        return True


class _MaxLoadTracker:
    """O(1) "max load if these two slots changed" queries.

    Keeps the top three (load, key) pairs; at most two slots change per
    candidate evaluation, so one of the three is always unaffected
    (falling back to a full scan only when fewer than three slots
    exist).
    """

    def __init__(self) -> None:
        self.top: List[Tuple[float, str]] = []

    def rebuild(self, slots: Dict[str, _Slot]) -> None:
        loads = sorted(
            ((s.total_load, k) for k, s in slots.items() if s.total_load > 0),
            reverse=True,
        )
        self.top = loads[:3]

    def current_max(self) -> float:
        return self.top[0][0] if self.top else 0.0

    def max_with(
        self, slots: Dict[str, _Slot], changes: Dict[str, float]
    ) -> float:
        """Max load when slot ``k`` has load ``changes[k]`` instead."""
        best = 0.0
        seen = 0
        for load, key in self.top:
            if key in changes:
                continue
            best = max(best, load)
            seen += 1
            break  # highest unaffected entry bounds the rest
        if seen == 0 and len(self.top) == 3:
            # All three tracked slots changed (impossible for two-slot
            # updates, defensive for direct calls) — full scan.
            for key, slot in slots.items():
                if key not in changes:
                    best = max(best, slot.total_load)
        for load in changes.values():
            best = max(best, load)
        return best


# ----------------------------------------------------------------------
# The optimizer
# ----------------------------------------------------------------------
class PlacementOptimizer:
    """Deterministic global placement search over a :class:`PlacementView`."""

    def __init__(
        self,
        config: Optional[LwgConfig] = None,
        cost: Optional[PlacementCost] = None,
    ):
        self.config = config or LwgConfig()
        self.cost = cost or PlacementCost()

    # -- public --------------------------------------------------------
    def plan(self, view: PlacementView) -> PlacementPlan:
        """Compute the target assignment for ``view`` (pure function)."""
        weights = {lwg: float(len(m)) for lwg, m in view.lwgs}
        slots, assign = self._seed(view, weights)
        self._refine(view, weights, slots, assign)
        plan_cost = self._total_cost(slots)
        current_slots = self._current_slots(view, weights)
        current_cost = self._total_cost(current_slots)
        if plan_cost > current_cost and self._may_stay(view, current_slots):
            # The search ended above where it started: change nothing.
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

    # -- cost helpers --------------------------------------------------
    def _total_cost(self, slots: Dict[str, _Slot]) -> float:
        c = self.cost
        chargeable = sum(1 for s in slots.values() if s.chargeable)
        fanout = sum(s.fanout for s in slots.values())
        max_load = max((s.total_load for s in slots.values()), default=0.0)
        return c.hwg_cost * chargeable + c.fanout_weight * fanout + c.skew_weight * max_load

    def _current_slots(
        self, view: PlacementView, weights: Dict[LwgId, float]
    ) -> Dict[str, _Slot]:
        """The *current* assignment under the same projection."""
        slots = self._base_slots(view)
        for lwg, m in view.lwgs:
            cur = view.current.get(lwg)
            if cur is None:
                # Unknown anchor: charge it as its own fresh group.
                key = _FRESH_PREFIX + "cur:" + lwg
                slots[key] = _Slot(key, None, ())
                slots[key].add(m, weights[lwg], changed=False)
            else:
                slots[cur].add(m, weights[lwg], changed=False)
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
            (slot.min_size() or 0) * self.config.k_m > slot.union_size
            for slot in current_slots.values()
            if slot.lwg_count
        )

    def _base_slots(self, view: PlacementView) -> Dict[str, _Slot]:
        return {
            anchor: _Slot(anchor, anchor, view.pinned.get(anchor, ()))
            for anchor in view.anchors
        }

    # -- seeding -------------------------------------------------------
    def _seed(
        self, view: PlacementView, weights: Dict[LwgId, float]
    ) -> Tuple[Dict[str, _Slot], Dict[LwgId, str]]:
        """Greedy class-by-class seeding, heaviest classes first."""
        k_m, k_c = self.config.k_m, self.config.k_c
        c = self.cost
        slots = self._base_slots(view)
        assign: Dict[LwgId, str] = {}
        tracker = _MaxLoadTracker()
        tracker.rebuild(slots)
        fresh_counter = 0

        # Membership classes: identical member sets are interchangeable.
        classes: Dict[Members, List[LwgId]] = {}
        for lwg, m in view.lwgs:
            classes.setdefault(m, []).append(lwg)
        ordered = sorted(
            classes.items(),
            key=lambda item: (
                -sum(weights[lwg] for lwg in item[1]),
                tuple(sorted(item[0])),
            ),
        )

        for members, lwgs in ordered:
            class_weight = sum(weights[lwg] for lwg in lwgs)
            count = len(lwgs)
            stickiness: Dict[str, float] = {}
            for lwg in lwgs:
                cur = view.current.get(lwg)
                if cur is not None:
                    stickiness[cur] = stickiness.get(cur, 0.0) + weights[lwg]
            best: Optional[Tuple[Tuple[float, float, int, str], str]] = None
            for key in sorted(slots):
                slot = slots[key]
                # Feasibility must hold for the *worst* member of the
                # class placed here: if any lwg of the class is changed,
                # check with changed=True (the stricter case).
                any_changed = slot.anchor is None or any(
                    view.current.get(lwg) != slot.anchor for lwg in lwgs
                )
                if not slot.feasible_after_add(members, any_changed, k_m, k_c):
                    continue
                dcost = self._add_delta(slot, slots, tracker, members, class_weight, count, c)
                sel = (dcost, -stickiness.get(key, 0.0), 0, key)
                if best is None or sel < best[0]:
                    best = (sel, key)
            # The fresh-group candidate (always feasible for one class).
            fresh_key = f"{_FRESH_PREFIX}{fresh_counter:03d}"
            dcost_fresh = (
                c.hwg_cost
                + c.fanout_weight * class_weight * len(members)
                + c.skew_weight
                * (
                    tracker.max_with(slots, {fresh_key: class_weight})
                    - tracker.current_max()
                )
            )
            sel_fresh = (dcost_fresh, 0.0, 1, fresh_key)
            if best is None or sel_fresh < best[0]:
                slot = _Slot(fresh_key, None, ())
                slots[fresh_key] = slot
                fresh_counter += 1
                best = (sel_fresh, fresh_key)
            chosen = slots[best[1]]
            for lwg in sorted(lwgs):
                changed = chosen.anchor is None or view.current.get(lwg) != chosen.anchor
                chosen.add(members, weights[lwg], changed)
                assign[lwg] = chosen.key
            tracker.rebuild(slots)
        return slots, assign

    def _add_delta(
        self,
        slot: _Slot,
        slots: Dict[str, _Slot],
        tracker: _MaxLoadTracker,
        members: Members,
        weight: float,
        count: int,
        c: PlacementCost,
    ) -> float:
        """Total-cost delta of adding ``count`` LWGs of one class to ``slot``."""
        u_new = slot.union_size + slot.union_growth(members)
        dfanout = (slot.total_load + weight) * u_new - slot.fanout
        dcharge = c.hwg_cost if (slot.lwg_count == 0 and not slot.pinned_sets) else 0.0
        new_max = tracker.max_with(slots, {slot.key: slot.total_load + weight})
        dskew = c.skew_weight * (new_max - tracker.current_max())
        return dcharge + c.fanout_weight * dfanout + dskew

    # -- refinement ----------------------------------------------------
    def _refine(
        self,
        view: PlacementView,
        weights: Dict[LwgId, float],
        slots: Dict[str, _Slot],
        assign: Dict[LwgId, str],
    ) -> None:
        for _ in range(_MAX_PASSES):
            moved = self._move_pass(view, weights, slots, assign)
            swapped = self._swap_pass(view, weights, slots, assign)
            if not moved and not swapped:
                break

    def _is_changed(self, view: PlacementView, lwg: LwgId, slot: _Slot) -> bool:
        return slot.anchor is None or view.current.get(lwg) != slot.anchor

    def _move_pass(
        self,
        view: PlacementView,
        weights: Dict[LwgId, float],
        slots: Dict[str, _Slot],
        assign: Dict[LwgId, str],
    ) -> bool:
        """One strictly-improving move per LWG, in LWG-id order."""
        k_m, k_c = self.config.k_m, self.config.k_c
        c = self.cost
        tracker = _MaxLoadTracker()
        tracker.rebuild(slots)
        any_moved = False
        for lwg, m in view.lwgs:
            src = slots[assign[lwg]]
            w = weights[lwg]
            src_changed = self._is_changed(view, lwg, src)
            # Source-side delta (same for every candidate target).
            u_src_new = src.union_size - src.union_shrink(m)
            src_load_new = src.total_load - w
            dfan_src = src_load_new * u_src_new - src.fanout
            dcharge_src = -c.hwg_cost if (src.lwg_count == 1 and not src.pinned_sets) else 0.0
            best: Optional[Tuple[Tuple[float, int, str], str]] = None
            for key in sorted(slots):
                if key == src.key:
                    continue
                dst = slots[key]
                if dst.lwg_count == 0 and dst.anchor is None:
                    continue  # dead fresh slot: covered by the fresh probe
                dst_changed = self._is_changed(view, lwg, dst)
                if not dst.feasible_after_add(m, dst_changed, k_m, k_c):
                    continue
                u_dst_new = dst.union_size + dst.union_growth(m)
                dfan_dst = (dst.total_load + w) * u_dst_new - dst.fanout
                dcharge_dst = (
                    c.hwg_cost if (dst.lwg_count == 0 and not dst.pinned_sets) else 0.0
                )
                new_max = tracker.max_with(
                    slots, {src.key: src_load_new, dst.key: dst.total_load + w}
                )
                dcost = (
                    dcharge_src
                    + dcharge_dst
                    + c.fanout_weight * (dfan_src + dfan_dst)
                    + c.skew_weight * (new_max - tracker.current_max())
                )
                sel = (dcost, 0, key)
                if best is None or sel < best[0]:
                    best = (sel, key)
            # Fresh-group probe: isolate this LWG (skip if already alone
            # in a chargeable group — that IS the fresh outcome).
            if not (src.lwg_count == 1 and not src.pinned_sets):
                dcost_fresh = (
                    dcharge_src
                    + c.hwg_cost
                    + c.fanout_weight * (dfan_src + w * len(m))
                    + c.skew_weight
                    * (
                        tracker.max_with(slots, {src.key: src_load_new, "?fresh": w})
                        - tracker.current_max()
                    )
                )
                sel = (dcost_fresh, 1, "?fresh")
                if best is None or sel < best[0]:
                    best = (sel, "?fresh")
            if best is None or best[0][0] >= -_EPSILON:
                continue
            target_key = best[1]
            if target_key == "?fresh":
                target_key = self._mint_fresh(slots)
            dst = slots[target_key]
            src.remove(m, w, src_changed)
            dst.add(m, w, self._is_changed(view, lwg, dst))
            assign[lwg] = target_key
            tracker.rebuild(slots)
            any_moved = True
        return any_moved

    def _swap_pass(
        self,
        view: PlacementView,
        weights: Dict[LwgId, float],
        slots: Dict[str, _Slot],
        assign: Dict[LwgId, str],
    ) -> bool:
        """Budgeted pairwise exchange between distinct groups.

        Move passes get stuck when two LWGs must trade places (each move
        alone violates feasibility or raises cost).  One representative
        per (membership class, slot) suffices — identical sets in the
        same slot are interchangeable — and evaluation stops after
        ``_SWAP_BUDGET`` pairs, scanning representatives from the
        most-loaded groups first so the budget goes where the skew is.
        """
        reps: Dict[Tuple[str, Members], LwgId] = {}
        for lwg, m in view.lwgs:
            key = (assign[lwg], m)
            if key not in reps or lwg < reps[key]:
                reps[key] = lwg
        ordered = sorted(
            reps.items(),
            key=lambda item: (
                -slots[item[0][0]].total_load,
                item[0][0],
                item[1],
            ),
        )
        rep_list = [(lwg, skey, m) for (skey, m), lwg in ordered]
        any_swapped = False
        evaluated = 0
        for i in range(len(rep_list)):
            if evaluated >= _SWAP_BUDGET:
                break
            lwg_a, key_a, m_a = rep_list[i]
            if assign[lwg_a] != key_a:
                continue  # displaced by an earlier accepted swap
            for j in range(i + 1, len(rep_list)):
                if evaluated >= _SWAP_BUDGET:
                    break
                lwg_b, key_b, m_b = rep_list[j]
                if key_b == key_a or assign[lwg_b] != key_b or m_a == m_b:
                    continue
                evaluated += 1
                if self._try_swap(view, weights, slots, assign, lwg_a, m_a, lwg_b, m_b):
                    any_swapped = True
                    break  # lwg_a moved; advance to the next representative
        return any_swapped

    def _try_swap(
        self,
        view: PlacementView,
        weights: Dict[LwgId, float],
        slots: Dict[str, _Slot],
        assign: Dict[LwgId, str],
        lwg_a: LwgId,
        m_a: Members,
        lwg_b: LwgId,
        m_b: Members,
    ) -> bool:
        """Exchange two LWGs' groups if strictly improving and feasible."""
        k_m, k_c = self.config.k_m, self.config.k_c
        slot_a, slot_b = slots[assign[lwg_a]], slots[assign[lwg_b]]
        w_a, w_b = weights[lwg_a], weights[lwg_b]
        before = self._total_cost(slots)
        ch_a_src = self._is_changed(view, lwg_a, slot_a)
        ch_b_src = self._is_changed(view, lwg_b, slot_b)
        slot_a.remove(m_a, w_a, ch_a_src)
        slot_b.remove(m_b, w_b, ch_b_src)
        ok = slot_b.feasible_after_add(
            m_a, self._is_changed(view, lwg_a, slot_b), k_m, k_c
        )
        if ok:
            slot_b.add(m_a, w_a, self._is_changed(view, lwg_a, slot_b))
            ok = slot_a.feasible_after_add(
                m_b, self._is_changed(view, lwg_b, slot_a), k_m, k_c
            )
            if not ok:
                slot_b.remove(m_a, w_a, self._is_changed(view, lwg_a, slot_b))
        if not ok:
            slot_a.add(m_a, w_a, ch_a_src)
            slot_b.add(m_b, w_b, ch_b_src)
            return False
        slot_a.add(m_b, w_b, self._is_changed(view, lwg_b, slot_a))
        after = self._total_cost(slots)
        if after < before - _EPSILON:
            assign[lwg_a] = slot_b.key
            assign[lwg_b] = slot_a.key
            return True
        # Revert.
        slot_a.remove(m_b, w_b, self._is_changed(view, lwg_b, slot_a))
        slot_b.remove(m_a, w_a, self._is_changed(view, lwg_a, slot_b))
        slot_a.add(m_a, w_a, ch_a_src)
        slot_b.add(m_b, w_b, ch_b_src)
        return False

    @staticmethod
    def _mint_fresh(slots: Dict[str, _Slot]) -> str:
        n = sum(1 for k in slots if is_fresh_key(k))
        key = f"{_FRESH_PREFIX}{n:03d}"
        while key in slots:  # seeded fresh keys may have left gaps
            n += 1
            key = f"{_FRESH_PREFIX}{n:03d}"
        slots[key] = _Slot(key, None, ())
        return key


# ----------------------------------------------------------------------
# The pluggable policy (SwitchAction emission)
# ----------------------------------------------------------------------
class OptimizerPlacementPolicy:
    """Adapts :class:`PlacementOptimizer` to the policy-engine contract.

    Emits the same ``SwitchAction`` vocabulary as the Figure-1 rules,
    guarded by hysteresis (the plan must beat the current assignment by
    ``placement_hysteresis`` of its cost, with an absolute floor of
    ``placement_min_gain``) and rate-limited to
    ``placement_max_switches`` switches per evaluation, so repeated
    evaluation descends monotonically to a fixed point.
    """

    def __init__(
        self,
        config: Optional[LwgConfig] = None,
        cost: Optional[PlacementCost] = None,
    ):
        self.config = config or LwgConfig()
        self.optimizer = PlacementOptimizer(self.config, cost)

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
        threshold = max(
            self.config.placement_min_gain,
            self.config.placement_hysteresis * plan.current_cost,
        )
        if plan.gain < threshold:
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
