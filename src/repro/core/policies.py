"""The Figure-1 mapping heuristics: share, interference and shrink rules.

The rules are implemented as pure functions over a :class:`PolicySnapshot`
of one process's local knowledge, so they are unit-testable and
benchmarkable without a running stack.  The surrounding guarantees of
Section 3.2 are honoured here:

* only the *coordinator* of an LWG decides its mapping;
* decisions are deterministic functions of the observed configuration —
  ties are broken by the total order on group identifiers;
* hysteresis comes from ``k_m``/``k_c`` (with the defaults, an LWG maps
  onto an HWG when common members exceed 75% of the HWG and the mapping
  survives until they drop to 25%);
* the heuristics run periodically, and nothing but shrink runs while the
  process's views are settling (``LwgService._settling``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..naming.records import HwgId, LwgId
from ..vsync.view import ProcessId
from .config import LwgConfig

Members = FrozenSet[ProcessId]


# ----------------------------------------------------------------------
# Figure-1 predicates
# ----------------------------------------------------------------------
def is_minority(g1: Members, g2: Members, k_m: int) -> bool:
    """``g1`` is a minority of ``g2``: g1 ⊆ g2 and |g1| <= |g2| / k_m."""
    return g1 <= g2 and len(g1) * k_m <= len(g2)


def is_close_enough(g1: Members, g2: Members, k_c: int) -> bool:
    """``g1`` and ``g2`` are close: g1 ⊆ g2 and |g2| - |g1| <= |g2| / k_c."""
    return g1 <= g2 and (len(g2) - len(g1)) * k_c <= len(g2)


def share_rule_applies(h1: Members, h2: Members, k_m: int) -> bool:
    """Figure-1 share rule condition for collapsing two HWGs.

    With ``|h1| = n1 + k``, ``|h2| = n2 + k`` and ``k = |h1 ∩ h2|``:
    collapse unless one HWG is a minority subset of the other, and only
    when the overlap is large: ``k > sqrt(2 * n1 * n2)``.
    """
    k = len(h1 & h2)
    n1 = len(h1) - k
    n2 = len(h2) - k
    subset_minority = (h1 <= h2 and is_minority(h1, h2, k_m)) or (
        h2 <= h1 and is_minority(h2, h1, k_m)
    )
    return not subset_minority and k > math.sqrt(2 * n1 * n2)


# ----------------------------------------------------------------------
# Snapshot and actions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PolicySnapshot:
    """Everything one process knows when the heuristics run.

    Attributes:
        node: the evaluating process.
        now_us: current simulation time.
        coordinated_lwgs: lwg -> (members, underlying hwg) for every LWG
            this process currently coordinates.
        hwg_members: hwg -> membership, for every HWG whose membership
            this process knows (i.e. the HWGs it belongs to).
        local_lwgs_per_hwg: hwg -> number of this process's LWGs riding
            on it (the shrink-rule input).
        hwg_idle_since: hwg -> sim time when the HWG last carried one of
            our LWGs (for the shrink grace period).
        busy_lwgs: LWGs never re-decided: mid-switch, or all if settling.
    """

    node: ProcessId
    now_us: int
    coordinated_lwgs: Dict[LwgId, Tuple[Members, HwgId]]
    hwg_members: Dict[HwgId, Members]
    local_lwgs_per_hwg: Dict[HwgId, int]
    hwg_idle_since: Dict[HwgId, int] = field(default_factory=dict)
    busy_lwgs: FrozenSet[LwgId] = frozenset()
    # Derived data shared by the rule passes (each pass used to redo the
    # sort/scan itself).  ``cached_property`` stores into the instance
    # ``__dict__`` directly, which a frozen dataclass permits.
    @cached_property
    def sorted_hwgs(self) -> Tuple[HwgId, ...]:
        """Every known HWG, in the identifier total order."""
        return tuple(sorted(self.hwg_members))

    @cached_property
    def populated_hwgs(self) -> Tuple[HwgId, ...]:
        """Known HWGs with a non-empty membership, sorted."""
        return tuple(h for h in self.sorted_hwgs if self.hwg_members[h])

    @cached_property
    def hwg_items(self) -> Tuple[Tuple[HwgId, Members], ...]:
        """(hwg, members) pairs in the identifier total order."""
        return tuple((h, self.hwg_members[h]) for h in self.sorted_hwgs)

    @cached_property
    def sorted_coordinated(self) -> Tuple[LwgId, ...]:
        """The LWGs we coordinate, in the identifier total order."""
        return tuple(sorted(self.coordinated_lwgs))


@dataclass(frozen=True)
class SwitchAction:
    """Switch ``lwg`` onto ``to_hwg`` (None = create a fresh HWG)."""

    lwg: LwgId
    to_hwg: Optional[HwgId]
    reason: str


@dataclass(frozen=True)
class LeaveHwgAction:
    """Leave ``hwg`` (shrink rule: it carries none of our LWGs)."""

    hwg: HwgId
    reason: str = "shrink"


PolicyAction = object  # SwitchAction | LeaveHwgAction (py39-compatible alias)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class PolicyEngine:
    """Evaluates the Figure-1 share/interference/shrink cascade over a
    snapshot."""

    def __init__(self, config: Optional[LwgConfig] = None):
        self.config = config or LwgConfig()

    def evaluate(self, snap: PolicySnapshot) -> List[PolicyAction]:
        """Return the actions the rules prescribe, deterministically ordered."""
        actions: List[PolicyAction] = []
        switched: Set[LwgId] = set()
        actions += self._share_rule(snap, switched)
        actions += self._interference_rule(snap, switched)
        actions += self._shrink_rule(snap)
        return actions

    # -- Share rule ----------------------------------------------------
    def _share_rule(self, snap: PolicySnapshot, switched: Set[LwgId]) -> List[PolicyAction]:
        """Collapse HWGs with large pairwise overlap into one per cluster.

        Pairs satisfying the Figure-1 condition form collapse *clusters*
        (connected components); every cluster converges on its highest-gid
        member in a single step — the pairwise rule alone would reach the
        same fixed point through a cascade of intermediate switches.  The
        collapse is realised by switching every LWG we coordinate off the
        losing HWGs; other coordinators do the same for theirs, and the
        shrink rule then drains the empty HWGs.
        """
        actions: List[PolicyAction] = []
        hwgs = snap.populated_hwgs
        parent: Dict[HwgId, HwgId] = {h: h for h in hwgs}

        def find(h: HwgId) -> HwgId:
            while parent[h] != h:
                parent[h] = parent[parent[h]]
                h = parent[h]
            return h

        for i, h1 in enumerate(hwgs):
            for h2 in hwgs[i + 1:]:
                m1, m2 = snap.hwg_members[h1], snap.hwg_members[h2]
                if share_rule_applies(m1, m2, self.config.k_m):
                    parent[find(h1)] = find(h2)
        winners: Dict[HwgId, HwgId] = {}
        for h in hwgs:
            root = find(h)
            if h > winners.get(root, ""):
                winners[root] = h
        for lwg in snap.sorted_coordinated:
            if lwg in switched or lwg in snap.busy_lwgs:
                continue
            _, underlying = snap.coordinated_lwgs[lwg]
            if underlying not in parent:
                continue
            winner = winners[find(underlying)]
            if winner != underlying:
                switched.add(lwg)
                actions.append(SwitchAction(lwg, winner, reason="share"))
        return actions

    # -- Interference rule ----------------------------------------------
    def _interference_rule(
        self, snap: PolicySnapshot, switched: Set[LwgId]
    ) -> List[PolicyAction]:
        """Move minority LWGs to a close-enough HWG, or a fresh one."""
        actions: List[PolicyAction] = []
        for lwg in snap.sorted_coordinated:
            if lwg in switched or lwg in snap.busy_lwgs:
                continue
            members, underlying = snap.coordinated_lwgs[lwg]
            hwg_membership = snap.hwg_members.get(underlying)
            if hwg_membership is None:
                continue
            if not is_minority(members, hwg_membership, self.config.k_m):
                continue
            candidates = [
                hwg
                for hwg, hmembers in snap.hwg_items
                if hwg != underlying
                and is_close_enough(members, hmembers, self.config.k_c)
            ]
            switched.add(lwg)
            if candidates:
                # Deterministic selection by the identifier total order.
                actions.append(SwitchAction(lwg, max(candidates), reason="interference"))
            else:
                actions.append(SwitchAction(lwg, None, reason="interference-new"))
        return actions

    # -- Shrink rule ------------------------------------------------------
    def _shrink_rule(self, snap: PolicySnapshot) -> List[PolicyAction]:
        """Leave HWGs that have carried none of our LWGs for the grace period.

        The grace is half a policy period: an HWG emptied just before an
        evaluation survives it, one idle since the last evaluation goes.
        """
        grace_us = self.config.policy_period_us // 2
        actions: List[PolicyAction] = []
        for hwg in snap.sorted_hwgs:
            if snap.local_lwgs_per_hwg.get(hwg, 0) > 0:
                continue
            idle_since = snap.hwg_idle_since.get(hwg, snap.now_us)
            if snap.now_us - idle_since >= grace_us:
                actions.append(LeaveHwgAction(hwg))
        return actions
