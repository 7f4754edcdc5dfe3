"""High-group-count placement workload: Zipf-ish classes over two zones.

The scenario is built so the paper's Figure-1 rules converge to one HWG
per zone and stay there:

* a **zone** is 12 processes: one *dominant* class spans the whole
  zone, and the other classes are nested prefixes of it (4-8 process
  subsets), the hierarchy real deployments show (everyone / a team / a
  pair of replicas);
* each zone is driven onto **one 12-member HWG**, from any
  intermediate state: all of a zone's classes share a coordinator (the
  first zone process), so whenever churn strands a sub-class on its own
  HWG, that coordinator sees both HWGs, the sub-class is a non-minority
  subset of the zone HWG (``4*4 > 12``), and the share rule collapses
  the pair right back together;
* the collapse is irreversible: every sub-class covers 33-67% of the
  zone HWG — never a minority under ``k_m = 4`` — so the interference
  rule holds the mapping forever;
* LWG counts per class follow a Zipf-ish 1/rank split with the
  *sub-window* classes ranked first, so the nested classes hold most
  of the LWGs (the uneven popularity reported for real group systems).

``benchmarks/bench_policies.py`` checks the one-HWG-per-zone fixed
point; the bulk load itself is a regression bed for the settling rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..sim.engine import MS, SECOND
from .cluster import Cluster
from .scenarios import Scenario, _scaled_lwg_config
from .traffic import ProbeHub

#: Processes per zone.  12 keeps every sub-window (4 or 6 wide) above
#: the ``k_m = 4`` minority threshold on the zone HWG, which is the
#: whole point: the paper rules must be *stuck with* the
#: one-HWG-per-zone mapping.
ZONE_SIZE = 12

#: (offset, width) of each membership class inside a zone, in Zipf rank
#: order: sub-classes first (they hold most LWGs), the dominant
#: zone-spanning class last.  Every class starts at offset 0, so the
#: whole zone shares one coordinator and an escaped sub-class HWG
#: always share-collapses back onto the zone HWG.
_ZONE_LAYOUT = ((0, 6), (0, 5), (0, 4), (0, 7), (0, 8), (0, 12))


@dataclass(frozen=True)
class MembershipClass:
    """One membership class: ``count`` LWGs over the same member set."""

    index: int
    zone: int
    members: Tuple[str, ...]
    count: int

    @property
    def creator(self) -> str:
        return self.members[0]

    def group_name(self, j: int) -> str:
        return f"c{self.index:02d}g{j:03d}"

    @property
    def group_names(self) -> List[str]:
        return [self.group_name(j) for j in range(self.count)]


def zipf_classes(
    zones: int = 2,
    num_lwgs: int = 120,
) -> List[MembershipClass]:
    """The scenario's membership classes with 1/rank LWG counts.

    Classes are laid out per zone from :data:`_ZONE_LAYOUT`; each
    zone's share of ``num_lwgs`` is apportioned over its classes by
    Zipf weight in layout order, largest-remainder, minimum one LWG per
    class — so the zones mirror each other and the sub-window classes
    hold most of the LWGs.
    """
    per_zone_layout: List[Tuple[int, ...]] = [
        tuple(range(offset, offset + width)) for offset, width in _ZONE_LAYOUT
    ]
    weights = [1.0 / (rank + 1) for rank in range(len(per_zone_layout))]
    total_weight = sum(weights)
    zone_share = num_lwgs // zones
    counts = [max(1, int(zone_share * w / total_weight)) for w in weights]
    shortfall = zone_share - sum(counts)
    for rank in range(len(counts)):
        if shortfall <= 0:
            break
        counts[rank] += 1
        shortfall -= 1
    classes: List[MembershipClass] = []
    for zone in range(zones):
        base = zone * ZONE_SIZE
        for rank, offsets in enumerate(per_zone_layout):
            classes.append(
                MembershipClass(
                    index=len(classes),
                    zone=zone,
                    members=tuple(f"p{base + i}" for i in offsets),
                    count=counts[rank],
                )
            )
    return classes


# ----------------------------------------------------------------------
# The scenario
# ----------------------------------------------------------------------
def build_placement_scenario(num_lwgs: int = 120, seed: int = 0) -> Scenario:
    """Build and converge the two-zone scenario, then let the Figure-1
    rules drain their moves.

    Classes are joined window by window (both zones in parallel): the
    creator first, then the remaining members.  The exact interleaving
    with policy evaluations does not matter — the share-rule collapse
    merges each zone onto one HWG from any intermediate state.
    """
    classes = zipf_classes(num_lwgs=num_lwgs)
    cluster = Cluster(
        num_processes=2 * ZONE_SIZE,
        seed=seed,
        lwg_config=_scaled_lwg_config(),
        keep_trace=False,
    )
    groups = {
        group: list(cls.members) for cls in classes for group in cls.group_names
    }
    setup = Scenario(cluster, ProbeHub(env=cluster.env), groups)

    classes_per_zone = len(classes) // 2
    # The dominant zone-spanning class (last in the layout) is built
    # first, so every sub-window creator is already a member of the
    # zone HWG when its classes appear.
    wave_order = [classes_per_zone - 1] + list(range(classes_per_zone - 1))
    # Bulk-load pacing: each LWG's join burst is one naming round trip
    # plus a fan-in of LwgJoinReq/state-transfer traffic, all on the
    # shared 10 Mb/s medium.  Past ~40 LWGs the 60 ms stride floods the
    # wire faster than it drains, installs trail their beacons by
    # seconds and the substrate starts seceding members it was about to
    # admit — so the stride widens linearly with the group count.
    stride_us = int(60 * MS * max(1.0, num_lwgs / 48.0))
    for wave in wave_order:
        batch = [cls for cls in classes if cls.index % classes_per_zone == wave]
        span = 0
        for cls in batch:
            for j, group in enumerate(cls.group_names):
                # Tight join bursts: the creator gets a short head start
                # (the naming record must exist), then the remaining
                # members pile in — the class spends as little time as
                # possible in a transient-minority state.
                base = j * stride_us
                cluster.env.scheduler.schedule(
                    base, lambda g=group, n=cls.creator: setup.join(g, n)
                )
                for i, node in enumerate(cls.members[1:]):
                    cluster.env.scheduler.schedule(
                        base + 100 * MS + (i + 1) * 15 * MS,
                        lambda g=group, n=node: setup.join(g, n),
                    )
            span = max(span, cls.count * stride_us + 400 * MS)
        cluster.run_for(span + 1500 * MS)

    timeout = int((20.0 + 0.2 * num_lwgs) * SECOND)
    if not cluster.run_until(setup.converged, timeout_us=timeout):
        laggards = []
        for group, members in groups.items():
            for node in members:
                handle = setup.handles.get((group, node))
                view = handle.view if handle is not None else None
                if view is None or set(view.members) != set(members):
                    laggards.append(f"{group}@{node}: {view and sorted(view.members)}")
        raise RuntimeError(
            f"placement scenario ({num_lwgs} LWGs) failed to "
            f"converge; {len(laggards)} laggard(s), first: {laggards[:4]}"
        )
    # Let the rules reach their fixed point: the first moves wait for
    # one policy period with no view change, then the backlog (one move
    # per misplaced LWG) drains over later periods — so the window
    # scales with the group count.
    cluster.run_for_seconds(30.0 + 0.4 * num_lwgs)
    # The drain itself strands HWG remnants that need healing; require
    # the system to be whole again before anyone measures on it.
    if not cluster.run_until(setup.converged, timeout_us=timeout):
        raise RuntimeError(
            f"placement scenario ({num_lwgs} LWGs) degraded "
            f"while draining placement moves"
        )
    return setup
