"""Configuration B: overlapping group sets (precursor paper [8]).

The paper presents Figure 2 as "the result from one of several
configurations reported in [8]" (Dynamic Light-Weight Groups, ICDCS'97).
This module builds a second, harder configuration: the two sets of user
groups have *overlapping* membership —

* set A: n groups over processes ``p0..p3``
* set B: n groups over processes ``p2..p5``   (p2, p3 in both)

The interesting question for the mapping heuristics: with k_m = 4 the
share rule must NOT collapse the two classes (overlap k = 2 against
sqrt(2*2*2) ~ 2.83), so the dynamic service should stabilise on two
HWGs — the overlap processes carry both, which is precisely the partial
sharing a static design cannot express (one global HWG makes the
disjoint tails interfere; per-group HWGs forgo all sharing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..metrics.collectors import SummaryStats
from ..sim.engine import MS, SECOND
from .cluster import Cluster
from .scenarios import _scaled_lwg_config, mapping_at_fixed_point
from .traffic import ProbeHub, ProbeListener, probe_payload

SET_A = ["p0", "p1", "p2", "p3"]
SET_B = ["p2", "p3", "p4", "p5"]


@dataclass
class OverlapSetup:
    """A converged configuration-B scenario."""

    cluster: Cluster
    n: int
    groups_a: List[str]
    groups_b: List[str]
    handles: Dict[Tuple[str, str], object]
    probes: Dict[Tuple[str, str], ProbeListener]
    hub: ProbeHub

    @property
    def all_groups(self) -> List[str]:
        return self.groups_a + self.groups_b

    def members_of(self, group: str) -> List[str]:
        return SET_A if group in self.groups_a else SET_B

    def sender_of(self, group: str) -> str:
        return self.members_of(group)[0]

    def converged(self) -> bool:
        for (group, node), handle in self.handles.items():
            view = handle.view
            if view is None or len(view.members) != 4:
                return False
        return True

    def hwgs_in_use(self) -> set:
        return {handle.hwg for handle in self.handles.values()}


def build_overlap(
    n: int,
    flavour: str,
    seed: int = 0,
    settle_seconds: Optional[float] = None,
    placement: str = "paper",
) -> OverlapSetup:
    """Build and converge configuration B under the given service.

    ``placement`` selects the dynamic service's mapping policy
    (PROTOCOLS.md §19); the default leaves every flavour exactly as
    the paper ran it.
    """
    config = _scaled_lwg_config()
    config.placement_policy = placement
    cluster = Cluster(
        num_processes=6,
        seed=seed,
        flavour=flavour,
        lwg_config=config,
        keep_trace=False,
    )
    hub = ProbeHub(env=cluster.env)
    groups_a = [f"oa{i}" for i in range(n)]
    groups_b = [f"ob{i}" for i in range(n)]
    handles: Dict[Tuple[str, str], object] = {}
    probes: Dict[Tuple[str, str], ProbeListener] = {}

    def join(group: str, node: str) -> None:
        probe = ProbeListener(hub, node)
        probes[(group, node)] = probe
        handles[(group, node)] = cluster.services[node].join(group, probe)

    # Creators first (p0 for set A, p4 for set B — disjoint tails), then
    # the rest, staggered as in the Figure-2 harness.
    for index, group in enumerate(groups_a):
        cluster.env.scheduler.schedule(index * 150 * MS, lambda g=group: join(g, "p0"))
    for index, group in enumerate(groups_b):
        cluster.env.scheduler.schedule(index * 150 * MS, lambda g=group: join(g, "p4"))
    cluster.run_for(n * 150 * MS + SECOND)
    for index, group in enumerate(groups_a):
        for node in SET_A[1:]:
            cluster.env.scheduler.schedule(index * 40 * MS, lambda g=group, c=node: join(g, c))
    for index, group in enumerate(groups_b):
        for node in SET_B:
            if node == "p4":
                continue
            cluster.env.scheduler.schedule(index * 40 * MS, lambda g=group, c=node: join(g, c))
    cluster.run_for(n * 40 * MS)
    setup = OverlapSetup(
        cluster=cluster, n=n, groups_a=groups_a, groups_b=groups_b,
        handles=handles, probes=probes, hub=hub,
    )
    if settle_seconds is None:
        settle_seconds = 8.0 + 0.75 * n
    if not cluster.run_until(setup.converged, timeout_us=int(settle_seconds * SECOND)):
        raise RuntimeError(f"overlap(n={n}, {flavour}) failed to converge")
    cluster.run_for_seconds(2.0)
    if not cluster.run_until(
        lambda: mapping_at_fixed_point(cluster), timeout_us=int(settle_seconds * SECOND)
    ):
        raise RuntimeError(f"overlap(n={n}, {flavour}) mapping never settled")
    return setup


def measure_overlap_recovery(setup: OverlapSetup, timeout_seconds: float = 60.0) -> int:
    """Crash p3 (a member of BOTH classes): post-detection reconfiguration
    time until every group at every survivor excludes it (microseconds).

    This is where configuration B separates the services: the overlap
    member sits in all 2n groups, so the no-service design runs 2n
    recovery protocols while the dynamic service runs two HWG flushes.
    """
    cluster = setup.cluster
    victim = "p3"
    prefix = "" if setup.cluster.flavour == "none" else "lwg:"
    expected = [
        (f"{prefix}{group}", node)
        for group in setup.all_groups
        for node in setup.members_of(group)
        if node != victim
    ]
    detection_at: List[int] = []

    def watch(peer, suspected):
        if suspected and peer == victim and not detection_at:
            detection_at.append(cluster.env.now)

    for node in cluster.process_ids:
        if node != victim:
            cluster.stack(node).fd.subscribe(watch)
    crashed_at = cluster.env.now
    setup.hub.recovery.arm(crashed_at, victim, expected)
    cluster.crash(victim)
    if not cluster.run_until(
        lambda: setup.hub.recovery.complete, timeout_us=int(timeout_seconds * SECOND)
    ):
        raise RuntimeError("overlap recovery incomplete")
    total = setup.hub.recovery.recovery_time_us()
    detection = (detection_at[0] - crashed_at) if detection_at else 0
    assert total is not None
    return max(0, total - detection)


def measure_overlap_latency(setup: OverlapSetup, probes_per_group: int = 6) -> SummaryStats:
    """Mean delivery latency under light paced load (as in Figure 2a)."""
    cluster = setup.cluster
    gap = 20 * MS
    for round_no in range(probes_per_group):
        for index, group in enumerate(setup.all_groups):
            handle = setup.handles[(group, setup.sender_of(group))]
            delay = round_no * gap * len(setup.all_groups) + index * gap
            cluster.env.scheduler.schedule(
                delay, lambda h=handle, r=round_no: h.send(probe_payload(cluster.env, r))
            )
    cluster.run_for(probes_per_group * gap * len(setup.all_groups) + 2 * SECOND)
    stats = setup.hub.latency.summary()
    assert stats is not None
    return stats
