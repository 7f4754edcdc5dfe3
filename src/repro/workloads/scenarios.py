"""The paper's evaluation scenarios, all on one :class:`Scenario` type.

* :func:`build_figure2` — the Figure-2 configuration: "two sets of n
  user groups where each group within a set has identical membership of
  4 processes, and the two sets have disjoint membership", runnable
  under any of the three services (none / static / dynamic).
* :func:`build_overlap` — configuration B of the precursor paper [8]:
  the same experiment over two *overlapping* sets.
* :func:`measure_latency` / :func:`measure_throughput` /
  :func:`measure_recovery` — the three Figure-2 panels, on either
  configuration.
* :func:`build_partition_scenario` — the Figure-3/4 (Tables 3/4)
  reconciliation scenario: LWGs created in concurrent partitions with
  inconsistent mappings, then healed.

The placement bed (:mod:`repro.workloads.placement`) builds the same
:class:`Scenario` type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.config import LwgConfig
from ..core.policies import SwitchAction
from ..core.service import LwgService
from ..metrics.collectors import SummaryStats
from ..sim.engine import MS, SECOND
from .cluster import Cluster
from .traffic import PeriodicSender, ProbeHub, ProbeListener, probe_payload

#: Processes per user group in the Figure-2 configuration.
GROUP_SIZE = 4


@dataclass
class Scenario:
    """A built scenario: its cluster, probe hub and the LWGs it joins."""

    cluster: Cluster
    hub: ProbeHub
    #: group -> its members; the first one is the group's sender.
    groups: Dict[str, List[str]]
    #: (group, node) -> application handle
    handles: Dict[Tuple[str, str], Any] = field(default_factory=dict)
    #: (group, node) -> probe listener
    probes: Dict[Tuple[str, str], ProbeListener] = field(default_factory=dict)
    #: :meth:`converged` also requires one view on one HWG per group.
    one_view: bool = False

    def join(self, group: str, node: str) -> None:
        probe = ProbeListener(self.hub, node)
        self.probes[(group, node)] = probe
        self.handles[(group, node)] = self.cluster.services[node].join(group, probe)

    def converged(self) -> bool:
        """Every member of every group sees exactly the group's members.

        Checked from *all* member handles: a member whose handle still
        shows a stale sub-view would silently miss multicasts.
        """
        for group, members in self.groups.items():
            want = set(members)
            views, hwgs = set(), set()
            for node in members:
                handle = self.handles.get((group, node))
                view = handle.view if handle is not None else None
                if view is None or set(view.members) != want:
                    return False
                views.add(view.view_id)
                hwgs.add(handle.hwg)
            if self.one_view and (len(views) != 1 or len(hwgs) != 1):
                return False
        return True

    def hwgs_in_use(self) -> set:
        return {handle.hwg for handle in self.handles.values()}


def mapping_at_fixed_point(cluster: Cluster) -> bool:
    """No policy evaluation would move an LWG: at every process running
    the policies no LWG is busy and the rules propose no switch."""
    for service in cluster.services.values():
        if isinstance(service, LwgService) and service.config.enable_policies:
            snapshot = service.build_policy_snapshot()
            actions = service.policy_engine.evaluate(snapshot)
            if snapshot.busy_lwgs or any(isinstance(a, SwitchAction) for a in actions):
                return False
    return True


def _scaled_lwg_config() -> LwgConfig:
    """Scenario timers: policies every 2 s instead of 60 s, shrink grace 1 s.

    The one base config of the scenarios, the fuzz runner and the
    placement scenario.
    """
    return LwgConfig(policy_period_us=2 * SECOND, shrink_grace_us=1 * SECOND)


def _build_two_sets(
    prefix: str,
    sets: Tuple[List[str], List[str]],
    n: int,
    flavour: str,
    seed: int,
    settle_seconds: float,
    tail_seconds: float,
) -> Scenario:
    """Join n groups over each of two member sets and converge them.

    Each set's creator (its first process outside the other set) joins
    its n groups first, 150 ms apart, so the optimistic mapping rule
    sees a stable pool; the remaining members follow, 40 ms apart per
    group, so large configurations don't storm the medium all at once.
    The scenario runs until every group reaches its full view, then
    ``tail_seconds`` more, then until the mapping reaches its fixed
    point.
    """
    cluster = Cluster(
        num_processes=len(set(sets[0]) | set(sets[1])),
        seed=seed,
        flavour=flavour,
        lwg_config=_scaled_lwg_config(),
        keep_trace=False,
    )
    scenario = Scenario(cluster=cluster, hub=ProbeHub(env=cluster.env), groups={})
    set_a, set_b = sets
    waves = []
    for side, members, other in (("a", set_a, set_b), ("b", set_b, set_a)):
        names = [f"{prefix}{side}{i}" for i in range(n)]
        creator = next(m for m in members if m not in other)
        waves.append((names, members, creator))
        for name in names:
            scenario.groups[name] = list(members)
    schedule = cluster.env.scheduler.schedule
    for names, _members, creator in waves:
        for index, group in enumerate(names):
            schedule(index * 150 * MS, lambda g=group, c=creator: scenario.join(g, c))
    cluster.run_for(n * 150 * MS + SECOND)
    for names, members, creator in waves:
        for index, group in enumerate(names):
            for node in members:
                if node != creator:
                    schedule(index * 40 * MS, lambda g=group, c=node: scenario.join(g, c))
    cluster.run_for(n * 40 * MS)
    name = f"{prefix}a/{prefix}b(n={n}, {flavour})"
    timeout_us = int(settle_seconds * SECOND)
    if not cluster.run_until(scenario.converged, timeout_us=timeout_us):
        raise RuntimeError(f"{name} failed to converge within {settle_seconds}s")
    # Let the naming dust settle, then the mapping reach its fixed point.
    cluster.run_for_seconds(tail_seconds)
    if not cluster.run_until(lambda: mapping_at_fixed_point(cluster), timeout_us=timeout_us):
        raise RuntimeError(f"{name} mapping never settled")
    return scenario


def build_figure2(n: int, flavour: str, seed: int = 0) -> Scenario:
    """Build and converge the Figure-2 configuration: groups ``a0..``
    over ``p0..p3`` and ``b0..`` over ``p4..p7``."""
    ids = [f"p{i}" for i in range(2 * GROUP_SIZE)]
    return _build_two_sets(
        "", (ids[:GROUP_SIZE], ids[GROUP_SIZE:]), n, flavour, seed,
        settle_seconds=6.0 + 0.75 * n, tail_seconds=1.0,
    )


def build_overlap(n: int, flavour: str, seed: int = 0) -> Scenario:
    """Build and converge configuration B: groups ``oa0..`` over
    ``p0..p3`` and ``ob0..`` over ``p2..p5`` (p2, p3 in both).

    With k_m = 4 the share rule must NOT collapse the two classes
    (overlap k = 2 against sqrt(2*2*2) ~ 2.83), so the dynamic service
    should stabilise on two HWGs, the overlap processes carrying both:
    partial sharing that a static design cannot express.  The B groups
    are created by p4 but send from p2.
    """
    return _build_two_sets(
        "o", (["p0", "p1", "p2", "p3"], ["p2", "p3", "p4", "p5"]), n, flavour, seed,
        settle_seconds=8.0 + 0.75 * n, tail_seconds=2.0,
    )


# ----------------------------------------------------------------------
# Figure 2a: latency
# ----------------------------------------------------------------------
def measure_latency(setup: Scenario, probes_per_group: int = 10) -> SummaryStats:
    """Mean send-to-delivery latency under light load.

    Each group's sender sends ``probes_per_group`` timestamped messages,
    20 ms apart across all groups so the medium does not saturate; the
    latency of every delivery at every member is collected.
    """
    cluster = setup.cluster
    gap_us = 20 * MS
    groups = list(setup.groups.items())
    for round_no in range(probes_per_group):
        for index, (group, members) in enumerate(groups):
            handle = setup.handles[(group, members[0])]
            delay = round_no * gap_us * len(groups) + index * gap_us
            cluster.env.scheduler.schedule(
                delay, lambda h=handle, s=round_no: h.send(probe_payload(cluster.env, s))
            )
    cluster.run_for(probes_per_group * gap_us * len(groups) + 2 * SECOND)
    stats = setup.hub.latency.summary()
    assert stats is not None, "no probe deliveries recorded"
    return stats


# ----------------------------------------------------------------------
# Figure 2b: throughput
# ----------------------------------------------------------------------
def measure_throughput(setup: Scenario, burst_per_group: int = 50) -> float:
    """Aggregate delivered messages/second under saturating load.

    Every group's sender offers its whole burst at once (far beyond the
    medium's capacity), and the clock stops when the last delivery of
    the last group lands, or after 60 s — so the figure is the system's
    drain rate, not the offered rate.
    """
    cluster = setup.cluster
    start = cluster.env.now
    baseline = setup.hub.deliveries
    expected = burst_per_group * sum(len(members) for members in setup.groups.values())
    for group, members in setup.groups.items():
        handle = setup.handles[(group, members[0])]
        for seq in range(burst_per_group):
            handle.send(probe_payload(cluster.env, seq))
    drained = cluster.run_until(
        lambda: setup.hub.deliveries - baseline >= expected,
        timeout_us=60 * SECOND,
        step_us=20 * MS,
    )
    delivered = setup.hub.deliveries - baseline
    elapsed = cluster.env.now - start
    if not drained and delivered == 0:
        raise RuntimeError(f"throughput ({cluster.flavour}): nothing delivered")
    return delivered * 1_000_000 / max(1, elapsed)


# ----------------------------------------------------------------------
# Figure 2c: recovery time
# ----------------------------------------------------------------------
@dataclass
class RecoveryResult:
    """Breakdown of a crash-recovery measurement (microseconds).

    ``total_us`` is crash-to-last-reconfiguration; ``detection_us`` is
    the failure-detector share (common to every flavour — one shared
    detector per process); ``reconfig_us`` is the protocol work that
    differs between services: flushes and view installations for every
    affected group.
    """

    total_us: int
    detection_us: int

    @property
    def reconfig_us(self) -> int:
        return max(0, self.total_us - self.detection_us)


def measure_recovery(
    setup: Scenario,
    victim: str = "p1",
    traffic_period_us: Optional[int] = 60 * MS,
) -> RecoveryResult:
    """Crash ``victim``; time until every group it was in has
    reconfigured at every survivor (at most 60 s).

    By default every group carries light background traffic while the
    crash is handled, as in the paper's testbed: recovery must flush the
    in-transit messages of every affected group, so its cost scales with
    how many independent recovery protocols must run — n per crash
    without the service, one per HWG with it.  ``traffic_period_us=None``
    crashes a quiet scenario.
    """
    cluster = setup.cluster
    prefix = "" if cluster.flavour == "none" else "lwg:"
    expected = [
        (f"{prefix}{group}", node)
        for group, members in setup.groups.items()
        if victim in members
        for node in members
        if node != victim
    ]
    senders: List[PeriodicSender] = []
    if traffic_period_us is not None:
        senders = [
            PeriodicSender(
                cluster.env,
                cluster.stack(members[0]),
                setup.handles[(group, members[0])],
                period_us=traffic_period_us,
            )
            for group, members in setup.groups.items()
        ]
        for sender in senders:
            sender.start()
        cluster.run_for_seconds(0.5)  # traffic flowing before the crash
    detection_at: List[int] = []

    def watch_suspicion(peer: str, suspected: bool) -> None:
        if suspected and peer == victim and not detection_at:
            detection_at.append(cluster.env.now)

    for node in cluster.process_ids:
        if node != victim:
            cluster.stack(node).fd.subscribe(watch_suspicion)
    crashed_at = cluster.env.now
    setup.hub.recovery.arm(crashed_at, victim, expected)
    cluster.crash(victim)
    done = cluster.run_until(lambda: setup.hub.recovery.complete, timeout_us=60 * SECOND)
    for sender in senders:
        sender.stop()
    if not done:
        raise RuntimeError(f"recovery of {victim} ({cluster.flavour}) incomplete after 60s")
    total = setup.hub.recovery.recovery_time_us()
    assert total is not None
    detection = (detection_at[0] - crashed_at) if detection_at else 0
    return RecoveryResult(total_us=total, detection_us=detection)


# ----------------------------------------------------------------------
# Figures 3-4 / Tables 3-4: the partition-reconciliation scenario
# ----------------------------------------------------------------------
def build_partition_scenario(
    num_groups: int = 2, side_size: int = 2, seed: int = 0
) -> Scenario:
    """Create ``num_groups`` LWGs (``a``, ``b``, ...) over every process
    while the network is split into two sides of ``side_size`` processes
    (the first side starts at ``p0``), then run 5 s.

    Each side has its own name server, so each side establishes its own
    (mutually inconsistent) mappings — the Figure-3 starting state.  The
    scenario converges on one full view per LWG, everyone on one HWG.
    """
    cluster = Cluster(
        num_processes=2 * side_size,
        seed=seed,
        flavour="dynamic",
        num_name_servers=2,
        lwg_config=_scaled_lwg_config(),
    )
    everyone = cluster.process_ids
    cluster.partition(everyone[:side_size] + ["ns0"], everyone[side_size:] + ["ns1"])
    groups = {chr(ord("a") + i): everyone for i in range(num_groups)}
    scenario = Scenario(cluster, ProbeHub(env=cluster.env), groups, one_view=True)
    for group in groups:
        for node in everyone:
            scenario.join(group, node)
    cluster.run_for_seconds(5.0)
    return scenario
