"""The paper's evaluation scenarios.

* :func:`build_figure2` — the Figure-2 configuration: "two sets of n
  user groups where each group within a set has identical membership of
  4 processes, and the two sets have disjoint membership", runnable
  under any of the three services (none / static / dynamic).
* :func:`measure_latency` / :func:`measure_throughput` /
  :func:`measure_recovery` — the three Figure-2 panels.
* :func:`build_partition_scenario` — the Figure-3/4 (Tables 3/4)
  reconciliation scenario: LWGs created in concurrent partitions with
  inconsistent mappings, then healed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import LwgConfig
from ..core.policies import SwitchAction
from ..core.service import LwgService
from ..metrics.collectors import SummaryStats
from ..sim.engine import MS, SECOND
from ..vsync.stack import VsyncConfig
from .cluster import Cluster
from .traffic import PeriodicSender, ProbeHub, ProbeListener, probe_payload

#: Processes per user group in the Figure-2 configuration.
GROUP_SIZE = 4


@dataclass
class Figure2Setup:
    """A built, converged Figure-2 scenario ready for measurement."""

    cluster: Cluster
    flavour: str
    n: int
    groups_a: List[str]
    groups_b: List[str]
    #: (group, node) -> application handle
    handles: Dict[Tuple[str, str], object]
    #: (group, node) -> probe listener
    probes: Dict[Tuple[str, str], ProbeListener]
    hub: ProbeHub

    @property
    def all_groups(self) -> List[str]:
        return self.groups_a + self.groups_b

    def members_of(self, group: str) -> List[str]:
        ids = self.cluster.process_ids
        return ids[:GROUP_SIZE] if group in self.groups_a else ids[GROUP_SIZE:]

    def sender_of(self, group: str) -> str:
        return self.members_of(group)[0]

    def converged(self) -> bool:
        """Every handle is a member of a full (4-member) group view."""
        for (group, node), handle in self.handles.items():
            view = handle.view
            if view is None or len(view.members) != GROUP_SIZE:
                return False
        return True


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
    placement scenario; the latter two ``replace()`` what they change.
    """
    return LwgConfig(policy_period_us=2 * SECOND, shrink_grace_us=1 * SECOND)


def build_figure2(
    n: int,
    flavour: str,
    seed: int = 0,
    settle_seconds: Optional[float] = None,
    creator_stagger_us: int = 150 * MS,
    follower_stagger_us: int = 40 * MS,
    keep_trace: bool = False,
) -> Figure2Setup:
    """Build and converge the Figure-2 configuration.

    Group creators join first (staggered) so the optimistic mapping rule
    sees a stable pool; the remaining members follow.  The scenario is
    run until every group reaches its full 4-member view.
    """
    cluster = Cluster(
        num_processes=2 * GROUP_SIZE,
        seed=seed,
        flavour=flavour,
        lwg_config=_scaled_lwg_config(),
        keep_trace=keep_trace,
    )
    hub = ProbeHub(env=cluster.env)
    groups_a = [f"a{i}" for i in range(n)]
    groups_b = [f"b{i}" for i in range(n)]
    handles: Dict[Tuple[str, str], object] = {}
    probes: Dict[Tuple[str, str], ProbeListener] = {}

    def join(group: str, node: str) -> None:
        probe = ProbeListener(hub, node)
        probes[(group, node)] = probe
        handles[(group, node)] = cluster.services[node].join(group, probe)

    # Wave 1: creators (the first member of each set), staggered.
    for index, group in enumerate(groups_a):
        creator = cluster.process_ids[0]
        cluster.env.scheduler.schedule(
            index * creator_stagger_us, lambda g=group, c=creator: join(g, c)
        )
    for index, group in enumerate(groups_b):
        creator = cluster.process_ids[GROUP_SIZE]
        cluster.env.scheduler.schedule(
            index * creator_stagger_us, lambda g=group, c=creator: join(g, c)
        )
    cluster.run_for(n * creator_stagger_us + SECOND)
    # Wave 2: the remaining members of every group, lightly staggered per
    # group so large configurations don't storm the medium all at once.
    for index, group in enumerate(groups_a):
        for node in cluster.process_ids[1:GROUP_SIZE]:
            cluster.env.scheduler.schedule(
                index * follower_stagger_us, lambda g=group, c=node: join(g, c)
            )
    for index, group in enumerate(groups_b):
        for node in cluster.process_ids[GROUP_SIZE + 1:]:
            cluster.env.scheduler.schedule(
                index * follower_stagger_us, lambda g=group, c=node: join(g, c)
            )
    cluster.run_for(n * follower_stagger_us)
    setup = Figure2Setup(
        cluster=cluster,
        flavour=flavour,
        n=n,
        groups_a=groups_a,
        groups_b=groups_b,
        handles=handles,
        probes=probes,
        hub=hub,
    )
    if settle_seconds is None:
        settle_seconds = 6.0 + 0.75 * n
    converged = cluster.run_until(
        setup.converged, timeout_us=int(settle_seconds * SECOND)
    )
    if not converged:
        raise RuntimeError(
            f"figure2(n={n}, {flavour}) failed to converge within {settle_seconds}s"
        )
    # Let the naming dust settle, then the mapping reach its fixed point.
    cluster.run_for_seconds(1.0)
    if not cluster.run_until(
        lambda: mapping_at_fixed_point(cluster), timeout_us=int(settle_seconds * SECOND)
    ):
        raise RuntimeError(f"figure2(n={n}, {flavour}) mapping never settled")
    return setup


# ----------------------------------------------------------------------
# Figure 2a: latency
# ----------------------------------------------------------------------
def measure_latency(
    setup: Figure2Setup,
    probes_per_group: int = 10,
    gap_us: int = 20 * MS,
) -> SummaryStats:
    """Mean send-to-delivery latency under light load.

    Each group's first member sends ``probes_per_group`` timestamped
    messages, paced so the medium does not saturate; the latency of
    every delivery at every member is collected.
    """
    cluster = setup.cluster
    for round_no in range(probes_per_group):
        for index, group in enumerate(setup.all_groups):
            sender = setup.sender_of(group)
            handle = setup.handles[(group, sender)]
            delay = round_no * gap_us * len(setup.all_groups) + index * gap_us
            cluster.env.scheduler.schedule(
                delay, lambda h=handle, s=round_no: h.send(probe_payload(cluster.env, s))
            )
    total = probes_per_group * gap_us * len(setup.all_groups) + 2 * SECOND
    cluster.run_for(total)
    stats = setup.hub.latency.summary()
    assert stats is not None, "no probe deliveries recorded"
    return stats


# ----------------------------------------------------------------------
# Figure 2b: throughput
# ----------------------------------------------------------------------
def measure_throughput(
    setup: Figure2Setup,
    burst_per_group: int = 50,
    timeout_seconds: float = 60.0,
) -> float:
    """Aggregate delivered messages/second under saturating load.

    Every group's sender offers its whole burst at once (far beyond the
    medium's capacity), and the clock stops when the last delivery of
    the last group lands — so the figure is the system's drain rate, not
    the offered rate.
    """
    cluster = setup.cluster
    start = cluster.env.now
    baseline = setup.hub.deliveries
    expected = burst_per_group * GROUP_SIZE * len(setup.all_groups)
    for group in setup.all_groups:
        sender = setup.sender_of(group)
        handle = setup.handles[(group, sender)]
        for seq in range(burst_per_group):
            handle.send(probe_payload(cluster.env, seq))
    drained = cluster.run_until(
        lambda: setup.hub.deliveries - baseline >= expected,
        timeout_us=int(timeout_seconds * SECOND),
        step_us=20 * MS,
    )
    delivered = setup.hub.deliveries - baseline
    elapsed = cluster.env.now - start
    if not drained and delivered == 0:
        raise RuntimeError(f"throughput(n={setup.n}, {setup.flavour}): nothing delivered")
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
    setup: Figure2Setup,
    victim_index: int = 1,
    timeout_seconds: float = 60.0,
    traffic_period_us: int = 60 * MS,
) -> RecoveryResult:
    """Crash one member of set A; time until every affected group has
    reconfigured at every survivor.

    Every group carries light background traffic while the crash is
    handled, as in the paper's testbed: recovery must flush the
    in-transit messages of every affected group, so its cost scales with
    how many independent recovery protocols must run — n per crash
    without the service, one per HWG with it.
    """
    cluster = setup.cluster
    victim = cluster.process_ids[victim_index]
    affected = [g for g in setup.all_groups if victim in setup.members_of(g)]
    expected = [
        (f"lwg:{group}" if setup.flavour != "none" else group, node)
        for group in affected
        for node in setup.members_of(group)
        if node != victim
    ]
    senders = []
    for group in setup.all_groups:
        sender = setup.sender_of(group)
        senders.append(
            PeriodicSender(
                cluster.env,
                cluster.stack(sender),
                setup.handles[(group, sender)],
                period_us=traffic_period_us,
            )
        )
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
    done = cluster.run_until(
        lambda: setup.hub.recovery.complete, timeout_us=int(timeout_seconds * SECOND)
    )
    for sender in senders:
        sender.stop()
    if not done:
        raise RuntimeError(
            f"recovery(n={setup.n}, {setup.flavour}) incomplete after {timeout_seconds}s"
        )
    total = setup.hub.recovery.recovery_time_us()
    assert total is not None
    detection = (detection_at[0] - crashed_at) if detection_at else 0
    return RecoveryResult(total_us=total, detection_us=detection)


# ----------------------------------------------------------------------
# Figures 3-4 / Tables 3-4: the partition-reconciliation scenario
# ----------------------------------------------------------------------
@dataclass
class PartitionScenario:
    """Two LWGs created with crossed mappings in concurrent partitions."""

    cluster: Cluster
    groups: List[str]
    handles: Dict[Tuple[str, str], object]
    probes: Dict[Tuple[str, str], ProbeListener]
    hub: ProbeHub
    side_a: List[str]
    side_b: List[str]

    def converged(self) -> bool:
        """One full view per LWG, everyone on the same HWG."""
        everyone = self.side_a + self.side_b
        for group in self.groups:
            lwg = f"lwg:{group}"
            view_ids = set()
            hwgs = set()
            for node in everyone:
                handle = self.handles[(group, node)]
                view = handle.view
                if view is None or len(view.members) != len(everyone):
                    return False
                view_ids.add(view.view_id)
                hwgs.add(handle.hwg)
            if len(view_ids) != 1 or len(hwgs) != 1:
                return False
        return True


def build_partition_scenario(
    num_groups: int = 2,
    side_size: int = 2,
    seed: int = 0,
    partition_seconds: float = 5.0,
) -> PartitionScenario:
    """Create ``num_groups`` LWGs while the network is split in two.

    Each side has its own name server, so each side establishes its own
    (mutually inconsistent) mappings — the Figure-3 starting state.
    """
    cluster = Cluster(
        num_processes=2 * side_size,
        seed=seed,
        flavour="dynamic",
        num_name_servers=2,
        lwg_config=_scaled_lwg_config(),
    )
    hub = ProbeHub(env=cluster.env)
    side_a = cluster.process_ids[:side_size]
    side_b = cluster.process_ids[side_size:]
    cluster.partition(side_a + ["ns0"], side_b + ["ns1"])
    groups = [chr(ord("a") + i) for i in range(num_groups)]
    handles: Dict[Tuple[str, str], object] = {}
    probes: Dict[Tuple[str, str], ProbeListener] = {}
    for group in groups:
        for node in side_a + side_b:
            probe = ProbeListener(hub, node)
            probes[(group, node)] = probe
            handles[(group, node)] = cluster.services[node].join(group, probe)
    cluster.run_for_seconds(partition_seconds)
    return PartitionScenario(
        cluster=cluster,
        groups=groups,
        handles=handles,
        probes=probes,
        hub=hub,
        side_a=side_a,
        side_b=side_b,
    )
