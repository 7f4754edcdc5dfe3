"""High-group-count placement workload: Zipf-ish classes over two zones.

The scenario is built so the paper's Figure-1 rules converge to a
mapping they can never improve, while the placement optimizer
(:mod:`repro.core.placement`) finds a strictly cheaper one:

* a **zone** is 12 processes: one *dominant* class spans the whole
  zone, and the other classes are nested prefixes of it (4-8 process
  subsets), the hierarchy real deployments show (everyone / a team / a
  pair of replicas);
* under the paper rules each zone is driven onto **one 12-member HWG**,
  from any intermediate state: all of a zone's classes share a
  coordinator (the first zone process), so whenever churn strands a
  sub-class on its own HWG, that coordinator sees both HWGs, the
  sub-class is a non-minority subset of the zone HWG (``4*4 > 12``),
  and the share rule collapses the pair right back together;
* the collapse is irreversible: every sub-class covers 33-67% of the
  zone HWG — never a minority under ``k_m = 4`` — so the interference
  rule holds the mapping forever, and every multicast for a 4-8 member
  class pays fan-out 12;
* LWG counts per class follow a Zipf-ish 1/rank split with the
  *sub-window* classes ranked first, so the misplaced classes carry
  most of the load (the uneven popularity reported for real group
  systems).

The optimizer's cost model charges that slack fan-out directly.  Its
greedy pass places each class whole, heaviest first, and ends with
three HWGs per zone: the two hottest classes on a 6-member HWG, the
4-8 member classes on a second and the zone-wide class on a third, so
each crash/recovery flush walks fewer members.
``benchmarks/bench_policies.py`` asserts the flush ratio and bounds the
fabric ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..sim.engine import MS, SECOND
from .cluster import Cluster
from .scenarios import Scenario, _scaled_lwg_config
from .traffic import ProbeHub, probe_payload

#: Processes per zone.  12 keeps every sub-window (4 or 6 wide) above
#: the ``k_m = 4`` minority threshold on the zone HWG, which is the
#: whole point: the paper rules must be *stuck with* the
#: one-HWG-per-zone mapping.
ZONE_SIZE = 12

#: (offset, width) of each membership class inside a zone, in Zipf rank
#: order: sub-classes first (they carry the load), the dominant
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
    class — so the zones mirror each other and the misplaced sub-window
    classes carry most of the load.
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
# Fabric metering
# ----------------------------------------------------------------------

#: Message types that are merge/flush machinery: the vsync flush
#: protocol (Stop .. InstallView), partition-merge discovery and
#: branch reconciliation, and the LWG announce/merge control messages.
#: Everything else (data, heartbeats, naming) is excluded.
_FLUSH_MERGE_TYPES = frozenset(
    {
        "Stop",
        "FlushState",
        "FlushFill",
        "FlushDone",
        "InstallView",
        "MergeRequest",
        "MergeDecline",
        "BranchFlushed",
        "MergeViewsMsg",
        "AllViewsMsg",
        "LwgViewMsg",
    }
)

#: Failure-detection traffic: per-peer heartbeats under the flat
#: topology, gossip digests / indirect probes / zone summaries under
#: "zoned" (PROTOCOLS.md §20).  Metered separately from flush/merge —
#: FD volume is the quantity the zoned topology exists to shrink.
_FD_TYPES = frozenset(
    {"Heartbeat", "LivenessDigest", "ProbeRequest", "ProbePing", "ZoneSummary"}
)


def classify_flush_payload(payload: Any, max_depth: int = 5) -> Optional[str]:
    """The merge/flush/FD message type carried by ``payload``.

    Control messages are never batched (the packer flushes before every
    ``hwg_send`` of an LWG control message), so unwrapping the nested
    ``payload`` attributes — transport segment, then total-order wrapper,
    then the LWG message — is enough to see the real type.
    """
    for _ in range(max_depth):
        if payload is None:
            return None
        name = type(payload).__name__
        if name in _FLUSH_MERGE_TYPES or name in _FD_TYPES:
            return name
        payload = getattr(payload, "payload", None)
    return None


class FabricMeter:
    """Counts merge/flush and heartbeat deliveries on a cluster's fabric.

    Wraps ``Network._deliver`` (the single funnel every scheduled
    delivery fires through), classifies each payload and forwards it
    untouched.  A delivery binds ``_deliver`` when it is sent, so build
    the meter before the cluster carries traffic.  Counts include
    deliveries dropped at fire time by a concurrent crash/partition — a
    flush message the fabric carried is work regardless of whether the
    receiver was still there.
    """

    def __init__(self, cluster: Cluster):
        self.flush_messages = 0
        self.flush_bytes = 0
        self.heartbeats = 0
        self.fd_messages = 0
        self.by_type: Dict[str, int] = {}
        self._network = cluster.env.network
        network = self._network
        inner = network._deliver

        def metered(src: str, dst: str, payload: Any, size: int) -> None:
            kind = classify_flush_payload(payload)
            if kind in _FD_TYPES:
                self.fd_messages += 1
                if kind == "Heartbeat":
                    self.heartbeats += 1
                self.by_type[kind] = self.by_type.get(kind, 0) + 1
            elif kind is not None:
                self.flush_messages += 1
                self.flush_bytes += size
                self.by_type[kind] = self.by_type.get(kind, 0) + 1
            inner(src, dst, payload, size)

        network._deliver = metered  # type: ignore[method-assign]

    @property
    def fanout_memo_hits(self) -> int:
        """Multicast fan-out memo hits on the underlying fabric."""
        return getattr(self._network, "fanout_memo_hits", 0)

    @property
    def fanout_memo_misses(self) -> int:
        return getattr(self._network, "fanout_memo_misses", 0)

    def snapshot(self) -> int:
        return self.flush_messages

    def counters(self) -> Dict[str, int]:
        """All meter counters, including the fabric's fan-out memo stats."""
        return {
            "flush_messages": self.flush_messages,
            "flush_bytes": self.flush_bytes,
            "heartbeats": self.heartbeats,
            "fd_messages": self.fd_messages,
            "fanout_memo_hits": self.fanout_memo_hits,
            "fanout_memo_misses": self.fanout_memo_misses,
        }


# ----------------------------------------------------------------------
# The scenario
# ----------------------------------------------------------------------
def build_placement_scenario(
    placement: str, num_lwgs: int = 120, seed: int = 0
) -> Scenario:
    """Build and converge the two-zone scenario under the given placement
    policy, then let the policy drain its moves.

    Classes are joined window by window (both zones in parallel): the
    creator first, then the remaining members.  The exact interleaving
    with policy evaluations does not matter — under the paper rules the
    share-rule collapse merges each zone onto one HWG from any
    intermediate state.
    """
    classes = zipf_classes(num_lwgs=num_lwgs)
    cluster = Cluster(
        num_processes=2 * ZONE_SIZE,
        seed=seed,
        lwg_config=replace(
            _scaled_lwg_config(), placement_policy=placement, placement_max_switches=8
        ),
        keep_trace=False,
    )
    meter = FabricMeter(cluster)
    groups = {
        group: list(cls.members) for cls in classes for group in cls.group_names
    }
    setup = Scenario(cluster, ProbeHub(env=cluster.env), groups, meter=meter)

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
            f"placement scenario ({placement}, {num_lwgs} LWGs) failed to "
            f"converge; {len(laggards)} laggard(s), first: {laggards[:4]}"
        )
    # Let the placement policy reach its fixed point: the first moves
    # wait for one policy period with no view change, then the backlog
    # (one move per misplaced LWG) drains a rate-limited batch per
    # policy period — so the window scales with the group count.
    cluster.run_for_seconds(30.0 + 0.4 * num_lwgs)
    # The drain itself strands HWG remnants that need healing; require
    # the system to be whole again before anyone measures on it.
    if not cluster.run_until(setup.converged, timeout_us=timeout):
        raise RuntimeError(
            f"placement scenario ({placement}, {num_lwgs} LWGs) degraded "
            f"while draining placement moves"
        )
    return setup


def _max_hwg_size(cluster: Cluster) -> int:
    """Largest HWG membership seen from any live endpoint."""
    largest = 0
    for node in cluster.process_ids:
        try:
            stack = cluster.stack(node)
        except KeyError:
            continue
        for endpoint in getattr(stack, "endpoints", {}).values():
            view = getattr(endpoint, "current_view", None)
            if view is not None:
                largest = max(largest, len(view.members))
    return largest


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
@dataclass
class PlacementMetrics:
    """Traffic attributable to one placement, over identical phases."""

    #: Fabric deliveries during the paced data phase, excluding FD
    #: heartbeats: app multicasts plus all placement-dependent control
    #: (announces, view machinery).  Heartbeats are excluded because the
    #: dominant zone class pins the FD peer graph to the full zone under
    #: *both* placements — a constant-rate background that would only
    #: dilute the comparison.
    data_messages: int
    data_heartbeats: int
    data_seconds: float
    #: Merge/flush control deliveries during the churn phase.
    flush_messages: int
    flush_by_type: Dict[str, int] = field(default_factory=dict)
    hwg_count: int = 0
    max_hwg_size: int = 0


def measure_placement(setup: Scenario) -> PlacementMetrics:
    """Run the paced data phase (three rounds), then the crash/recover
    churn phase.

    Both phases advance simulated time by amounts that depend only on
    the scenario shape, so two setups that differ *only* in placement
    are compared over identical windows.

    The churn victims are the second process of each zone: a member of
    the zone's first wide and first narrow window but the coordinator of
    nothing, so the flush/rejoin traffic — not coordinator succession —
    dominates the phase.
    """
    meter = setup.meter
    assert meter is not None, "not a placement scenario"
    cluster = setup.cluster
    network = cluster.env.network

    # --- data phase: every LWG's creator multicasts, paced. -----------
    gap = 10 * MS
    rounds = 3
    sends = [(group, members[0]) for group, members in setup.groups.items()]
    data_start = cluster.env.now
    base_delivered = network.messages_delivered
    base_heartbeats = meter.heartbeats
    for round_no in range(rounds):
        for index, (group, sender) in enumerate(sends):
            delay = (round_no * len(sends) + index) * gap
            handle = setup.handles[(group, sender)]
            cluster.env.scheduler.schedule(
                delay,
                lambda h=handle, r=round_no: h.send(probe_payload(cluster.env, r)),
            )
    cluster.run_for(rounds * len(sends) * gap + 2 * SECOND)
    data_heartbeats = meter.heartbeats - base_heartbeats
    data_messages = (
        network.messages_delivered - base_delivered - data_heartbeats
    )
    data_seconds = (cluster.env.now - data_start) / SECOND

    # --- churn phase: crash + recover + rejoin, one victim per zone. --
    base_flush = meter.snapshot()
    base_by_type = dict(meter.by_type)
    for victim in ("p1", f"p{ZONE_SIZE + 1}"):
        cluster.crash(victim)
        cluster.run_for_seconds(4)
        cluster.recover(victim)
        for group, members in setup.groups.items():
            if victim in members:
                setup.join(group, victim)
        cluster.run_for_seconds(8)
    flush_messages = meter.snapshot() - base_flush
    flush_by_type = {
        kind: count - base_by_type.get(kind, 0)
        for kind, count in meter.by_type.items()
        if count - base_by_type.get(kind, 0) > 0
    }

    return PlacementMetrics(
        data_messages=data_messages,
        data_heartbeats=data_heartbeats,
        data_seconds=data_seconds,
        flush_messages=flush_messages,
        flush_by_type=flush_by_type,
        hwg_count=len(setup.hwgs_in_use()),
        max_hwg_size=_max_hwg_size(cluster),
    )
