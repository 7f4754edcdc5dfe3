"""The four fixed-work workloads of the e2e benchmark and their checks.

Every workload is a deterministic function of ``(seed, beds, slices per
bed)``: a run builds ``beds`` independent test beds one after the other,
bed ``k`` from the seed ``seed * beds + k``, and runs the same number of
slices on each.  A bed's seed feeds the cluster's RNG registry (link
jitter, timer jitter) and a private ``random.Random`` that draws the
workload's inputs (sender phases, burst order, churn victims).  The
program under test only ever sees the generated inputs.  Event
timestamps come from the benchmark's own LWG listeners, never from a
polling step; the polling predicates below only decide when the script
moves on, on a fixed sim-time grid.

The cluster is always the default configuration: ``LwgConfig()`` with
the 2 s policy period every scenario of the repo uses, ``VsyncConfig()``,
``durable=True``, ``keep_trace=False`` and ``checkers=False`` (the
``--verify`` pass turns the checkers on).
"""

from __future__ import annotations

import random
import statistics
import sys
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

_SRC = Path(__file__).resolve().parents[2] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.service import LwgListener  # noqa: E402
from repro.sim.network import LinkModel  # noqa: E402
from repro.workloads.cluster import Cluster  # noqa: E402
from repro.workloads.scenarios import _scaled_lwg_config  # noqa: E402

from e2e_harness import Histogram, quantile  # noqa: E402

MS = 1_000
SECOND = 1_000_000

#: Payload bytes of every probe (the repo's default user-message size).
PROBE_BYTES = 256
#: An op that has not completed this long after it was issued has failed.
OP_TIMEOUT_US = 30 * SECOND


class Hub:
    """Shared sink of every probe listener of one test bed."""

    def __init__(self, sim):
        self.sim = sim
        #: send→delivery latency of every probe delivery, in arrival order.
        self.lat = array("i")
        #: sim-time of the most recent delivery.
        self.last = 0
        #: Optional layer diagnostics (traced runs only).
        self.diag = None


class Probe(LwgListener):
    """The benchmark's listener for one (LWG, process) membership."""

    def __init__(self, hub: Hub, group: "Group", node: str):
        self.hub = hub
        self.group = group
        self.node = node
        self.view = None
        #: When this listener first saw a view with every group member.
        self.full_at: Optional[int] = None
        #: Probe ids in delivery order (the verification input).
        self.order = array("i")

    def on_view(self, lwg, view) -> None:
        self.view = view
        now = self.hub.sim.now
        if self.full_at is None and len(view.members) == len(self.group.members):
            self.full_at = now
        self.group.view_changed(now)

    def on_data(self, lwg, src, payload, size) -> None:
        hub = self.hub
        now = hub.sim.now
        hub.lat.append(now - payload[1])
        hub.last = now
        self.order.append(payload[0])


class Group:
    """One LWG of the bed: members, live listeners and convergence state."""

    def __init__(self, name: str, members: Sequence[str]):
        self.name = name
        self.members = tuple(members)
        #: Who should currently share one view (changes under churn).
        self.expected = frozenset(members)
        self.probes: Dict[str, Probe] = {}
        self.handles: Dict[str, object] = {}
        #: Listeners replaced by a rejoin; kept for the order checks.
        self.retired: List[Probe] = []
        #: When ``expected`` last came to share one view (None: it does not).
        self.converged_at: Optional[int] = None
        self.next_probe = 0
        self.turn = 0

    def converged(self) -> bool:
        """Every expected member holds the same view of exactly them."""
        view_id = None
        for node in self.expected:
            probe = self.probes.get(node)
            view = probe.view if probe is not None else None
            if view is None or len(view.members) != len(self.expected):
                return False
            if view_id is None:
                view_id = view.view_id
                if frozenset(view.members) != self.expected:
                    return False
            elif view.view_id != view_id:
                return False
        return True

    def view_changed(self, now: int) -> None:
        if not self.converged():
            self.converged_at = None
        elif self.converged_at is None:
            self.converged_at = now

    def expect(self, members) -> None:
        self.expected = frozenset(members)
        self.converged_at = None

    def on_one_hwg(self) -> bool:
        return len({self.handles[node].hwg for node in self.expected}) == 1

    def send(self, node: str, sim) -> None:
        probe_id = self.next_probe
        self.next_probe = probe_id + 1
        self.handles[node].send((probe_id, sim.now), PROBE_BYTES)


class Bed:
    """A converged cluster of disjoint process sets sharing LWGs."""

    def __init__(
        self,
        seed: int,
        sets: int,
        set_size: int,
        lwgs_per_set: int,
        name_servers: int = 1,
        bandwidth_bps: Optional[int] = None,
        checkers: bool = False,
    ):
        link = LinkModel(bandwidth_bps=bandwidth_bps) if bandwidth_bps else None
        self.cluster = Cluster(
            num_processes=sets * set_size,
            seed=seed,
            num_name_servers=name_servers,
            lwg_config=_scaled_lwg_config(),
            link=link,
            keep_trace=False,
            checkers=checkers,
        )
        self.env = self.cluster.env
        self.sim = self.env.sim
        self.net = self.env.network
        self.rng = random.Random(seed)
        #: Own stream for send-interval jitter, so the scripted draws
        #: (victims, burst order) do not depend on traffic timing.
        self.traffic_rng = random.Random(f"traffic:{seed}")
        self.hub = Hub(self.sim)
        ids = self.cluster.process_ids
        self.sets = [ids[i * set_size:(i + 1) * set_size] for i in range(sets)]
        self.groups: List[Group] = [
            Group(f"s{s}g{g}", members)
            for s, members in enumerate(self.sets)
            for g in range(lwgs_per_set)
        ]
        self.lwgs_per_set = lwgs_per_set
        self.generating = False
        self._join_all()

    # -- joins -----------------------------------------------------------
    def join(self, group: Group, node: str) -> Probe:
        """(Re)join ``node`` to ``group`` behind a fresh listener."""
        old = group.probes.get(node)
        if old is not None:
            group.retired.append(old)
        probe = Probe(self.hub, group, node)
        group.probes[node] = probe
        group.handles[node] = self.cluster.services[node].join(group.name, probe)
        return probe

    def _join_all(self) -> None:
        # Creators first, staggered, so the optimistic mapping rule sees a
        # stable pool and co-maps each set's LWGs; followers afterwards.
        schedule = self.sim.schedule
        for index, group in enumerate(self.groups):
            schedule(
                (index % self.lwgs_per_set) * 150 * MS,
                lambda g=group: self.join(g, g.members[0]),
            )
        self.env.run_for(self.lwgs_per_set * 150 * MS + SECOND)
        # A follower enters its set's HWG through the set's first LWG, one
        # process at a time, and joins the others once that view is whole.
        # Joining all of a set's LWGs while the process is still outside
        # the HWG is an excluded collapse regime (README): on 1 seed in
        # 100 a process is never admitted to any of them.
        leads = self.groups[::self.lwgs_per_set]
        for group in leads:
            for position, node in enumerate(group.members[1:]):
                schedule(position * 200 * MS, lambda g=group, n=node: self.join(g, n))
        if not self.cluster.run_until(
            lambda: all(group.converged_at is not None for group in leads),
            timeout_us=40 * SECOND,
        ):
            raise RuntimeError("set-up: the first LWG of a set did not converge in 40 sim-s")
        for index, group in enumerate(self.groups):
            if index % self.lwgs_per_set:
                for node in group.members[1:]:
                    schedule(
                        (index % self.lwgs_per_set) * 40 * MS,
                        lambda g=group, n=node: self.join(g, n),
                    )
        if not self.cluster.run_until(self.settled, timeout_us=40 * SECOND):
            raise RuntimeError("set-up: the LWG views did not converge in 40 sim-s")
        self.env.run_for(SECOND)

    # -- state predicates --------------------------------------------------
    def settled(self) -> bool:
        """Every LWG in one view on one HWG, and the name servers agree."""
        for group in self.groups:
            if group.converged_at is None or not group.on_one_hwg():
                return False
        return self.naming_agrees()

    def naming_agrees(self) -> bool:
        servers = self.cluster.name_servers.values()
        return len({server.db.content_hash() for server in servers}) == 1

    def wait(self, predicate: Callable[[], bool], step_us: int = 10 * MS) -> bool:
        return self.cluster.run_until(predicate, timeout_us=OP_TIMEOUT_US, step_us=step_us)

    # -- open-loop traffic ---------------------------------------------------
    def start_traffic(self, period_us: int) -> None:
        """Every LWG sends one probe per ``period_us`` on average, senders
        rotating over its members.

        Each interval is drawn uniformly from ``period_us`` ± 10 %, so the
        LWGs' relative phases wander through every alignment within a run:
        how many probes share a batch window or queue behind each other
        is then a property of the run, not of the seed's initial phases.
        A sender that is not currently a member (left, crashed) skips its
        turn.
        """
        self.generating = True
        slot = period_us // len(self.groups)
        for index, group in enumerate(self.groups):
            phase = index * slot + self.traffic_rng.randrange(slot)
            self.sim.schedule(phase, self._ticker(group, period_us))

    def _ticker(self, group: Group, period_us: int) -> Callable[[], None]:
        sim = self.sim
        members = group.members
        count = len(members)
        shortest = period_us - period_us // 10
        jitter = 2 * (period_us // 10) + 1
        randrange = self.traffic_rng.randrange

        def tick() -> None:
            if not self.generating:
                return
            node = members[group.turn % count]
            group.turn += 1
            if group.handles[node].is_member:
                group.send(node, sim)
            sim.schedule(shortest + randrange(jitter), tick)

        return tick

    def stop_traffic(self) -> None:
        self.generating = False


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------
def _check_static_group(group: Group, errors: List[str]) -> None:
    """Static membership: every probe exactly once everywhere, one order."""
    sent = group.next_probe
    reference = group.probes[group.members[0]].order
    if len(reference) != sent or len(set(reference)) != sent:
        errors.append(
            f"{group.name}: {len(reference)} deliveries ({len(set(reference))} distinct) "
            f"of {sent} probes at {group.members[0]}"
        )
    for node in group.members[1:]:
        if group.probes[node].order != reference:
            errors.append(f"{group.name}: {node} and {group.members[0]} delivered differently")


def _check_static(bed: Bed, workload: "Workload") -> List[str]:
    errors: List[str] = []
    for group in bed.groups:
        _check_static_group(group, errors)
    # Probes still missing after the drain are failed ops.
    workload.undelivered += sum(
        max(0, group.next_probe - len(probe.order))
        for group in bed.groups
        for probe in group.probes.values()
    )
    return errors


def _check_dynamic_group(group: Group, errors: List[str]) -> None:
    """Changing membership: no duplicate anywhere, pairwise one order."""
    sequences = [
        (probe.node, list(probe.order))
        for probe in list(group.probes.values()) + group.retired
        if len(probe.order)
    ]
    positions = []
    for node, sequence in sequences:
        index = {probe_id: i for i, probe_id in enumerate(sequence)}
        if len(index) != len(sequence):
            errors.append(f"{group.name}: duplicate delivery at {node}")
        positions.append(index)
    for a, (node_a, sequence) in enumerate(sequences):
        for b in range(a + 1, len(sequences)):
            other = positions[b]
            shared = [other[p] for p in sequence if p in other]
            if any(x >= y for x, y in zip(shared, shared[1:])):
                errors.append(
                    f"{group.name}: {node_a} and {sequences[b][0]} disagree on delivery order"
                )


def _check_final_state(bed: Bed, errors: List[str]) -> None:
    """Quiet end state: full views on one HWG, naming agreed, data flows."""
    if not bed.wait(bed.settled):
        for group in bed.groups:
            if group.converged_at is None or not group.on_one_hwg():
                errors.append(f"{group.name}: not in one full view on one HWG at the end")
        if not bed.naming_agrees():
            errors.append("name servers disagree on content_hash at the end")
        return
    # One last probe per member and LWG must reach every member once.
    marks = {}
    for group in bed.groups:
        marks[group.name] = group.next_probe
        for node in group.members:
            group.send(node, bed.sim)
    bed.env.run_for(2 * SECOND)
    for group in bed.groups:
        want = set(range(marks[group.name], group.next_probe))
        for node in group.members:
            tail = [p for p in group.probes[node].order if p >= marks[group.name]]
            if len(tail) != len(want) or set(tail) != want:
                errors.append(f"{group.name}: final probes not delivered exactly once at {node}")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class SliceOutcome:
    """What one slice did: ops completed, ops failed, and how long the
    system was busy with them."""

    __slots__ = ("ops", "failed", "active_us", "messages", "bytes")

    def __init__(self, ops: int, failed: int, active_us: int):
        self.ops = ops
        self.failed = failed
        self.active_us = active_us
        self.messages = 0
        self.bytes = 0


class Workload:
    """Base: subclasses build a bed, run equal slices on it, then verify
    it; the sample accumulators outlive the bed, so a run can do that on
    several beds in turn."""

    name = ""
    op = ""
    #: Slices (over all beds) per second of ``--seconds``.
    slices_per_second = 1.0
    #: Scripted ops of one slice (for failure accounting after an abort).
    ops_per_slice = 0

    def __init__(self, checkers: bool = False):
        self.checkers = checkers
        self.bed: Optional[Bed] = None
        #: One latency sample per completed op (µs of simulated time).
        self.latencies = Histogram()
        #: Tail statistic input where it differs from ``latencies``.
        self.tail_samples: List[int] = []
        self.extras: Dict[str, List[int]] = {}
        #: Deliveries the final checks found missing (static workloads).
        self.undelivered = 0

    @classmethod
    def slices_per_bed(cls, seconds: float, beds: int) -> int:
        return max(1, round(seconds * cls.slices_per_second / beds))

    def set_up(self, seed: int) -> None:
        """Build a fresh converged, warmed-up bed from ``seed``."""
        raise NotImplementedError

    def run_slice(self, index: int) -> SliceOutcome:
        raise NotImplementedError

    def finish(self) -> List[str]:
        """Drain the bed, verify its outputs, return the violations."""
        raise NotImplementedError

    def fold(self) -> None:
        """Between slices: empty the hub's delivery log (bounds memory)."""
        del self.bed.hub.lat[:]

    def latency_p50(self) -> float:
        return self.latencies.quantile(0.50)

    def latency_tail(self) -> float:
        raise NotImplementedError

    def goodput(self, outcomes: Sequence["SliceOutcome"]) -> float:
        """Ops per simulated second of busy time: the median slice."""
        rates = [o.ops * 1e6 / o.active_us for o in outcomes if o.ops and o.active_us]
        return statistics.median(rates) if rates else 0.0

    def diag_event(self, kind: str) -> None:
        diag = self.bed.hub.diag
        if diag is not None:
            diag.event(kind, self.bed.sim.now)


class _Static(Workload):
    """Fixed membership: the op is a delivery, every delivery a latency sample."""

    op = "delivery"

    def fold(self) -> None:
        self.latencies.update(self.bed.hub.lat)
        super().fold()

    def latency_tail(self) -> float:
        return self.latencies.quantile(0.99)


class Multicast(_Static):
    name = "multicast"
    slices_per_second = 1.0
    PERIOD_US = 40 * MS
    SLICE_US = 6 * SECOND
    ops_per_slice = 32 * 4 * (SLICE_US // PERIOD_US)

    def set_up(self, seed: int) -> None:
        self.bed = bed = Bed(seed, sets=4, set_size=4, lwgs_per_set=8, checkers=self.checkers)
        bed.start_traffic(self.PERIOD_US)
        bed.env.run_for(2 * SECOND)
        del bed.hub.lat[:]

    def run_slice(self, index: int) -> SliceOutcome:
        bed = self.bed
        before = len(bed.hub.lat)
        started = bed.sim.now
        bed.env.run_for(self.SLICE_US)
        # Active until the slice's last delivery, not the scripted horizon.
        return SliceOutcome(len(bed.hub.lat) - before, 0, bed.hub.last - started)

    def finish(self) -> List[str]:
        bed = self.bed
        bed.stop_traffic()
        bed.env.run_for(SECOND)
        self.fold()
        return _check_static(bed, self)


class Saturate(_Static):
    name = "saturate"
    slices_per_second = 1.25
    BURST = 50
    ROUNDS_PER_SLICE = 32
    REST_US = 500 * MS
    ops_per_slice = ROUNDS_PER_SLICE * BURST * 4 * 16

    def set_up(self, seed: int) -> None:
        self.bed = bed = Bed(seed, sets=2, set_size=4, lwgs_per_set=8, checkers=self.checkers)
        self._missing = 0
        for _ in range(4):
            self._round()
        self._missing = 0
        del bed.hub.lat[:]

    def _round(self) -> int:
        """Offer every burst, drain, rest; return the drain time."""
        bed = self.bed
        hub = bed.hub
        sim = bed.sim
        order = list(bed.groups)
        bed.rng.shuffle(order)
        started = sim.now
        before = len(hub.lat)
        expected = self.BURST * sum(len(group.members) for group in order)
        for group in order:
            creator = group.members[0]
            for _ in range(self.BURST):
                group.send(creator, sim)
        target = before + expected
        if not bed.wait(lambda: len(hub.lat) >= target, step_us=20 * MS):
            self._missing += target - len(hub.lat)
        drained_at = hub.last
        sim.run_until(max(sim.now, drained_at + self.REST_US))
        return drained_at - started

    def run_slice(self, index: int) -> SliceOutcome:
        hub = self.bed.hub
        before = len(hub.lat)
        missing = self._missing
        drain = sum(self._round() for _ in range(self.ROUNDS_PER_SLICE))
        return SliceOutcome(len(hub.lat) - before, self._missing - missing, drain)

    def finish(self) -> List[str]:
        bed = self.bed
        bed.env.run_for(SECOND)
        self.fold()
        return _check_static(bed, self)


class _Dynamic(Workload):
    """Shared bed of ``heal`` and ``churn``: 16 processes, 2 name servers.

    100 Mbps, not the paper's 10 Mbps: on the 10 Mbps shared medium the
    default stack congestion-collapses when 16 processes heal at once
    (README "Excluded collapse regimes").
    """

    BANDWIDTH_BPS = 100_000_000
    TRAFFIC_PERIOD_US = 100 * MS

    def set_up(self, seed: int) -> None:
        self.bed = bed = Bed(
            seed, sets=2, set_size=8, lwgs_per_set=16, name_servers=2,
            bandwidth_bps=self.BANDWIDTH_BPS, checkers=self.checkers,
        )
        bed.start_traffic(self.TRAFFIC_PERIOD_US)
        bed.env.run_for(2 * SECOND)

    def finish(self) -> List[str]:
        bed = self.bed
        bed.stop_traffic()
        bed.env.run_for(SECOND)
        errors: List[str] = []
        _check_final_state(bed, errors)
        for group in bed.groups:
            _check_dynamic_group(group, errors)
        return errors


class Heal(_Dynamic):
    name = "heal"
    op = "lwg-merge"
    # 30 cycles at the default --seconds: the cycles are chaotic (which
    # messages a flush has to carry hangs on a microsecond of jitter), and
    # fewer of them do not repeat from seed to seed within the bounds.
    slices_per_second = 1.5
    SPLIT_US = 3 * SECOND
    REST_US = 2 * SECOND
    ops_per_slice = 32

    def run_slice(self, index: int) -> SliceOutcome:
        bed = self.bed
        ids = bed.cluster.process_ids
        bed.cluster.partition(list(ids[0::2]) + ["ns0"], list(ids[1::2]) + ["ns1"])
        self.diag_event("split")
        bed.env.run_for(self.SPLIT_US)
        # An LWG that never noticed the split cannot be healed: a failed op.
        split = [group for group in bed.groups if group.converged_at is None]
        failed = len(bed.groups) - len(split)
        bed.cluster.heal()
        healed_at = bed.sim.now
        self.diag_event("heal")
        if bed.wait(bed.settled):
            merged = split
        elif bed.naming_agrees():
            merged = [g for g in split if g.converged_at is not None and g.on_one_hwg()]
        else:
            # The name servers still disagree at the deadline: no merge of
            # this cycle is complete.
            merged = []
        failed += len(split) - len(merged)
        latencies = [group.converged_at - healed_at for group in merged]
        self.latencies.update(latencies)
        slowest = max(latencies, default=0)
        if latencies and not failed:
            self.tail_samples.append(slowest)
        bed.env.run_for(self.REST_US)
        return SliceOutcome(len(merged), failed, slowest)

    def latency_tail(self) -> float:
        # Median over cycles of the slowest LWG of the cycle: 30 cycles
        # support no high percentile, and one slow cycle must not decide it.
        return quantile(sorted(self.tail_samples), 0.50)


class Churn(_Dynamic):
    name = "churn"
    op = "step"
    slices_per_second = 0.75
    STEPS_PER_SLICE = 8
    ops_per_slice = STEPS_PER_SLICE
    LEAVE_GAP_US = 200 * MS
    DOWN_US = SECOND
    RESTART_US = SECOND
    REST_US = 300 * MS

    def __init__(self, checkers: bool = False):
        super().__init__(checkers)
        self.extras = {"join": [], "failover": [], "recover_rejoin": []}
        self._slice_join_means: List[float] = []

    def run_slice(self, index: int) -> SliceOutcome:
        failed = 0
        active = 0
        joins = len(self.extras["join"])
        for step in range(self.STEPS_PER_SLICE):
            latency = self._crash_step() if step % 4 == 3 else self._leave_step()
            if latency is None:
                failed += 1
            else:
                self.latencies.add(latency)
                active += latency
            self.bed.env.run_for(self.REST_US)
        joined = self.extras["join"][joins:]
        if joined:
            self._slice_join_means.append(sum(joined) / len(joined))
        return SliceOutcome(self.STEPS_PER_SLICE - failed, failed, active)

    def latency_p50(self) -> float:
        # Join latency is bimodal (≈3.1 / ≈3.7 ms, near 50:50), which makes
        # the plain median flip between the modes from seed to seed.  The
        # median over slices of the slice's mean join latency does not.
        return quantile(sorted(self._slice_join_means), 0.50)

    def goodput(self, outcomes: Sequence["SliceOutcome"]) -> float:
        # A slice's busy time is two failovers, each 265, 315 or 365 ms by
        # the detector's tick phase, plus 20 ms of joins: the median slice
        # flips between those steps from seed to seed, the whole run's
        # ops over its busy time does not.
        busy = sum(o.active_us for o in outcomes)
        return sum(o.ops for o in outcomes) * 1e6 / busy if busy else 0.0

    def _leave_step(self) -> Optional[int]:
        """leave → 200 ms → rejoin; the latency is join call → full view."""
        bed = self.bed
        group = bed.groups[bed.rng.randrange(len(bed.groups))]
        victim = group.members[bed.rng.randrange(1, len(group.members))]
        group.expect(m for m in group.members if m != victim)
        group.handles[victim].leave()
        bed.env.run_for(self.LEAVE_GAP_US)
        group.expect(group.members)
        joined_at = bed.sim.now
        probe = bed.join(group, victim)
        if not bed.wait(lambda: group.converged_at is not None, step_us=5 * MS):
            return None
        latency = probe.full_at - joined_at
        self.extras["join"].append(latency)
        return latency

    def _crash_step(self) -> Optional[int]:
        """crash → survivors exclude the victim → 1 s → recover → 1 s → rejoin.

        The recovered process waits a second before its application
        rejoins, then rejoins one LWG first — which brings it back into
        the HWG — and its other 15 once that view is whole.  Rejoining all
        16 the instant the process is back is an excluded collapse regime
        (README): the HWG join probe goes unanswered, the 16 queued join
        requests are never admitted, and the joiner ends up burying live
        mappings and founding singleton views.
        """
        bed = self.bed
        members = bed.sets[bed.rng.randrange(len(bed.sets))]
        victim = members[bed.rng.randrange(1, len(members))]
        affected = [group for group in bed.groups if victim in group.members]

        def whole() -> bool:
            return all(group.converged_at is not None for group in affected)

        for group in affected:
            group.expect(m for m in group.members if m != victim)
        crashed_at = bed.sim.now
        bed.cluster.crash(victim)
        self.diag_event("crash")
        excluded = bed.wait(whole, step_us=5 * MS)
        failover = max(group.converged_at or 0 for group in affected) - crashed_at
        bed.env.run_for(self.DOWN_US)
        bed.cluster.recover(victim)
        self.diag_event("recover")
        bed.env.run_for(self.RESTART_US)
        rejoin_at = bed.sim.now
        first = affected[0]
        first.expect(first.members)
        bed.join(first, victim)
        rejoined = bed.wait(lambda: first.converged_at is not None, step_us=5 * MS)
        for group in affected[1:]:
            group.expect(group.members)
            bed.join(group, victim)
        rejoined = bed.wait(whole, step_us=5 * MS) and rejoined
        if not (excluded and rejoined):
            return None
        self.extras["failover"].append(failover)
        self.extras["recover_rejoin"].append(
            max(group.converged_at for group in affected) - rejoin_at
        )
        return failover

    def latency_tail(self) -> float:
        # One sample per step; a quarter of the steps are crashes whose
        # failover is FD-timeout bound, so the p90 step is a failover.
        return self.latencies.quantile(0.90)


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (Multicast, Saturate, Heal, Churn)
}
