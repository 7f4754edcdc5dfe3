"""Run one workload and turn what happened into the metric tables.

``measure`` is the untraced run behind the end-to-end metrics;
``measure_layers`` runs the quarter-length untraced/traced pair behind
the per-layer metrics.  Both return a :class:`Report`.
"""

from __future__ import annotations

import cProfile
import gc
import statistics
import traceback
from typing import Dict, List, Optional, Tuple

from e2e_harness import (
    SliceMeter,
    Timed,
    Watchdog,
    WatchdogAbort,
    peak_rss_mb,
    quantile,
    spread,
)
from e2e_layers import FLUSH_TYPES, LAYERS, Diagnostics, LayerTracer, p50, ratio
from e2e_workloads import WORKLOADS, SliceOutcome, Workload

#: name -> (unit, better).  ``setup_s`` is required by the driver contract.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "cpu_us_per_op": ("us", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "wire_msgs_per_op": ("count", "lower"),
    "wire_bytes_per_op": ("B", "lower"),
    "latency_p50_us": ("us", "lower"),
    "latency_tail_us": ("us", "lower"),
    "goodput_per_sim_s": ("1/s", "higher"),
}

#: Test beds per full run, built one after the other from the seeds
#: ``seed * BEDS + k``, each measured for a fifth of the slices;
#: ``setup_s`` is the median of the five set-ups.  Five beds average out
#: what a single seed's chaos decides (README "Beds").
BEDS = 5

#: Layer extras beyond ``self_us_per_op`` / ``calls_per_op``: name -> (unit, better).
LAYER_EXTRAS: Dict[str, Tuple[str, str]] = {
    "sim.engine.events_per_op": ("count", "lower"),
    "sim.network.msgs_per_op.vsync": ("count", "lower"),
    "sim.network.msgs_per_op.core": ("count", "lower"),
    "sim.network.msgs_per_op.naming": ("count", "lower"),
    "sim.network.msgs_per_op.transport": ("count", "lower"),
    "sim.network.bytes_per_op.vsync": ("B", "lower"),
    "sim.network.bytes_per_op.core": ("B", "lower"),
    "sim.network.bytes_per_op.naming": ("B", "lower"),
    "sim.network.bytes_per_op.transport": ("B", "lower"),
    "sim.network.fanout_memo_hit_ratio": ("ratio", "higher"),
    "sim.network.transit_us_p50": ("us", "lower"),
    "sim.transport.segments_per_op": ("count", "lower"),
    "sim.transport.retransmit_ratio": ("ratio", "lower"),
    "sim.transport.gave_up": ("count", "lower"),
    "vsync.failure_detector.heartbeats_per_sim_s": ("1/s", "lower"),
    "vsync.failure_detector.detect_us_p50": ("us", "lower"),
    "vsync.failure_detector.false_suspicions": ("count", "lower"),
    "vsync.failure_detector.unsuspect_us_p50": ("us", "lower"),
    "vsync.failure_detector.failover_us_p50": ("us", "lower"),
    "vsync.total_order.order_wait_us_p50": ("us", "lower"),
    "vsync.total_order.standalone_ack_ratio": ("ratio", "lower"),
    "vsync.total_order.nacks_per_op": ("count", "lower"),
    "vsync.membership.view_changes_per_op": ("count", "lower"),
    "vsync.membership.flush_msgs_per_op": ("count", "lower"),
    "vsync.membership.hwg_merged_us_p50": ("us", "lower"),
    "core.batching.entries_per_batch": ("count", "higher"),
    "core.batching.singleton_flush_ratio": ("ratio", "lower"),
    "core.batching.wait_us_p50": ("us", "lower"),
    "core.service.data_filtered_ratio": ("ratio", "lower"),
    "core.service.lwg_views_per_op": ("count", "lower"),
    "core.merge.merge_rounds_per_op": ("count", "lower"),
    "core.merge.callbacks_per_op": ("count", "lower"),
    "core.merge.first_callback_us_p50": ("us", "lower"),
    "core.merge.heal_p90_us": ("us", "lower"),
    "core.switching.switches_per_op": ("count", "lower"),
    "core.switching.switch_abort_ratio": ("ratio", "lower"),
    "core.policies.evals_per_sim_s": ("1/s", "lower"),
    "core.policies.self_us_per_eval": ("us", "lower"),
    "core.join_leave.join_retries_per_op": ("count", "lower"),
    "core.join_leave.join_p90_us": ("us", "lower"),
    "core.join_leave.recover_rejoin_us_p50": ("us", "lower"),
    "naming.client.requests_per_op": ("count", "lower"),
    "naming.server.syncs_per_op": ("count", "lower"),
    "naming.server.sync_short_circuit_ratio": ("ratio", "higher"),
    "naming.server.records_sent_per_op": ("count", "lower"),
    "naming.server.converged_us_p50": ("us", "lower"),
    "naming.reconciliation.rounds_per_sync": ("count", "lower"),
    "naming.persistence.journal_appends_per_op": ("count", "lower"),
    "naming.persistence.snapshots_per_op": ("count", "lower"),
    "harness.trace_overhead_ratio": ("ratio", "lower"),
    "harness.py_calls_per_op": ("count", "lower"),
    "harness.cpu_raw_us_per_op": ("us", "lower"),
    "harness.yardstick_ms": ("ms", "lower"),
    "harness.slice_spread": ("ratio", "lower"),
}


def per_layer_catalogue() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric name with its unit and direction, in print order."""
    catalogue: Dict[str, Tuple[str, str]] = {}
    for layer in LAYERS:
        catalogue[f"{layer}.self_us_per_op"] = ("us", "lower")
        catalogue[f"{layer}.calls_per_op"] = ("count", "lower")
        for name, meta in LAYER_EXTRAS.items():
            if name.startswith(layer + ".") and name not in catalogue:
                catalogue[name] = meta
    return catalogue


class Phase:
    """One pass over a workload: per bed a set-up, measured slices, checks."""

    def __init__(self, workload_cls: type, slices: int):
        self.cls = workload_cls
        self.planned = slices
        self.setups: List[Timed] = []
        self.timings: List[Timed] = []
        self.outcomes: List[SliceOutcome] = []
        self.workload: Optional[Workload] = None
        self.errors: List[str] = []
        self.yardsticks: List[float] = []
        self.py_calls_per_op = 0.0
        self.rss_mb = 0.0
        self.sim_us = 0
        self.counters: Optional[Dict[str, float]] = None

    # -- derived ---------------------------------------------------------------
    @property
    def ops(self) -> int:
        return sum(outcome.ops for outcome in self.outcomes)

    @property
    def failed(self) -> int:
        done = sum(outcome.failed for outcome in self.outcomes)
        aborted = (self.planned - len(self.outcomes)) * self.cls.ops_per_slice
        return done + aborted + self.workload.undelivered

    @property
    def attempted(self) -> int:
        return max(1, self.ops + self.failed)

    def per_op(self, values: List[float]) -> float:
        """Median over slices of a per-slice quantity divided by its ops."""
        shares = [value / outcome.ops for value, outcome in zip(values, self.outcomes) if outcome.ops]
        return statistics.median(shares) if shares else 0.0

    def cpu_us_per_op(self, raw: bool = False) -> float:
        costs = [timing.raw_s if raw else timing.norm_s for timing in self.timings]
        return self.per_op(costs) * 1e6

    def goodput(self) -> float:
        return self.workload.goodput(self.outcomes)

    def signature(self) -> List[Tuple[int, int, int, int, int]]:
        """Per-slice counts: equal for two runs of one (seed, beds, slices)."""
        return [(o.ops, o.failed, o.active_us, o.messages, o.bytes) for o in self.outcomes]

    def exact(self) -> Dict[str, float]:
        """Columns that must repeat bit-for-bit for one (seed, beds, slices)."""
        workload = self.workload
        return {
            "ops": self.ops,
            "failed": self.failed,
            "wire_msgs": sum(outcome.messages for outcome in self.outcomes),
            "wire_bytes": sum(outcome.bytes for outcome in self.outcomes),
            "latency_samples": workload.latencies.total,
            "latency_sum_us": workload.latencies.sum(),
            "latency_p50_us": workload.latency_p50(),
            "latency_tail_us": workload.latency_tail(),
            "goodput_per_sim_s": self.goodput(),
            "sim_end_us": self.sim_us,
        }


def run_phase(
    workload_cls: type,
    seed: int,
    slices: int,
    beds: int = 1,
    tracer: Optional[LayerTracer] = None,
    diag: Optional[Diagnostics] = None,
    checkers: bool = False,
    profile_extra_slice: bool = False,
    record_spans: bool = False,
) -> Phase:
    """On each of ``beds`` beds: set up, measure ``slices`` slices, verify.

    Tracing, diagnostics and the profiled extra slice are for one bed.
    """
    phase = Phase(workload_cls, beds * slices)
    phase.workload = workload = workload_cls(checkers)
    meter = SliceMeter()
    watchdog = Watchdog()

    def build(bed_seed: int):
        def work() -> None:
            workload.bed = None
            gc.collect()
            workload.set_up(bed_seed)
        return work

    def slice_work(index: int):
        def work() -> None:
            net = workload.bed.net
            messages, size = net.messages_sent, net.bytes_sent
            if tracer is not None:
                tracer.resume(record_spans and index == 0)
            try:
                outcome = workload.run_slice(index)
            finally:
                if tracer is not None:
                    tracer.pause()
            outcome.messages = net.messages_sent - messages
            outcome.bytes = net.bytes_sent - size
            phase.outcomes.append(outcome)
        return work

    try:
        with watchdog:
            for bed in range(beds):
                phase.setups.append(meter.measure(build(seed * beds + bed)))
                gc.collect()
                if diag is not None:
                    diag.attach(workload.bed)
                    diag.begin()
                for index in range(bed * slices, (bed + 1) * slices):
                    phase.timings.append(meter.measure(slice_work(index)))
                    workload.fold()
                if diag is not None:
                    phase.counters = diag.end()
                if profile_extra_slice:
                    profiler = cProfile.Profile(builtins=False, subcalls=False)
                    profiler.enable()
                    try:
                        extra = workload.run_slice(slices)
                    finally:
                        profiler.disable()
                    calls = sum(entry.callcount for entry in profiler.getstats())
                    phase.py_calls_per_op = calls / max(1, extra.ops)
                phase.errors.extend(workload.finish())
                if checkers:
                    workload.bed.cluster.check_invariants()
                phase.sim_us += workload.bed.sim.now
    except WatchdogAbort as abort:
        phase.errors.append(f"watchdog: {abort}")
    except Exception as error:  # noqa: BLE001 - the table must still print
        # A protocol assertion, a checker violation or a set-up that never
        # converges is an incorrect run with its remaining ops failed.
        traceback.print_exc()
        phase.errors.append(f"{type(error).__name__}: {error}")
    phase.yardsticks = meter.yardsticks
    phase.rss_mb = peak_rss_mb()
    return phase


class Report:
    """What one invocation measured for one workload."""

    def __init__(self, workload: str, seed: int, slices: int):
        self.workload = workload
        self.op = WORKLOADS[workload].op
        self.seed = seed
        self.slices = slices
        self.attempted = 1
        self.failed = 0
        self.errors: List[str] = []
        #: name -> (value, unit)
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.exact: Dict[str, float] = {}
        self.notes: List[str] = []

    @property
    def correct(self) -> bool:
        return not self.errors

    def absorb(self, phase: Phase) -> None:
        self.attempted = phase.attempted
        self.failed = phase.failed
        self.errors.extend(phase.errors)
        if phase.outcomes:
            self.exact = phase.exact()


def measure(
    workload: str, seed: int, seconds: float, smoke: bool = False, checkers: bool = False
) -> Report:
    """The untraced run: every end-to-end metric of one workload."""
    cls = WORKLOADS[workload]
    beds = 1 if smoke else BEDS
    slices = 2 if smoke else cls.slices_per_bed(seconds, BEDS)
    phase = run_phase(cls, seed, slices, beds, checkers=checkers)
    report = Report(workload, seed, beds * slices)
    report.absorb(phase)
    if not phase.outcomes:
        return report
    setup_s = statistics.median(timing.norm_s for timing in phase.setups)
    values = {
        "setup_s": setup_s,
        "cpu_us_per_op": phase.cpu_us_per_op(),
        "peak_rss_mb": phase.rss_mb,
        "wire_msgs_per_op": sum(o.messages for o in phase.outcomes) / max(1, phase.ops),
        "wire_bytes_per_op": sum(o.bytes for o in phase.outcomes) / max(1, phase.ops),
        "latency_p50_us": phase.workload.latency_p50(),
        "latency_tail_us": phase.workload.latency_tail(),
        "goodput_per_sim_s": phase.goodput(),
    }
    for name, (unit, _) in END_TO_END.items():
        report.metrics[name] = (values[name], unit)
    report.notes.append(
        f"beds={beds} slices={beds * slices} ops={phase.ops} cpu_raw_us_per_op={phase.cpu_us_per_op(raw=True):.3f} "
        f"yardstick_ms={statistics.median(phase.yardsticks) * 1e3:.1f} "
        f"slice_spread={spread([t.norm_s for t in phase.timings]):.3f} "
        f"latency_samples={phase.workload.latencies.total}"
    )
    return report


def measure_layers(
    workload: str, seed: int, seconds: float, smoke: bool = False,
    spans_out: Optional[str] = None,
) -> Report:
    """Quarter-length untraced + traced pair on one bed: every per-layer metric."""
    cls = WORKLOADS[workload]
    slices = 2 if smoke else max(2, BEDS * cls.slices_per_bed(seconds, BEDS) // 4)
    plain = run_phase(cls, seed, slices, profile_extra_slice=True)
    tracer = LayerTracer()
    diag = Diagnostics()
    tracer.install(diag)
    try:
        traced = run_phase(
            cls, seed, slices, tracer=tracer, diag=diag, record_spans=spans_out is not None
        )
    finally:
        tracer.uninstall()
    report = Report(workload, seed, slices)
    report.absorb(traced)
    report.errors.extend(error for error in plain.errors if error not in report.errors)
    if tracer.skipped:
        report.notes.append("entry points not found (skipped): " + ", ".join(tracer.skipped))
    if not (plain.outcomes and traced.outcomes and traced.counters is not None):
        return report
    if plain.signature() != traced.signature():
        report.errors.append("tracing changed the run: exact columns differ from the untraced run")
    if spans_out is not None:
        report.notes.append(f"{tracer.dump_spans(spans_out)} spans written to {spans_out}")
    values = _layer_values(plain, traced, tracer, diag)
    catalogue = per_layer_catalogue()
    unlisted = set(values) - set(catalogue)
    if unlisted:
        raise KeyError(f"per-layer values missing from the catalogue: {sorted(unlisted)}")
    for name, (unit, _) in catalogue.items():
        report.metrics[name] = (values.get(name, 0.0), unit)
    calls = tracer.layer_calls()
    report.exact.update(
        {f"{layer}.calls": calls[index] for index, layer in enumerate(LAYERS)}
    )
    return report


def _layer_values(
    plain: Phase, traced: Phase, tracer: LayerTracer, diag: Diagnostics
) -> Dict[str, float]:
    ops = max(1, traced.ops)
    sim_s = max(1e-9, traced.counters["sim_us"] / 1e6)
    cpu = plain.cpu_us_per_op()
    self_ns = tracer.corrected_self_ns()
    whole = sum(self_ns) or 1.0
    calls = tracer.layer_calls()
    values: Dict[str, float] = {}
    for index, layer in enumerate(LAYERS):
        values[f"{layer}.self_us_per_op"] = cpu * self_ns[index] / whole
        values[f"{layer}.calls_per_op"] = calls[index] / ops
    c = traced.counters
    types = diag.types
    workload = traced.workload

    def wire_count(*names: str) -> int:
        return sum(count for name, count in types.items() if name.split(":")[0] in names)

    scheduled = tracer.calls_of("Simulation.schedule", "Simulation.schedule_at")
    values["sim.engine.events_per_op"] = (scheduled - diag.cancelled - c["pending"]) / ops
    for package, (messages, size) in diag.wire.items():
        values[f"sim.network.msgs_per_op.{package}"] = messages / ops
        values[f"sim.network.bytes_per_op.{package}"] = size / ops
    values["sim.network.fanout_memo_hit_ratio"] = ratio(
        c["memo_hits"], c["memo_hits"] + c["memo_misses"]
    )
    values["sim.network.transit_us_p50"] = diag.transit.quantile(0.5)
    values["sim.transport.segments_per_op"] = diag.segments / ops
    acks = types.get("ack", 0)
    values["sim.transport.retransmit_ratio"] = ratio(c["retransmissions"], diag.segments - acks)
    values["sim.transport.gave_up"] = c["gave_up"]
    values["vsync.failure_detector.heartbeats_per_sim_s"] = c["heartbeats"] / sim_s
    values["vsync.failure_detector.detect_us_p50"] = p50(diag.detect)
    values["vsync.failure_detector.false_suspicions"] = diag.false_suspicions
    values["vsync.failure_detector.unsuspect_us_p50"] = p50(diag.unsuspect)
    values["vsync.failure_detector.failover_us_p50"] = p50(workload.extras.get("failover", ()))
    values["vsync.total_order.order_wait_us_p50"] = diag.order_wait.quantile(0.5)
    standalone = wire_count("StabilityAck")
    values["vsync.total_order.standalone_ack_ratio"] = ratio(
        standalone, standalone + wire_count("Publish")
    )
    values["vsync.total_order.nacks_per_op"] = wire_count("Nack") / ops
    values["vsync.membership.view_changes_per_op"] = tracer.calls_of("_HwgAdapter.on_view") / ops
    values["vsync.membership.flush_msgs_per_op"] = wire_count(*FLUSH_TYPES) / ops
    values["vsync.membership.hwg_merged_us_p50"] = p50(diag.hwg_merged)
    flushes = c["batches"] + c["singletons"]
    values["core.batching.entries_per_batch"] = ratio(
        c["batched_entries"] + c["singletons"], flushes
    )
    values["core.batching.singleton_flush_ratio"] = ratio(c["singletons"], flushes)
    values["core.batching.wait_us_p50"] = diag.batch_wait.quantile(0.5)
    values["core.service.data_filtered_ratio"] = ratio(
        c["data_filtered"], c["data_filtered"] + c["data_delivered"] + c["data_stale"]
    )
    values["core.service.lwg_views_per_op"] = c["lwg_views"] / ops
    values["core.merge.merge_rounds_per_op"] = types.get("Ordered:MergeViewsMsg", 0) / ops
    values["core.merge.callbacks_per_op"] = c["callbacks"] / ops
    values["core.merge.first_callback_us_p50"] = p50(diag.first_callback)
    if workload.name == "heal":
        values["core.merge.heal_p90_us"] = workload.latencies.quantile(0.90)
    values["core.switching.switches_per_op"] = c["switches_started"] / ops
    values["core.switching.switch_abort_ratio"] = ratio(
        c["switches_aborted"], c["switches_started"]
    )
    evals = tracer.calls_of("LwgService.run_policies_once")
    values["core.policies.evals_per_sim_s"] = evals / sim_s
    values["core.policies.self_us_per_eval"] = ratio(
        values["core.policies.self_us_per_op"] * ops, evals
    )
    values["core.join_leave.join_retries_per_op"] = tracer.calls_of(
        "JoinDriver._stalled", "JoinDriver._claim_or_retry"
    ) / ops
    values["core.join_leave.join_p90_us"] = quantile(sorted(workload.extras.get("join", ())), 0.90)
    values["core.join_leave.recover_rejoin_us_p50"] = p50(workload.extras.get("recover_rejoin", ()))
    values["naming.client.requests_per_op"] = c["client_requests"] / ops
    values["naming.server.syncs_per_op"] = c["syncs"] / ops
    values["naming.server.sync_short_circuit_ratio"] = ratio(c["syncs_short"], c["syncs"])
    values["naming.server.records_sent_per_op"] = diag.records_sent / ops
    values["naming.server.converged_us_p50"] = p50(diag.naming_converged)
    values["naming.reconciliation.rounds_per_sync"] = ratio(
        tracer.calls_of("MerkleSession.handle"), c["syncs"] - c["syncs_short"]
    )
    values["naming.persistence.journal_appends_per_op"] = c["journal"] / ops
    values["naming.persistence.snapshots_per_op"] = c["snapshots"] / ops
    values["harness.trace_overhead_ratio"] = ratio(traced.cpu_us_per_op(), cpu)
    values["harness.py_calls_per_op"] = plain.py_calls_per_op
    values["harness.cpu_raw_us_per_op"] = plain.cpu_us_per_op(raw=True)
    values["harness.yardstick_ms"] = statistics.median(plain.yardsticks) * 1e3
    values["harness.slice_spread"] = spread([t.norm_s for t in plain.timings])
    return values
