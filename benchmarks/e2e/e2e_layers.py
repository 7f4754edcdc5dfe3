"""Per-layer tracing for the e2e benchmark, applied from the outside.

Nothing under ``src/`` knows about this file.  :class:`LayerTracer`
monkey-patches a timing wrapper around each layer's entry points (the
``POINTS`` table) *before* the cluster is built, so bound methods the
program stores at construction time are the wrapped ones.  A wrapper
charges elapsed time to the layer that is current, makes its own layer
current for the duration of the call, and restores the caller's on the
way out — so every nanosecond of a traced slice lands in exactly one
layer's *self time* and the column sums to the whole.  Work done outside
any wrapped call (the benchmark's scripts, listeners and predicates) is
the ``harness`` layer; closures the engine runs directly (timer guards,
retransmit timers) stay with ``sim.engine``.

:class:`Diagnostics` reads the program's public counters before and
after the traced phase and keeps the few sim-time samples (fabric
transit, ordering wait, batch wait, detection time, ...) that need a
timestamp at a layer boundary.

Entry points that a later change renames are skipped, not fatal: the
benchmark must keep running on commits that refactor the program.
"""

from __future__ import annotations

import importlib
import json
import time
from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Tuple

from e2e_harness import Histogram, quantile

LAYERS: Tuple[str, ...] = (
    "sim.engine",
    "sim.network",
    "sim.transport",
    "vsync.failure_detector",
    "vsync.total_order",
    "vsync.membership",
    "vsync.hwg",
    "core.batching",
    "core.service",
    "core.merge",
    "core.switching",
    "core.policies",
    "core.join_leave",
    "naming.client",
    "naming.server",
    "naming.reconciliation",
    "naming.persistence",
    "harness",
)
HARNESS = LAYERS.index("harness")

#: (layer, module, class, methods).  Public entry points first; the
#: underscore names are message handlers and persistence hooks the
#: program registers as bound methods, which are layer boundaries too.
POINTS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("sim.engine", "repro.sim.engine", "Simulation", ("schedule", "schedule_at", "run_until")),
    ("sim.engine", "repro.sim.engine", "EventHandle", ("cancel",)),
    ("sim.network", "repro.sim.network", "Network", ("send", "multicast")),
    ("sim.network", "repro.sim.network", "_Delivery", ("__call__",)),
    ("sim.transport", "repro.sim.transport", "ReliableTransport",
     ("send", "on_segment", "stop", "restart")),
    ("vsync.failure_detector", "repro.vsync.failure_detector", "FailureDetector",
     ("tick_heartbeat", "tick_check", "on_heartbeat", "monitor", "unmonitor", "reset")),
    ("vsync.total_order", "repro.vsync.total_order", "OrderedChannel",
     ("send", "on_publish", "on_ordered", "on_nack", "tick_stability", "on_stability_ack",
      "on_stability_announce", "install_view", "apply_fill", "freeze", "thaw")),
    ("vsync.membership", "repro.vsync.membership", "ViewChangeManager",
     ("on_join_request", "on_leave_request", "on_suspicion_change", "on_presence",
      "request_refresh", "maybe_start", "on_branch_flushed", "on_merge_decline",
      "on_merge_request", "round_completed", "observed_round", "reset")),
    ("vsync.membership", "repro.vsync.flush", "FlushParticipant",
     ("on_stop", "on_fill", "stop_acknowledged", "reset")),
    ("vsync.membership", "repro.vsync.flush", "BranchFlushLeader",
     ("start", "abort", "on_flush_state", "on_flush_done")),
    ("vsync.hwg", "repro.vsync.stack", "ProtocolStack",
     ("on_message", "reliable_send", "on_crash", "on_recover")),
    ("vsync.hwg", "repro.vsync.hwg", "HwgEndpoint",
     ("join", "leave", "send", "on_message", "beacon", "apply_install", "secede",
      "force_refresh", "on_suspicion_change")),
    ("core.batching", "repro.core.batching", "BatchPacker",
     ("enqueue", "flush", "flush_all", "reset")),
    ("core.service", "repro.core.service", "LwgService",
     ("join", "leave", "send", "hwg_send", "install_local_view", "register_mapping",
      "_tick_announcements", "_tick_mapping_audit")),
    ("core.service", "repro.core.service", "_HwgAdapter",
     ("on_view", "on_data", "on_stop", "on_left")),
    ("core.merge", "repro.core.merge", "MergeManager",
     ("trigger", "on_merge_views", "on_all_views", "on_hwg_view", "observe_view")),
    ("core.merge", "repro.core.merge", "ReconciliationHandler", ("on_multiple_mappings",)),
    ("core.switching", "repro.core.service", "LwgService",
     ("start_switch", "_on_switch_start", "_on_switch_ready", "_on_switch_commit",
      "_on_switch_abort")),
    ("core.switching", "repro.core.switching", "SwitchDriver",
     ("start", "abort", "on_ready", "on_lwg_view_changed")),
    ("core.policies", "repro.core.service", "LwgService",
     ("run_policies_once", "build_policy_snapshot")),
    ("core.policies", "repro.core.policies", "PolicyEngine", ("evaluate",)),
    ("core.join_leave", "repro.core.join_leave", "JoinDriver",
     ("start", "cancel", "on_hwg_ready", "on_redirect", "complete", "_on_ns_records",
      "_on_testset_reply", "_stalled", "_claim_or_retry")),
    ("core.join_leave", "repro.core.service", "LwgService",
     ("_on_lwg_join_req", "_on_lwg_leave_req", "_finish_lwg_leave")),
    ("naming.client", "repro.naming.client", "NamingClient",
     ("set", "read", "testset", "unset", "cancel_all", "_handle_message")),
    ("naming.server", "repro.naming.server", "NameServer",
     ("on_message", "gossip_tick", "_notifier_tick")),
    ("naming.reconciliation", "repro.naming.reconciliation", "MerkleSession",
     ("opener", "handle")),
    ("naming.persistence", "repro.naming.persistence", "DurableStore",
     ("write_snapshot", "persist_view_seq", "record_view", "bump_incarnation", "save_meta",
      "_on_applied", "_on_edges")),
    # The benchmark's own listeners: their cost is the harness's, not the service's.
    ("harness", "e2e_workloads", "Probe", ("on_view", "on_data")),
)

#: Wire messages that belong to a view change (flush, install, merge).
FLUSH_TYPES = frozenset({
    "Stop", "FlushState", "FlushFill", "FlushDone", "InstallView", "MergeRequest",
    "MergeDecline", "BranchFlushed", "JoinRequest", "LeaveRequest",
})
_PACKAGES = ("vsync", "core", "naming", "transport")

#: Spans kept for ``--spans-out`` (the first traced slice, at most).
SPAN_CAP = 300_000
_ID_MAP_CAP = 262_144


def _bound(mapping: dict) -> None:
    """Keep an id-keyed timestamp map from growing without limit."""
    if len(mapping) > _ID_MAP_CAP:
        for key in list(islice(mapping, _ID_MAP_CAP // 2)):
            del mapping[key]


class LayerTracer:
    """Installs, drives and reads the per-layer timing wrappers."""

    def __init__(self) -> None:
        self.on = False
        self.cur = HARNESS
        self.mark = 0
        self.self_ns = [0] * len(LAYERS)
        #: Wrapped calls issued while the layer was current (for the
        #: overhead correction: the caller pays the call into a wrapper).
        self.child_calls = [0] * len(LAYERS)
        self.point_calls: List[int] = []
        self.point_layer: List[int] = []
        self.point_name: List[str] = []
        self.rec: Optional[list] = None
        self.spans: list = []
        self.next_span = 1
        self.cur_span = 0
        self.skipped: List[str] = []
        self._patched: List[Tuple[type, str, Any]] = []

    # -- wrapper factory -----------------------------------------------------
    def _point(self, layer: int, name: str) -> int:
        self.point_calls.append(0)
        self.point_layer.append(layer)
        self.point_name.append(name)
        return len(self.point_calls) - 1

    def wrap(self, fn: Callable, layer: int, name: str,
             pre: Optional[Callable] = None, post: Optional[Callable] = None) -> Callable:
        """``fn`` behind a span of ``layer``; ``pre``/``post`` see the call."""
        tr = self
        pi = self._point(layer, name)
        self_ns = self.self_ns
        child_calls = self.child_calls
        point_calls = self.point_calls
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            parent = tr.cur
            now = clock()
            self_ns[parent] += now - tr.mark
            child_calls[parent] += 1
            point_calls[pi] += 1
            rec = tr.rec
            if rec is not None:
                span = tr.next_span
                tr.next_span = span + 1
                parent_span = tr.cur_span
                tr.cur_span = span
                began = now
            if pre is not None:
                # A hook's own time is charged to no layer.
                pre(args, kwargs)
                now = clock()
            tr.cur = layer
            tr.mark = now
            try:
                result = fn(*args, **kwargs)
            finally:
                now = clock()
                self_ns[layer] += now - tr.mark
                tr.cur = parent
                tr.mark = now
                if rec is not None:
                    tr.cur_span = parent_span
                    if len(rec) < SPAN_CAP:
                        rec.append((span, parent_span, pi, began, now))
            if post is not None:
                post(args, result)
                tr.mark = clock()
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- install / uninstall -------------------------------------------------
    def install(self, diag: "Diagnostics") -> None:
        """Patch every entry point of ``POINTS``; undo with :meth:`uninstall`."""
        hooks = diag.hooks()
        for layer_name, module_name, class_name, methods in POINTS:
            layer = LAYERS.index(layer_name)
            try:
                owner = getattr(importlib.import_module(module_name), class_name)
            except (ImportError, AttributeError):
                self.skipped.append(f"{module_name}.{class_name}")
                continue
            for method in methods:
                original = owner.__dict__.get(method)
                if not callable(original):
                    self.skipped.append(f"{class_name}.{method}")
                    continue
                pre, post = hooks.get((class_name, method), (None, None))
                wrapped = self.wrap(original, layer, f"{class_name}.{method}", pre, post)
                self._patched.append((owner, method, original))
                setattr(owner, method, wrapped)

    def uninstall(self) -> None:
        for owner, method, original in reversed(self._patched):
            setattr(owner, method, original)
        self._patched.clear()

    # -- measuring -----------------------------------------------------------
    def resume(self, record_spans: bool = False) -> None:
        self.rec = self.spans if record_spans else None
        self.cur = HARNESS
        self.cur_span = 0
        self.mark = time.perf_counter_ns()
        self.on = True

    def pause(self) -> None:
        now = time.perf_counter_ns()
        self.self_ns[self.cur] += now - self.mark
        self.on = False
        self.rec = None

    def layer_calls(self) -> List[int]:
        calls = [0] * len(LAYERS)
        for pi, count in enumerate(self.point_calls):
            calls[self.point_layer[pi]] += count
        return calls

    def calls_of(self, *names: str) -> int:
        return sum(
            count for pi, count in enumerate(self.point_calls) if self.point_name[pi] in names
        )

    def corrected_self_ns(self) -> List[float]:
        """Self time per layer minus the wrappers' own calibrated cost."""
        inner, outer = _wrapper_overhead()
        calls = self.layer_calls()
        return [
            max(0.0, self.self_ns[i] - calls[i] * inner - self.child_calls[i] * outer)
            for i in range(len(LAYERS))
        ]

    def dump_spans(self, path: str) -> int:
        """Write the recorded spans as JSON Lines; spans of one engine
        event (one request's hop) share a ``root``."""
        roots: Dict[int, int] = {}
        parents = {span: parent for span, parent, _, _, _ in self.spans}
        for span in sorted(parents):
            parent = parents[span]
            roots[span] = roots.get(parent, parent) if parent else span
        with open(path, "w", encoding="utf-8") as out:
            for span, parent, pi, began, ended in sorted(self.spans):
                out.write(json.dumps({
                    "span": span, "parent": parent, "root": roots[span],
                    "layer": LAYERS[self.point_layer[pi]], "name": self.point_name[pi],
                    "start_ns": began, "end_ns": ended,
                }) + "\n")
        return len(self.spans)


def _wrapper_overhead(rounds: int = 200_000) -> Tuple[float, float]:
    """(ns charged to the callee, ns charged to the caller) per wrapped call,
    measured on a no-op so the correction tracks the box's current speed."""
    def noop() -> None:
        return None

    clock = time.perf_counter_ns
    began = clock()
    for _ in range(rounds):
        noop()
    bare = clock() - began
    scratch = LayerTracer()
    wrapped = scratch.wrap(noop, 0, "noop")
    scratch.resume()
    for _ in range(rounds):
        wrapped()
    scratch.pause()
    inner = scratch.self_ns[0] / rounds
    outer = max(0.0, (scratch.self_ns[HARNESS] - bare) / rounds)
    return inner, outer


class Diagnostics:
    """Counters and sim-time samples the per-layer table needs."""

    def __init__(self) -> None:
        self.sim = None
        self.net = None
        self.wire = {package: [0, 0] for package in _PACKAGES}
        self.types: Dict[str, int] = {}
        self.segments = 0
        self.cancelled = 0
        self.records_sent = 0
        self.transit = Histogram()
        self.order_wait = Histogram()
        self.batch_wait = Histogram()
        self.detect: List[int] = []
        self.unsuspect: List[int] = []
        self.false_suspicions = 0
        self.hwg_merged: List[int] = []
        self.first_callback: List[int] = []
        self.naming_converged: List[int] = []
        self._sent_at: Dict[int, int] = {}
        self._ordered_at: Dict[int, int] = {}
        self._enqueued_at: Dict[int, int] = {}
        self._class_cache: Dict[type, Tuple[str, str]] = {}
        self._hwg_installs: Dict[Any, int] = {}
        self._full_hwg = 0
        self._disrupted_at: Optional[int] = None
        self._restored_at: Optional[int] = None
        self._await_callback = False
        self._await_naming = False
        self._await_hwgs: set = set()
        self._servers: list = []
        self._base: Dict[str, float] = {}
        self._cluster = None
        self.live = False

    # -- wiring --------------------------------------------------------------
    def attach(self, bed) -> None:
        """Bind to a freshly built bed (before its measured phase)."""
        cluster = bed.cluster
        self._cluster = cluster
        self.sim = bed.sim
        self.net = bed.net
        self._servers = list(cluster.name_servers.values())
        self._full_hwg = len(bed.sets[0])
        bed.hub.diag = self
        for node, stack in cluster.stacks.items():
            stack.fd.subscribe(
                lambda peer, suspected, node=node: self._on_suspicion(node, peer, suspected)
            )

    def event(self, kind: str, now: int) -> None:
        """The workload reports a disruption it injected."""
        if kind in ("split", "crash"):
            self._disrupted_at = now
            self._restored_at = None
            return
        self._restored_at = now
        self._await_hwgs = set()
        self._hwg_installs.clear()
        if kind == "heal":
            self._await_callback = True
            self._await_naming = True

    def _on_suspicion(self, node: str, peer: str, suspected: bool) -> None:
        if not self.live:
            return
        now = self.sim.now
        if suspected:
            if self.net.reachable(node, peer):
                self.false_suspicions += 1
            elif self._disrupted_at is not None:
                self.detect.append(now - self._disrupted_at)
        elif self._restored_at is not None:
            self.unsuspect.append(now - self._restored_at)

    # -- hooks on wrapped entry points ------------------------------------------
    def hooks(self) -> Dict[Tuple[str, str], Tuple[Any, Any]]:
        """(class, method) -> (pre, post) callbacks for the timing wrappers."""
        return {
            ("Network", "send"): (self._pre_wire, None),
            ("Network", "multicast"): (self._pre_wire, None),
            ("_Delivery", "__call__"): (self._pre_delivery, None),
            ("EventHandle", "cancel"): (self._pre_cancel, None),
            ("HwgEndpoint", "send"): (self._pre_hwg_send, None),
            ("_HwgAdapter", "on_data"): (self._pre_hwg_data, None),
            ("_HwgAdapter", "on_view"): (self._pre_hwg_view, None),
            ("BatchPacker", "enqueue"): (self._pre_enqueue, None),
            ("MerkleSession", "handle"): (None, self._post_merkle),
            ("ReconciliationHandler", "on_multiple_mappings"): (self._pre_callback, None),
            ("NameServer", "on_message"): (None, self._post_server),
        }

    def _classify(self, payload: Any) -> Tuple[str, str]:
        cls = type(payload)
        name = cls.__name__
        if name == "_Segment":
            self.segments += 1
            if payload.kind == "ack":
                return "transport", "ack"
            return self._classify(payload.payload)
        if name in ("Publish", "Ordered"):
            inner = type(payload.payload)
            if inner.__module__.startswith("repro.core"):
                return "core", f"{name}:{inner.__name__}"
            return "vsync", name
        known = self._class_cache.get(cls)
        if known is None:
            parts = cls.__module__.split(".")
            package = parts[1] if len(parts) > 1 and parts[1] in _PACKAGES else "vsync"
            known = self._class_cache[cls] = (package, name)
        return known

    def _pre_wire(self, args, kwargs) -> None:
        payload = args[3]
        size = args[4] if len(args) > 4 else kwargs.get("size", 256)
        package, name = self._classify(payload)
        entry = self.wire[package]
        entry[0] += 1
        entry[1] += size
        self.types[name] = self.types.get(name, 0) + 1
        self._sent_at[id(payload)] = self.sim.now
        _bound(self._sent_at)

    def _pre_delivery(self, args, kwargs) -> None:
        sent = self._sent_at.get(id(args[0].payload))
        if sent is not None:
            self.transit.add(self.sim.now - sent)

    def _pre_cancel(self, args, kwargs) -> None:
        handle = args[0]
        if not handle.cancelled and not handle.fired:
            self.cancelled += 1

    def _pre_hwg_send(self, args, kwargs) -> None:
        payload = args[1]
        now = self.sim.now
        self._ordered_at[id(payload)] = now
        _bound(self._ordered_at)
        entries = getattr(payload, "entries", None)
        for entry in entries if entries is not None else (payload,):
            queued = self._enqueued_at.pop(id(entry), None)
            if queued is not None:
                self.batch_wait.add(now - queued)

    def _pre_hwg_data(self, args, kwargs) -> None:
        sent = self._ordered_at.get(id(args[3]))
        if sent is not None:
            self.order_wait.add(self.sim.now - sent)

    def _pre_hwg_view(self, args, kwargs) -> None:
        if self._restored_at is None or self._disrupted_at is None:
            return
        adapter, view = args[0], args[2]
        if len(view.members) != self._full_hwg or adapter.hwg in self._await_hwgs:
            return
        key = (adapter.hwg, view.view_id)
        seen = self._hwg_installs.get(key, 0) + 1
        self._hwg_installs[key] = seen
        if seen == len(view.members):
            self._await_hwgs.add(adapter.hwg)
            self.hwg_merged.append(self.sim.now - self._restored_at)

    def _pre_enqueue(self, args, kwargs) -> None:
        self._enqueued_at[id(args[2])] = self.sim.now

    def _post_merkle(self, args, result) -> None:
        if result is not None:
            self.records_sent += len(result.records)

    def _pre_callback(self, args, kwargs) -> None:
        if self._await_callback and self._restored_at is not None:
            self._await_callback = False
            self.first_callback.append(self.sim.now - self._restored_at)

    def _post_server(self, args, result) -> None:
        if self._await_naming and self._restored_at is not None:
            if len({server.db.content_hash() for server in self._servers}) == 1:
                self._await_naming = False
                self.naming_converged.append(self.sim.now - self._restored_at)

    # -- the program's own counters -----------------------------------------------
    def _read_counters(self) -> Dict[str, float]:
        cluster = self._cluster
        services = [s for s in cluster.services.values() if hasattr(s, "stats")]
        stats = [s.stats for s in services]
        packers = [s.packer for s in services]
        servers = self._servers
        stores = list(cluster.stores.values())
        transports = [stack.transport for stack in cluster.stacks.values()]

        def total(objects, attr) -> float:
            return float(sum(getattr(obj, attr, 0) for obj in objects))

        return {
            "memo_hits": float(self.net.fanout_memo_hits),
            "memo_misses": float(self.net.fanout_memo_misses),
            "pending": float(self.sim.pending_events),
            "retransmissions": total(transports, "retransmissions"),
            "gave_up": total(transports, "gave_up"),
            "heartbeats": total([stack.fd for stack in cluster.stacks.values()], "heartbeats_sent"),
            "data_delivered": total(stats, "data_delivered"),
            "data_filtered": total(stats, "data_filtered"),
            "data_stale": total(stats, "data_stale"),
            "lwg_views": total(stats, "lwg_views_installed"),
            "switches_started": total(stats, "switches_started"),
            "switches_aborted": total(stats, "switches_aborted"),
            "batches": total(packers, "batches_sent"),
            "batched_entries": total(packers, "entries_batched"),
            "singletons": total(packers, "singleton_flushes"),
            "callbacks": total([s.reconciler for s in services], "callbacks_received"),
            "client_requests": total(list(cluster.clients.values()), "requests_sent"),
            "syncs": total(servers, "syncs_started"),
            "syncs_short": total(servers, "syncs_short_circuited"),
            "journal": total(stores, "entries_appended"),
            "snapshots": total(stores, "snapshots_written"),
            "sim_us": float(self.sim.now),
        }

    def begin(self) -> None:
        self._base = self._read_counters()
        self.live = True

    def end(self) -> Dict[str, float]:
        self.live = False
        now = self._read_counters()
        return {key: now[key] - self._base[key] for key in now}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def p50(samples) -> float:
    return quantile(sorted(samples), 0.50)
