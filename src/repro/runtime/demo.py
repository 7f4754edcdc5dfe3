"""Backend demo: one scripted scenario, two runtimes.

The scenario is the paper's core story in miniature: two application
processes join a light-weight group, exchange totally-ordered data,
get split by a network partition (each side carries on in its own
view), and merge back into one view when the partition heals.

``run_sim_demo`` runs it single-process on the deterministic simulator.
``run_asyncio_demo`` runs it between two *live OS processes* — each
child owns real UDP sockets and wall-clock timers, the partition is the
fabric's userspace drop-filter (no iptables), and the parent merges the
children's JSONL traces and replays them through the invariant
checkers.  Both are wired to ``python -m repro run --backend {sim,asyncio}``.

The children align on a shared ``CLOCK_MONOTONIC`` epoch, so the
scripted checkpoints below happen at the same wall instant in both
processes — in particular both install the same partition drop-filter
at (wall-clock) T_PARTITION and heal it at T_HEAL.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.service import LwgListener
from .interfaces import SECOND, NodeId, Runtime
from .trace import TraceRecord, Tracer

#: Scripted wall/virtual-time checkpoints, microseconds from epoch.
T_JOIN = int(0.5 * SECOND)
T_JOINED = 6 * SECOND        # both members visible; pre-partition sends
T_PARTITION = 8 * SECOND
T_SPLIT = 14 * SECOND        # each side settled in its own view
T_HEAL = 16 * SECOND
T_MERGED = 28 * SECOND       # one view again; post-heal sends
T_END = 30 * SECOND

GROUP = "chat"
BLOCKS: List[List[NodeId]] = [["ns0", "p0"], ["p1"]]
ALL_NODES: List[NodeId] = ["ns0", "p0", "p1"]


class RecordingListener(LwgListener):
    """LWG listener collecting views and delivered payloads."""

    def __init__(self) -> None:
        self.views: List[Any] = []
        self.data: List[Tuple[str, Any]] = []

    def on_view(self, lwg: str, view: Any) -> None:
        self.views.append(view)

    def on_data(self, lwg: str, src: str, payload: Any, size: int) -> None:
        self.data.append((src, payload))

    def on_left(self, lwg: str) -> None:
        pass

    def get_state(self, lwg: str) -> Any:
        return None

    def on_state(self, lwg: str, state: Any) -> None:
        pass

    def payloads_from(self, peer: str) -> List[Any]:
        return [payload for src, payload in self.data if src == peer]


def wait_until(
    env: Runtime,
    predicate: Callable[[], bool],
    deadline_us: int,
    step_us: int = 50_000,
) -> bool:
    """Drive ``env`` in small steps until ``predicate`` or the deadline."""
    while env.now < deadline_us:
        if predicate():
            return True
        env.run_for(min(step_us, deadline_us - env.now))
    return predicate()


def advance_to(env: Runtime, time_us: int) -> None:
    """Drive ``env`` up to the absolute checkpoint ``time_us``."""
    if time_us > env.now:
        env.run_for(time_us - env.now)


def _members(handle: Any) -> Tuple[str, ...]:
    view = handle.view
    return tuple(sorted(view.members)) if view is not None else ()


class ScenarioFailure(RuntimeError):
    """A scripted checkpoint was not reached in time."""


def _run_process_script(
    env: Runtime,
    node: NodeId,
    service: Any,
    peer: NodeId,
    say: Callable[[str], None],
) -> None:
    """The per-application-process half of the scripted scenario.

    Runs identically on both backends and, for the asyncio backend, in
    whichever OS process hosts ``node``.  Raises :class:`ScenarioFailure`
    on a missed checkpoint.
    """
    listener = RecordingListener()
    advance_to(env, T_JOIN)
    handle = service.join(GROUP, listener)
    say(f"{node}: joining {GROUP!r}")

    both = tuple(sorted((node, peer)))
    if not wait_until(env, lambda: _members(handle) == both, T_JOINED):
        raise ScenarioFailure(
            f"{node}: no common view by T_JOINED, members={_members(handle)}"
        )
    say(f"{node}: joined, view members {_members(handle)}")
    handle.send(f"hello from {node}")

    advance_to(env, T_PARTITION)
    env.fabric.set_partitions(BLOCKS)
    say(f"{node}: partition installed {BLOCKS}")

    if not wait_until(env, lambda: _members(handle) == (node,), T_SPLIT):
        raise ScenarioFailure(
            f"{node}: not a singleton view by T_SPLIT, members={_members(handle)}"
        )
    say(f"{node}: carrying on in own partition view")
    handle.send(f"{node} during partition")

    advance_to(env, T_HEAL)
    env.fabric.heal()
    say(f"{node}: partition healed")

    if not wait_until(env, lambda: _members(handle) == both, T_MERGED):
        raise ScenarioFailure(
            f"{node}: views did not merge by T_MERGED, members={_members(handle)}"
        )
    say(f"{node}: merged, view members {_members(handle)}")
    handle.send(f"post-heal from {node}")

    advance_to(env, T_END)
    wanted = f"post-heal from {peer}"
    if wanted not in listener.payloads_from(peer):
        raise ScenarioFailure(
            f"{node}: never delivered {wanted!r}; got {listener.data}"
        )
    say(f"{node}: delivered post-heal data from {peer}")


# ----------------------------------------------------------------------
# Simulator backend
# ----------------------------------------------------------------------
def run_sim_demo(seed: int = 7, quiet: bool = False) -> int:
    """The scripted scenario on the deterministic simulator."""
    from ..workloads.cluster import Cluster

    say = (lambda text: None) if quiet else print
    cluster = Cluster(2, seed=seed, num_name_servers=1)
    # Interleave both processes' scripts step by step: drive them from
    # one timeline since a single simulation hosts every node.
    listeners = {node: RecordingListener() for node in ("p0", "p1")}
    advance_to(cluster.env, T_JOIN)
    handles = {
        node: cluster.service(node).join(GROUP, listeners[node])
        for node in ("p0", "p1")
    }
    say("sim: p0 and p1 joining 'chat'")
    ok = wait_until(
        cluster.env,
        lambda: all(_members(h) == ("p0", "p1") for h in handles.values()),
        T_JOINED,
    )
    if not ok:
        print("sim: join did not converge", file=sys.stderr)
        return 1
    say("sim: common view installed")
    for node, handle in handles.items():
        handle.send(f"hello from {node}")

    advance_to(cluster.env, T_PARTITION)
    cluster.env.fabric.set_partitions(BLOCKS)
    say(f"sim: partition {BLOCKS}")
    ok = wait_until(
        cluster.env,
        lambda: all(_members(h) == (n,) for n, h in handles.items()),
        T_SPLIT,
    )
    if not ok:
        print("sim: partition views did not settle", file=sys.stderr)
        return 1
    say("sim: each side in its own view")
    for node, handle in handles.items():
        handle.send(f"{node} during partition")

    advance_to(cluster.env, T_HEAL)
    cluster.env.fabric.heal()
    say("sim: healed")
    ok = wait_until(
        cluster.env,
        lambda: all(_members(h) == ("p0", "p1") for h in handles.values()),
        T_MERGED,
    )
    if not ok:
        print("sim: views did not merge after heal", file=sys.stderr)
        return 1
    say("sim: merged back into one view")
    for node, handle in handles.items():
        handle.send(f"post-heal from {node}")
    advance_to(cluster.env, T_END)

    for node, peer in (("p0", "p1"), ("p1", "p0")):
        if f"post-heal from {peer}" not in listeners[node].payloads_from(peer):
            print(f"sim: {node} missed post-heal data from {peer}", file=sys.stderr)
            return 1
    cluster.check_invariants()
    say("sim: post-heal data delivered both ways; invariants hold")
    return 0


# ----------------------------------------------------------------------
# Asyncio backend — child process
# ----------------------------------------------------------------------
def _child_main(
    role: str,
    epoch: float,
    addrs: Dict[NodeId, Tuple[str, int]],
    out_path: str,
    seed: int,
) -> int:
    """One OS process of the demo: child A hosts ns0+p0, child B hosts p1."""
    from ..core.baselines import make_dynamic_service
    from ..naming.client import NamingClient
    from ..naming.server import NameServer
    from ..vsync.stack import ProtocolStack
    from .asyncio_backend import AsyncioRuntime

    node = "p0" if role == "A" else "p1"
    peer = "p1" if role == "A" else "p0"

    # Start barrier: construct the runtime only once the shared epoch is
    # reached so both children's clocks start at (about) zero together.
    delay = epoch - time.monotonic()
    if delay > 0:
        time.sleep(delay)

    env = AsyncioRuntime.create(seed=seed, node_addrs=addrs, epoch=epoch)
    try:
        addressing = env.group_addressing()
        if role == "A":
            NameServer(env, "ns0", peers=["ns0"])
        stack = ProtocolStack(env, node, addressing)
        client = NamingClient(stack, ["ns0"])
        service = make_dynamic_service(stack, client)

        def say(text: str) -> None:
            print(f"[child {role}] {text}", flush=True)

        try:
            _run_process_script(env, node, service, peer, say)
            status = 0
        except ScenarioFailure as failure:
            print(f"[child {role}] FAILED: {failure}", file=sys.stderr, flush=True)
            status = 1
        env.tracer.to_jsonl(out_path)
        return status
    finally:
        env.close()


# ----------------------------------------------------------------------
# Asyncio backend — parent process
# ----------------------------------------------------------------------
def merge_traces(paths: Sequence[str]) -> List[TraceRecord]:
    """Merge per-process JSONL traces into one time-ordered record list.

    The sort is stable and keyed on (time, source index), so each
    process's own records keep their causal order; cross-process order
    follows the shared monotonic clock.
    """
    keyed: List[Tuple[int, int, int, TraceRecord]] = []
    for index, path in enumerate(paths):
        for position, record in enumerate(Tracer.from_jsonl(path).records):
            keyed.append((record.time, index, position, record))
    keyed.sort(key=lambda item: item[:3])
    return [record for _, _, _, record in keyed]


def replay_through_checkers(records: Sequence[TraceRecord]) -> List[str]:
    """Run merged records through the standard checker suite."""
    from ..checkers import CheckerSuite

    suite = CheckerSuite.standard(raise_immediately=False)
    for record in records:
        suite.on_record(record)
    return [str(violation) for violation in suite.violations]


def run_asyncio_demo(seed: int = 7, out_dir: Optional[str] = None) -> int:
    """The scripted scenario across two live OS processes over UDP."""
    from .asyncio_backend import free_udp_ports

    ports = free_udp_ports(len(ALL_NODES))
    addrs = {node: ("127.0.0.1", port) for node, port in zip(ALL_NODES, ports)}
    addr_spec = ",".join(f"{n}=127.0.0.1:{p}" for n, p in zip(ALL_NODES, ports))
    epoch = time.monotonic() + 1.5  # start barrier: cover child startup

    workdir = Path(out_dir) if out_dir else Path(tempfile.mkdtemp(prefix="repro-demo-"))
    workdir.mkdir(parents=True, exist_ok=True)
    traces = {role: workdir / f"trace-{role}.jsonl" for role in ("A", "B")}

    children = {
        role: subprocess.Popen(
            [
                sys.executable, "-m", "repro.runtime.demo",
                "--child", role,
                "--epoch", repr(epoch),
                "--addrs", addr_spec,
                "--seed", str(seed),
                "--out", str(traces[role]),
            ],
        )
        for role in ("A", "B")
    }
    print(f"parent: spawned children {', '.join(str(c.pid) for c in children.values())}")

    status = 0
    budget = T_END / SECOND + 20  # scripted length plus startup/teardown slack
    deadline = time.monotonic() + budget
    for role, child in children.items():
        try:
            code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print(f"parent: child {role} timed out", file=sys.stderr)
            status = 1
            continue
        if code != 0:
            print(f"parent: child {role} exited {code}", file=sys.stderr)
            status = 1

    existing = [str(path) for path in traces.values() if path.exists()]
    if len(existing) != len(traces):
        print("parent: missing child trace files", file=sys.stderr)
        return 1
    records = merge_traces(existing)
    violations = replay_through_checkers(records)
    views = [r for r in records if r.event == "lwg_view_installed"]
    print(
        f"parent: merged {len(records)} trace records "
        f"({len(views)} LWG view installs); traces in {workdir}"
    )
    for line in violations:
        print(f"parent: CHECKER VIOLATION: {line}", file=sys.stderr)
    if violations:
        status = 1
    print("parent: demo " + ("PASSED" if status == 0 else "FAILED"))
    return status


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def _parse_addrs(spec: str) -> Dict[NodeId, Tuple[str, int]]:
    addrs: Dict[NodeId, Tuple[str, int]] = {}
    for part in spec.split(","):
        node, _, hostport = part.partition("=")
        host, _, port = hostport.rpartition(":")
        addrs[node] = (host, int(port))
    return addrs


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.demo",
        description="partition/heal demo on the sim or asyncio backend",
    )
    parser.add_argument("--backend", choices=("sim", "asyncio"), default="sim")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out-dir", default=None, help="directory for JSONL traces")
    # Internal: children of the asyncio demo re-enter through this module.
    parser.add_argument("--child", choices=("A", "B"), help=argparse.SUPPRESS)
    parser.add_argument("--epoch", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--addrs", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return _child_main(
            args.child, args.epoch, _parse_addrs(args.addrs), args.out, args.seed
        )
    if args.backend == "sim":
        return run_sim_demo(seed=args.seed)
    return run_asyncio_demo(seed=args.seed, out_dir=args.out_dir)


if __name__ == "__main__":
    raise SystemExit(main())
