"""Cluster assembly: everything needed to run LWG scenarios.

A :class:`Cluster` wires together the full stack for ``n`` application
processes — simulation environment, group addressing, name servers,
per-process protocol stacks, naming clients and a light-weight group
service of the chosen *flavour* (dynamic / static / none) —
so tests, examples and benchmarks build scenarios in a few lines.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

from ..checkers import CheckerSuite
from ..core.baselines import NoLwgService, make_dynamic_service, make_static_service
from ..core.config import LwgConfig
from ..core.service import LwgService
from ..naming.client import NamingClient
from ..naming.server import NameServer
from ..naming.sharding import ShardMap
from ..runtime.interfaces import SECOND, NodeId, Runtime
from ..sim.network import LinkModel
from ..sim.process import SimRuntime
from ..vsync.locator import GroupAddressing
from ..vsync.stack import ProtocolStack, VsyncConfig

ServiceFlavour = str  # "dynamic" | "static" | "none"


class Cluster:
    """A fully wired cluster of LWG-capable processes.

    By default the cluster runs on the deterministic discrete-event
    backend (:class:`~repro.sim.process.SimRuntime`).  Pass ``env`` to
    run the *same* wiring over a different runtime — e.g. an
    :class:`~repro.runtime.asyncio_backend.AsyncioRuntime`, where every
    node owns a real UDP socket and timers are wall-clock.  The cluster
    itself only touches the backend-agnostic runtime interfaces.
    """

    def __init__(
        self,
        num_processes: int,
        seed: int = 0,
        flavour: ServiceFlavour = "dynamic",
        num_name_servers: int = 1,
        lwg_config: Optional[LwgConfig] = None,
        vsync_config: Optional[VsyncConfig] = None,
        link: Optional[LinkModel] = None,
        keep_trace: bool = True,
        process_prefix: str = "p",
        checkers: bool = True,
        env: Optional[Runtime] = None,
        replication_factor: Optional[int] = None,
    ):
        if flavour not in ("dynamic", "static", "none"):
            raise ValueError(f"unknown service flavour {flavour!r}")
        self.flavour = flavour
        self.env: Runtime = env if env is not None else SimRuntime.create(
            seed=seed, link=link, keep_trace=keep_trace
        )
        # Online invariant monitors (sanitizer-style): on by default so
        # every scenario doubles as a correctness test.  Pass
        # ``checkers=False`` for timing-sensitive perf runs.
        self.checkers: Optional[CheckerSuite] = None
        if checkers:
            self.checkers = CheckerSuite.standard().attach(self.env.tracer)
        self.addressing = GroupAddressing()
        self.lwg_config = lwg_config or LwgConfig()
        self.vsync_config = vsync_config or VsyncConfig()
        self.name_server_ids = [f"ns{i}" for i in range(num_name_servers)]
        # Replica-set scope (PROTOCOLS.md §18): each LWG-name shard lives
        # on ``replication_factor`` of the name servers, chosen by
        # rendezvous hashing.  ``None`` (or any rf covering the roster)
        # replicates every shard on every server, in roster order.
        self.shard_map = ShardMap(
            self.name_server_ids, replication_factor or num_name_servers
        )
        # Always empty: the end-to-end benchmark's counter reader still
        # sums over it.
        self.stores: Dict[NodeId, object] = {}
        self.name_servers: Dict[NodeId, NameServer] = {
            node: NameServer(
                self.env, node, peers=self.name_server_ids,
                shard_map=self.shard_map,
            )
            for node in self.name_server_ids
        }
        self.process_ids: List[NodeId] = [
            f"{process_prefix}{i}" for i in range(num_processes)
        ]
        self.stacks: Dict[NodeId, ProtocolStack] = {}
        self.clients: Dict[NodeId, NamingClient] = {}
        self.services: Dict[NodeId, Union[LwgService, NoLwgService]] = {}
        for node in self.process_ids:
            stack = ProtocolStack(self.env, node, self.addressing, self.vsync_config)
            self.stacks[node] = stack
            if flavour == "none":
                self.services[node] = NoLwgService(stack)
                continue
            client = NamingClient(stack, self.name_server_ids, shard_map=self.shard_map)
            self.clients[node] = client
            if flavour == "dynamic":
                self.services[node] = make_dynamic_service(stack, client, self.lwg_config)
            else:
                self.services[node] = make_static_service(stack, client, self.lwg_config)

    # ------------------------------------------------------------------
    # Access helpers
    # ------------------------------------------------------------------
    def node_id(self, index: int) -> NodeId:
        return self.process_ids[index]

    def service(self, which: Union[int, NodeId]) -> Union[LwgService, NoLwgService]:
        """The LWG service of a process, by index or node id."""
        node = self.process_ids[which] if isinstance(which, int) else which
        return self.services[node]

    def stack(self, which: Union[int, NodeId]) -> ProtocolStack:
        node = self.process_ids[which] if isinstance(which, int) else which
        return self.stacks[node]

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run_for(self, duration_us: int) -> None:
        """Advance the runtime by ``duration_us`` microseconds."""
        self.env.run_for(duration_us)

    def run_for_seconds(self, seconds: float) -> None:
        self.run_for(int(seconds * SECOND))

    def run_until(self, predicate: Callable[[], bool], timeout_us: int,
                  step_us: int = 50_000) -> bool:
        """Step the runtime until ``predicate()`` or ``timeout_us`` elapses.

        Returns True if the predicate was met.
        """
        deadline = self.env.now + timeout_us
        while self.env.now < deadline:
            if predicate():
                return True
            self.env.run_for(min(deadline, self.env.now + step_us) - self.env.now)
        return predicate()

    # ------------------------------------------------------------------
    # Invariant checking
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Run the at-quiesce invariant checks (no-op if checkers are off).

        Call after a scenario has settled (views converged, naming
        traffic drained): raises
        :class:`~repro.checkers.InvariantViolation` on the first
        quiescent-state property that does not hold.
        """
        if self.checkers is not None:
            self.checkers.check_quiescent(self)

    # ------------------------------------------------------------------
    # Fault/partition injection conveniences
    # ------------------------------------------------------------------
    def partition(self, *blocks: Sequence[NodeId]) -> None:
        """Split the network into the given blocks (ids, not indexes)."""
        self.env.fabric.set_partitions(list(blocks))

    def heal(self) -> None:
        self.env.fabric.heal()

    def crash(self, which: Union[int, NodeId]) -> None:
        node = self.process_ids[which] if isinstance(which, int) else which
        self.env.failures.crash_now(node)

    def recover(self, which: Union[int, NodeId]) -> None:
        node = self.process_ids[which] if isinstance(which, int) else which
        self.env.failures.recover_now(node)
