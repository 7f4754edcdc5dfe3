"""The narrow surface between protocol code and its backend.

The paper presents the LWG service as a *library* over a
virtual-synchrony substrate; these classes pin down exactly what that
library (and the substrate itself) may assume about its environment.
Protocol layers receive one :class:`Runtime` bundle and touch nothing
outside it:

* ``runtime.clock.now`` / ``runtime.now`` — current time in integer
  microseconds (simulated or wall);
* ``runtime.scheduler`` — one-shot timers with cancellation;
* ``runtime.fabric`` — the message plane: per-node delivery callbacks,
  unicast, multicast, liveness flags and partition drop-filters;
* ``runtime.rng`` — seeded, stream-split randomness;
* ``runtime.tracer`` — structured event tracing;
* ``runtime.failures`` — crash/recovery injection and transition
  notifications.

Clock, scheduler and the bundle are structural :class:`typing.Protocol`
classes: the discrete-event backend satisfies them with
:class:`~repro.sim.engine.Simulation`, the real-time backend with
wall-clock asyncio timers.  The fabric and the failure feed are concrete
classes shared by both backends: :class:`Fabric` holds the node
registry, liveness and partition rules, and each backend's fabric
subclasses it with only its own transmission and reception.  No
protocol object ever imports a backend module.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Protocol, Sequence, Set

from .rng import RngRegistry
from .trace import Tracer

#: Process identifier on the fabric (the paper's process names).
NodeId = str

#: Delivery upcall registered per node: ``(src, payload, size)``.
DeliveryCallback = Callable[[NodeId, Any, int], None]

#: One millisecond in the runtime's integer-microsecond time base.
MS = 1_000
#: One second in the runtime's integer-microsecond time base.
SECOND = 1_000_000


class TimerHandle(Protocol):
    """Cancellation handle returned by :meth:`Scheduler.schedule`."""

    def cancel(self) -> None:
        """Prevent the timer from firing.  Safe to call more than once."""

    @property
    def pending(self) -> bool:
        """True while the timer is still scheduled to fire."""


class Clock(Protocol):
    """A source of integer-microsecond timestamps."""

    @property
    def now(self) -> int:
        """Current time in microseconds (simulated or wall)."""


class Scheduler(Protocol):
    """One-shot timers; periodic behaviour is built above this."""

    def schedule(self, delay: int, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` ``delay`` microseconds from now."""


class Fabric(ABC):
    """The message plane's bookkeeping: named nodes, liveness, partitions.

    Both backends subclass this one class and add only transmission and
    reception: :class:`~repro.sim.network.Network` schedules deliveries
    on the simulated wire, :class:`~repro.runtime.asyncio_backend.UdpFabric`
    sends datagrams over real sockets.  The rules a partition or a crash
    obeys therefore live here once, so a partition scripted over the
    simulator looks to the stack exactly like one over UDP.

    Partitions are block assignments — messages flow only within a
    block — enforced as a *drop-filter* on both the send and the
    delivery path, so a partition or crash also cuts messages already in
    flight.  Counters are per receiver: a multicast that reaches two of
    three destinations counts one drop.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._callbacks: Dict[NodeId, DeliveryCallback] = {}
        self._alive: Dict[NodeId, bool] = {}
        self._partition_of: Dict[NodeId, int] = {}
        #: Partition blocks, recomputed only when the partition map or the
        #: node population changes.
        self._blocks_cache: Optional[List[FrozenSet[NodeId]]] = None
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def attach(self, node: NodeId, callback: DeliveryCallback) -> None:
        """Register ``node`` with its delivery callback.  Node starts alive."""
        self._callbacks[node] = callback
        self._alive[node] = True
        self._partition_of.setdefault(node, 0)
        self._blocks_cache = None

    def detach(self, node: NodeId) -> None:
        """Remove ``node`` from the fabric entirely."""
        self._callbacks.pop(node, None)
        self._alive.pop(node, None)
        self._partition_of.pop(node, None)
        self._blocks_cache = None

    @property
    def nodes(self) -> List[NodeId]:
        """All attached node ids (alive or crashed)."""
        return sorted(self._callbacks)

    # ------------------------------------------------------------------
    # Liveness (crash/recovery)
    # ------------------------------------------------------------------
    def is_alive(self, node: NodeId) -> bool:
        """True if ``node`` is attached and not crashed."""
        return self._alive.get(node, False)

    def has_node(self, node: NodeId) -> bool:
        """True if ``node`` is attached (alive or crashed)."""
        return node in self._callbacks

    def set_alive(self, node: NodeId, alive: bool) -> None:
        """Crash (``False``) or recover (``True``) a node."""
        if node not in self._callbacks:
            raise KeyError(f"unknown node {node!r}")
        self._alive[node] = alive
        self.tracer.emit("network", "crash" if not alive else "recover", node=node)

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def set_partitions(self, blocks: Sequence[Iterable[NodeId]]) -> None:
        """Partition the fabric into the given blocks of nodes.

        Nodes not named in any block join block 0.  Messages only flow
        within a block.
        """
        assignment: Dict[NodeId, int] = {}
        for index, block in enumerate(blocks):
            for node in block:
                if node in assignment:
                    raise ValueError(f"node {node!r} appears in two partition blocks")
                assignment[node] = index
        for node in self._callbacks:
            self._partition_of[node] = assignment.get(node, 0)
        self._blocks_cache = None
        self.tracer.emit(
            "network", "partition",
            blocks=[sorted(n for n in self._callbacks if self._partition_of[n] == i)
                    for i in range(len(blocks) or 1)],
        )

    def heal(self) -> None:
        """Merge all partition blocks back into one."""
        for node in self._partition_of:
            self._partition_of[node] = 0
        self._blocks_cache = None
        self.tracer.emit("network", "heal")

    def partition_blocks(self) -> List[FrozenSet[NodeId]]:
        """Current partition blocks containing at least one node.

        Cached until the partition map or the node population changes; a
        fresh list is returned so callers may mutate it.
        """
        if self._blocks_cache is None:
            by_block: Dict[int, Set[NodeId]] = {}
            for node, block in self._partition_of.items():
                by_block.setdefault(block, set()).add(node)
            self._blocks_cache = [
                frozenset(nodes) for _, nodes in sorted(by_block.items())
            ]
        return list(self._blocks_cache)

    def reachable(self, a: NodeId, b: NodeId) -> bool:
        """True if a message sent now from ``a`` would be deliverable to ``b``."""
        return (
            self._alive.get(a, False)
            and self._alive.get(b, False)
            and self._partition_of.get(a) == self._partition_of.get(b)
        )

    # ------------------------------------------------------------------
    # Transmission (each backend's own)
    # ------------------------------------------------------------------
    @abstractmethod
    def send(self, src: NodeId, dst: NodeId, payload: Any, size: int = 256) -> bool:
        """Send a unicast message.  Returns False if dropped at the source."""

    @abstractmethod
    def multicast(
        self, src: NodeId, dsts: Iterable[NodeId], payload: Any, size: int = 256
    ) -> int:
        """Send one message to many destinations; returns deliveries scheduled."""


class FailureFeed:
    """Crash/recovery injection over a :class:`Fabric`, with transition hooks.

    The one failure feed both backends build.  Crashes are *fail-stop*:
    the fabric stops a crashed node sending and receiving and drops
    messages in flight to it.  Each process rebuilds its volatile state
    in the ``on_transition`` hook it registers.  Timed fault scripts are
    :class:`repro.fuzz.Schedule` steps, not part of this feed.
    """

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric
        self._hooks: Dict[NodeId, List[Callable[[bool], None]]] = {}

    def on_transition(self, node: NodeId, hook: Callable[[bool], None]) -> None:
        """Register ``hook(crashed)`` called when ``node`` crashes/recovers."""
        self._hooks.setdefault(node, []).append(hook)

    def crash_now(self, node: NodeId) -> None:
        """Fail-stop ``node`` immediately."""
        self._apply(node, crash=True)

    def recover_now(self, node: NodeId) -> None:
        """Recover ``node`` immediately."""
        self._apply(node, crash=False)

    def _apply(self, node: NodeId, crash: bool) -> None:
        want_alive = not crash
        if self.fabric.has_node(node) and self.fabric.is_alive(node) == want_alive:
            # Already in the requested state: crashing a crashed node or
            # recovering a live one is a no-op, and in particular the
            # transition hooks must not fire a second time (they wipe
            # and rebuild protocol state).  Unknown nodes still raise,
            # via set_alive below.
            return
        self.fabric.set_alive(node, want_alive)
        for hook in self._hooks.get(node, []):
            hook(crash)


class Runtime(Protocol):
    """Everything a protocol layer may touch, bundled."""

    @property
    def clock(self) -> Clock: ...

    @property
    def scheduler(self) -> Scheduler: ...

    @property
    def fabric(self) -> Fabric: ...

    @property
    def rng(self) -> RngRegistry: ...

    @property
    def tracer(self) -> Tracer: ...

    @property
    def failures(self) -> FailureFeed: ...

    @property
    def now(self) -> int:
        """Current time in microseconds (shorthand for ``clock.now``)."""

    def run_for(self, duration_us: int) -> None:
        """Drive the runtime forward ``duration_us`` microseconds.

        The simulation backend executes every event in the window; the
        asyncio backend runs its event loop for that much wall time.
        """
