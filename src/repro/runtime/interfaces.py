"""The narrow protocol surface between protocol code and its backend.

The paper presents the LWG service as a *library* over a
virtual-synchrony substrate; these :class:`typing.Protocol` classes pin
down exactly what that library (and the substrate itself) may assume
about its environment.  Protocol layers receive one
:class:`Runtime` bundle and touch nothing outside it:

* ``runtime.clock.now`` / ``runtime.now`` — current time in integer
  microseconds (simulated or wall);
* ``runtime.scheduler`` — one-shot timers with cancellation;
* ``runtime.fabric`` — the message plane: per-node delivery callbacks,
  unicast, multicast, liveness flags and partition drop-filters;
* ``runtime.rng`` — seeded, stream-split randomness;
* ``runtime.tracer`` — structured event tracing;
* ``runtime.failures`` — crash/recovery injection and transition
  notifications: the concrete :class:`FailureFeed`, one class over
  either backend's fabric.

Conformance is structural: the discrete-event backend satisfies these
with :class:`~repro.sim.engine.Simulation` (Clock + Scheduler) and
:class:`~repro.sim.network.Network` (Fabric); the real-time backend with
wall-clock asyncio timers and UDP sockets.  No protocol object ever
imports a backend module.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Protocol, Sequence, Set

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


class Fabric(Protocol):
    """The message plane: named nodes, unicast/multicast, drop-filters.

    Partitions are expressed as block assignments — messages flow only
    within a block — which both backends implement as a *drop-filter* on
    the send and delivery paths (the simulator drops in its scheduling
    step; the UDP fabric drops datagrams in userspace, no iptables
    needed).
    """

    def attach(self, node: NodeId, callback: DeliveryCallback) -> None:
        """Register ``node`` with its delivery callback.  Node starts alive."""

    def detach(self, node: NodeId) -> None:
        """Remove ``node`` from the fabric entirely."""

    def send(self, src: NodeId, dst: NodeId, payload: Any, size: int = 256) -> bool:
        """Send a unicast message.  Returns False if dropped at the source."""

    def multicast(
        self, src: NodeId, dsts: Iterable[NodeId], payload: Any, size: int = 256
    ) -> int:
        """Send one message to many destinations; returns deliveries scheduled."""

    def is_alive(self, node: NodeId) -> bool:
        """True if ``node`` is attached and not crashed."""

    def has_node(self, node: NodeId) -> bool:
        """True if ``node`` is attached (alive or crashed)."""

    def set_alive(self, node: NodeId, alive: bool) -> None:
        """Crash (``False``) or recover (``True``) a node."""

    def set_partitions(self, blocks: Sequence[Iterable[NodeId]]) -> None:
        """Install a partition drop-filter; unnamed nodes join block 0."""

    def heal(self) -> None:
        """Remove the partition drop-filter (all nodes in one block)."""

    def partition_blocks(self) -> List[FrozenSet[NodeId]]:
        """Current partition blocks containing at least one node."""

    def reachable(self, a: NodeId, b: NodeId) -> bool:
        """True if a message sent now from ``a`` would be deliverable to ``b``."""


class Addressing(Protocol):
    """Group-address subscriber registry (the IP-multicast analogue).

    The simulator uses a shared in-memory registry; the UDP fabric uses
    broadcast addressing (everyone is a potential subscriber, receivers
    filter) — exactly the split real IP multicast on a shared medium
    gives you.
    """

    def subscribe(self, group: str, node: NodeId) -> None:
        """Add ``node`` to the subscriber set of ``group``'s address."""

    def unsubscribe(self, group: str, node: NodeId) -> None:
        """Remove ``node`` from ``group``'s address."""

    def unsubscribe_all(self, node: NodeId) -> None:
        """Remove ``node`` from every group address (process teardown)."""

    def subscribers(self, group: str) -> Set[NodeId]:
        """Current subscriber set of ``group`` (reachability NOT applied)."""

    def groups_of(self, node: NodeId) -> Set[str]:
        """Every group address ``node`` is subscribed to."""


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

    def group_addressing(self) -> Addressing:
        """A fresh group-address registry appropriate for this backend."""
