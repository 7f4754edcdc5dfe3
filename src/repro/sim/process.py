"""The discrete-event runtime bundle and the backend-agnostic process.

:class:`SimRuntime` is the deterministic implementation of the
:class:`~repro.runtime.interfaces.Runtime` protocol: the
:class:`~repro.sim.engine.Simulation` serves as both clock and
scheduler, the :class:`~repro.sim.network.Network` as the fabric, and
the :class:`~repro.sim.failure.FailureInjector` as the failure feed.

:class:`Process` is the base class for every protocol actor (failure
detector host, HWG stack, name server).  It touches its environment
*only* through the runtime protocols — messaging via ``env.fabric``,
timers via ``env.scheduler``, crash transitions via ``env.failures`` —
so the same process code runs unmodified on the real-time asyncio
backend (:mod:`repro.runtime.asyncio_backend`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional, Tuple

from ..runtime.interfaces import Addressing, NodeId, Runtime, TimerHandle
from ..runtime.rng import RngRegistry
from ..runtime.trace import Tracer
from .engine import Simulation
from .failure import FailureInjector
from .network import LinkModel, Network

#: A process drops its fired timer handles once it holds more than this.
_TIMERS_MAX = 256


@dataclass
class SimRuntime:
    """Everything a process needs to run on the discrete-event backend."""

    sim: Simulation
    network: Network
    rng: RngRegistry
    tracer: Tracer
    failures: FailureInjector
    #: The Runtime protocol views, fixed at construction: the simulation
    #: is its own clock and scheduler, the simulated network the fabric.
    #: Plain attributes, so reaching one costs no property frame.
    clock: Simulation = field(init=False, repr=False, compare=False)
    scheduler: Simulation = field(init=False, repr=False, compare=False)
    fabric: Network = field(init=False, repr=False, compare=False)

    @classmethod
    def create(
        cls,
        seed: int = 0,
        link: Optional[LinkModel] = None,
        shared_medium: bool = True,
        keep_trace: bool = True,
    ) -> "SimRuntime":
        """Build a fresh simulation environment from a root seed."""
        sim = Simulation()
        rng = RngRegistry(seed)
        tracer = Tracer(clock=lambda: sim.now, keep_records=keep_trace)
        network = Network(sim, rng, tracer=tracer, link=link, shared_medium=shared_medium)
        failures = FailureInjector(sim, network)
        return cls(sim=sim, network=network, rng=rng, tracer=tracer, failures=failures)

    def __post_init__(self) -> None:
        self.clock = self.sim
        self.scheduler = self.sim
        self.fabric = self.network

    if TYPE_CHECKING:

        @property
        def now(self) -> int:
            """Current simulation time in microseconds."""
            return self.sim.now

    else:
        # A C-level getter: reading the time creates no Python frame.
        now = property(
            attrgetter("sim.now"), doc="Current simulation time in microseconds."
        )

    def run_for(self, duration_us: int) -> None:
        """Execute every event in the next ``duration_us`` microseconds."""
        self.sim.run_until(self.sim.now + duration_us)

    def group_addressing(self) -> Addressing:
        """A shared in-memory subscriber registry (IP-multicast analogue)."""
        from ..vsync.locator import GroupAddressing

        return GroupAddressing()


class Process:
    """Base class for a protocol process bound to one fabric node."""

    def __init__(self, env: Runtime, node: NodeId):
        self.env = env
        self.node = node
        self.crashed = False
        self._timers: List[TimerHandle] = []
        #: (period, callback, jitter_stream) specs, re-armed on recovery.
        self._periodic_specs: List[Tuple[int, Callable[[], None], str]] = []
        env.fabric.attach(node, self._network_deliver)
        env.failures.on_transition(node, self._on_transition)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, dst: NodeId, msg: Any, size: int = 256) -> bool:
        """Unicast ``msg`` to ``dst``.  No-op while crashed."""
        if self.crashed:
            return False
        return self.env.fabric.send(self.node, dst, msg, size)

    def multicast(self, dsts: Iterable[NodeId], msg: Any, size: int = 256) -> int:
        """Multicast ``msg`` to every node in ``dsts`` (one transmission)."""
        if self.crashed:
            return 0
        return self.env.fabric.multicast(self.node, dsts, msg, size)

    def _network_deliver(self, src: NodeId, payload: Any, size: int) -> None:
        if self.crashed:
            return
        self.on_message(src, payload, size)

    def on_message(self, src: NodeId, msg: Any, size: int) -> None:
        """Handle an incoming message.  Subclasses override."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def set_timer(self, delay: int, callback: Callable[[], None]) -> TimerHandle:
        """Run ``callback`` after ``delay`` us unless the process crashes first."""
        handle = self.env.scheduler.schedule(delay, self._guard(callback))
        timers = self._timers
        timers.append(handle)
        if len(timers) > _TIMERS_MAX:
            self._prune_timers()
        return handle

    def set_periodic(
        self, period: int, callback: Callable[[], None], jitter_stream: str = ""
    ) -> None:
        """Run ``callback`` every ``period`` us until crash.

        If ``jitter_stream`` names an RNG stream, each period is jittered
        by up to 10% to avoid global phase-locking of periodic tasks.
        Periodic tasks are re-armed automatically when the process
        recovers from a crash.
        """
        self._periodic_specs.append((period, callback, jitter_stream))
        self._start_periodic(period, callback, jitter_stream)

    def _start_periodic(
        self, period: int, callback: Callable[[], None], jitter_stream: str = ""
    ) -> None:
        rng = self.env.rng.stream(jitter_stream) if jitter_stream else None
        # The jitter is ``rng.randint(0, max(1, period // 10))`` spelled
        # out as CPython's ``_randbelow`` rejection loop over
        # ``getrandbits`` (as ``Network`` draws its jitter): the same
        # calls on the same generator, so the same stream, without the
        # three ``random.py`` frames.
        getrandbits = rng.getrandbits if rng is not None else None
        bound = max(1, period // 10) + 1
        bits = bound.bit_length()

        def tick() -> None:
            # Scheduled bare: the crash test of ``_guard`` is done here,
            # so a tick is one frame.
            if self.crashed:
                return
            callback()
            delay = period
            if getrandbits is not None:
                jitter = getrandbits(bits)
                while jitter >= bound:
                    jitter = getrandbits(bits)
                delay += jitter
            timers = self._timers
            timers.append(self.env.scheduler.schedule(delay, tick))
            if len(timers) > _TIMERS_MAX:
                self._prune_timers()

        first = period if rng is None else period + rng.randint(0, bound - 1)
        self._timers.append(self.env.scheduler.schedule(first, tick))

    def _guard(self, callback: Callable[[], None]) -> Callable[[], None]:
        def run() -> None:
            if not self.crashed:
                callback()

        return run

    def _prune_timers(self) -> None:
        self._timers = [t for t in self._timers if t.pending]

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------
    def _on_transition(self, crashed: bool) -> None:
        if crashed and not self.crashed:
            self.crashed = True
            for timer in self._timers:
                timer.cancel()
            self._timers.clear()
            self.on_crash()
        elif not crashed and self.crashed:
            self.crashed = False
            for period, callback, jitter_stream in self._periodic_specs:
                self._start_periodic(period, callback, jitter_stream)
            self.on_recover()

    def on_crash(self) -> None:
        """Hook invoked when this process fail-stops.  Subclasses may override."""

    def on_recover(self) -> None:
        """Hook invoked when this process recovers.  Subclasses may override."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "crashed" if self.crashed else "up"
        return f"{type(self).__name__}(node={self.node}, {state})"
