"""Deterministic discrete-event simulation engine.

Time is measured in integer microseconds.  Events scheduled at the same
instant fire in insertion order, which — together with the seeded RNG in
:mod:`repro.runtime.rng` — makes every run exactly reproducible from its seed.

The engine is intentionally minimal: a priority queue of heap entries
plus cancellation handles.  Everything above it (network, processes,
protocol stacks) is built from ``schedule`` and ``schedule_at`` calls.

Heap entries are plain tuples so every sift comparison runs in C —
pushing :class:`EventHandle` objects directly would invoke a Python
``__lt__`` per comparison, which dominated the event loop's profile.
``(time, seq)`` is unique per event, so comparisons never reach the
third slot.  An entry has one of two shapes:

* ``(time, seq, handle)`` — a cancellable event from :meth:`schedule`;
* ``(time, seq, None, fn, args)`` — a handle-free post from
  :meth:`Simulation.schedule_at`, fired as ``fn(*args)``.  Nothing can
  cancel it, so it needs no handle, and the run loops call ``fn``
  directly (a network delivery enters ``Network._deliver`` first).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

# Canonical time-base constants live in the backend-agnostic runtime
# layer; re-exported here because the time base predates that layer.
from ..runtime.interfaces import MS, SECOND

__all__ = ["MS", "SECOND", "EventHandle", "Simulation", "SimulationError"]

_heappush = heapq.heappush
_heappop = heapq.heappop

#: A heap entry, in either of the two shapes of the module docstring.
_Entry = Tuple[Any, ...]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine (e.g. scheduling in the past)."""


class EventHandle:
    """Cancellation handle for a scheduled event.

    Cancellation is lazy: the entry stays in the heap but is skipped when
    popped.  ``fired`` distinguishes "already executed" from "cancelled".
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "fired", "_sim")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[[], None],
        sim: "Optional[Simulation]" = None,
    ):
        self.time = time
        self.seq = seq
        self.callback: Optional[Callable[[], None]] = callback
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if not self.cancelled and not self.fired and self._sim is not None:
            self._sim._live -= 1
        self.cancelled = True
        self.callback = None

    @property
    def pending(self) -> bool:
        """True while the event is still scheduled to fire."""
        return not self.cancelled and not self.fired

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "pending")
        return f"EventHandle(t={self.time}, seq={self.seq}, {state})"


# Bound once: the run loops construct one handle per event, and the
# ``__init__`` call frame plus per-call class attribute lookups showed up
# prominently in event-loop profiles.
_new_handle = EventHandle.__new__


class Simulation:
    """A single-threaded discrete-event simulation.

    Usage::

        sim = Simulation()
        sim.schedule(10 * MS, lambda: print("at 10ms"))
        sim.run_until(1 * SECOND)
    """

    def __init__(self) -> None:
        #: Current simulation time in microseconds.  A plain attribute,
        #: written only by the run loops: a time read is the most
        #: frequent operation in the simulator and creates no frame.
        self.now: int = 0
        self._seq = 0
        self._queue: List[_Entry] = []
        self._running = False
        # Count of scheduled, not-yet-cancelled, not-yet-fired events,
        # maintained incrementally so ``pending_events`` is O(1) instead
        # of an O(n) heap scan (it sits on the hot path of run loops that
        # poll for quiescence).
        self._live = 0

    def schedule(self, delay: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` microseconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}us in the past")
        if type(delay) is not int:
            delay = int(delay)
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        # Handle construction is inlined (no ``__init__`` call): this is
        # the single hottest allocation in the simulator.
        handle = _new_handle(EventHandle)
        handle.time = time
        handle.seq = seq
        handle.callback = callback
        handle.cancelled = False
        handle.fired = False
        handle._sim = self
        _heappush(self._queue, (time, seq, handle))
        return handle

    def schedule_at(self, time: int, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulation ``time``.

        The handle-free post: it returns no handle and cannot be
        cancelled, and it takes a ``seq`` exactly like :meth:`schedule`,
        so it fires in the same (time, insertion) order.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time}us, now is t={self.now}us"
            )
        if type(time) is not int:
            time = int(time)
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        _heappush(self._queue, (time, seq, None, fn, args))

    def step(self) -> bool:
        """Execute the single next pending event.

        Returns False when the queue is empty.  Fires inline, like the
        run loops: the first frame it enters is the event's own.
        """
        queue = self._queue
        while queue:
            head = _heappop(queue)
            handle = head[2]
            if handle is None:
                self.now = head[0]
                self._live -= 1
                head[3](*head[4])
                return True
            callback = handle.callback
            if callback is not None:
                self.now = head[0]
                handle.fired = True
                self._live -= 1
                handle.callback = None
                callback()
                return True
        return False

    def run_until(self, time: int) -> None:
        """Run every event with timestamp ``<= time``; advance clock to ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot run backwards to t={time}us")
        # Hot loop: fire events inline (no helper calls), one heap pop
        # per event.  For a handle, ``callback is None`` doubles as the
        # cancellation test — fired entries never sit in the heap, so a
        # None callback can only mean ``cancel()`` ran.  The one event
        # popped past the horizon is pushed back (once per call, not per
        # event).
        queue = self._queue
        heappop = _heappop
        while queue:
            head = heappop(queue)
            handle = head[2]
            if handle is not None:
                callback = handle.callback
                if callback is None:  # cancelled
                    continue
            head_time = head[0]
            if head_time > time:
                _heappush(queue, head)
                break
            self.now = head_time
            self._live -= 1
            if handle is None:
                head[3](*head[4])
            else:
                handle.fired = True
                handle.callback = None
                callback()
        self.now = max(self.now, int(time))

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until the event queue drains.  Returns the number of events run.

        ``max_events`` is a runaway-protocol backstop; exceeding it raises.
        """
        queue = self._queue
        heappop = _heappop
        count = 0
        while queue:
            head = heappop(queue)
            handle = head[2]
            if handle is not None:
                callback = handle.callback
                if callback is None:  # cancelled (see run_until)
                    continue
            count += 1
            if count > max_events:
                raise SimulationError(f"exceeded {max_events} events; runaway protocol?")
            self.now = head[0]
            self._live -= 1
            if handle is None:
                head[3](*head[4])
            else:
                handle.fired = True
                handle.callback = None
                callback()
        return count

    @property
    def pending_events(self) -> int:
        """Number of scheduled, not-yet-cancelled events (O(1))."""
        return self._live

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulation(now={self.now}us, pending={self.pending_events})"
