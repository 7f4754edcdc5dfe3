"""Measurement plumbing of the e2e benchmark: yardstick, slices, watchdog.

Nothing in this file imports ``repro``: the yardstick must not get
faster or slower when the program under test does.

CPU estimator (README "Slices and yardstick"): the measured phase of a
workload is cut into slices of equal scripted work; a fixed pure-Python
kernel runs before and after every slice; a slice costs
``process_time(slice) / mean(adjacent yardsticks) * YARD_REF_S`` —
seconds on the reference box — and the workload reports the *median*
slice.  A slice hit by a noisy neighbour is an outlier the median drops,
and a slow minute of the box slows the yardstick by the same factor.
"""

from __future__ import annotations

import math
import resource
import signal
import statistics
import time
from collections import Counter
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence

#: The yardstick's process time on the reference box (the builder's
#: 2-core VM, CPython 3.11).  A constant, never re-measured at run time:
#: it only fixes the unit of the normalised CPU columns.
YARD_REF_S = 0.120

_YARD_ITERATIONS = 90_000


def yardstick() -> float:
    """Run the fixed heap/dict kernel; return its process time in seconds."""
    started = time.process_time()
    heap: list = []
    table: dict = {}
    x = 12345
    for i in range(_YARD_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heappush(heap, (x, i))
        slot = x & 4095
        table[slot] = table.get(slot, 0) + i
        if i & 1:
            heappop(heap)
    return time.process_time() - started


def quantile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank q-quantile of a sorted sample (always a sample value)."""
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Histogram:
    """Exact value→count histogram of integer samples."""

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.total = 0

    def add(self, value: int) -> None:
        self.counts[value] = self.counts.get(value, 0) + 1
        self.total += 1

    def update(self, values) -> None:
        """Fold in a whole sequence of samples."""
        for value, count in Counter(values).items():
            self.counts[value] = self.counts.get(value, 0) + count
        self.total += len(values)

    def sum(self) -> int:
        return sum(value * count for value, count in self.counts.items())

    def quantile(self, q: float) -> float:
        if not self.total:
            return 0.0
        rank = max(1, math.ceil(q * self.total))
        seen = 0
        for value in sorted(self.counts):
            seen += self.counts[value]
            if seen >= rank:
                return float(value)
        return float(max(self.counts))


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (0 for tiny samples)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Timed:
    """One yardstick-bracketed measurement."""

    __slots__ = ("raw_s", "norm_s")

    def __init__(self, raw_s: float, yard_s: float):
        self.raw_s = raw_s
        #: Seconds on the reference box.
        self.norm_s = raw_s / yard_s * YARD_REF_S


class SliceMeter:
    """Times consecutive pieces of work, a yardstick run between each."""

    def __init__(self) -> None:
        self._last_yard: Optional[float] = None
        self.yardsticks: List[float] = []

    def _yard(self) -> float:
        value = yardstick()
        self.yardsticks.append(value)
        return value

    def measure(self, work: Callable[[], None]) -> Timed:
        before = self._last_yard if self._last_yard is not None else self._yard()
        started = time.process_time()
        work()
        raw = time.process_time() - started
        after = self._yard()
        self._last_yard = after
        return Timed(raw, (before + after) / 2.0)


class WatchdogAbort(BaseException):
    """Raised inside the workload when it exceeds its wall or memory cap.

    Not an ``Exception``: the handler raises it wherever the program
    happens to be, and an ``except Exception`` there must not swallow it.
    """


class Watchdog:
    """Abort a workload at ``wall_s`` seconds or ``rss_mb`` resident memory.

    A one-second interval timer checks both limits and raises
    :class:`WatchdogAbort` in the main thread, so a congestion-collapse
    regression fails fast with its remaining ops counted as failed
    instead of hanging the pipeline.
    """

    def __init__(self, wall_s: float = 150.0, rss_mb: float = 1024.0):
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.reason: Optional[str] = None
        self._deadline = 0.0
        self._previous = None

    def _check(self, signum, frame) -> None:
        if time.monotonic() > self._deadline:
            self.reason = f"wall clock over {self.wall_s:.0f}s"
        elif peak_rss_mb() > self.rss_mb:
            self.reason = f"resident memory over {self.rss_mb:.0f}MB"
        else:
            return
        # The timer stays armed until ``__exit__``: should the abort be
        # caught on its way out, the next tick raises it again.
        raise WatchdogAbort(self.reason)

    def __enter__(self) -> "Watchdog":
        self._deadline = time.monotonic() + self.wall_s
        self._previous = signal.signal(signal.SIGALRM, self._check)
        signal.setitimer(signal.ITIMER_REAL, 1.0, 1.0)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
