"""Measurement collectors used by examples, tests and benchmarks.

All measurement is *application-level*: latency is stamped into payloads
at send time and read back at delivery, recovery is the gap between a
crash and the installation of a view excluding the victim — the same
quantities the paper plots in Figure 2.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """The q-quantile of a sorted sample by the nearest-rank method.

    Rank ``ceil(q * n)`` (1-based), clamped to the first element; for
    q=0.5 this is the lower median, and the result is always an actual
    sample value.
    """
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class SummaryStats:
    """Summary of a sample of microsecond measurements."""

    count: int
    mean_us: float
    p50_us: float
    p95_us: float
    max_us: float

    @classmethod
    def of(cls, samples: Sequence[float]) -> Optional["SummaryStats"]:
        if not samples:
            return None
        ordered = sorted(samples)
        return cls(
            count=len(ordered),
            mean_us=statistics.fmean(ordered),
            p50_us=nearest_rank(ordered, 0.50),
            p95_us=nearest_rank(ordered, 0.95),
            max_us=ordered[-1],
        )

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean_us / 1000:.2f}ms "
            f"p50={self.p50_us / 1000:.2f}ms p95={self.p95_us / 1000:.2f}ms "
            f"max={self.max_us / 1000:.2f}ms"
        )


class LatencyCollector:
    """Collects send-to-delivery latencies, grouped by a string key."""

    def __init__(self) -> None:
        self._samples: Dict[str, List[float]] = {}

    def record(self, key: str, sent_at_us: int, delivered_at_us: int) -> None:
        self._samples.setdefault(key, []).append(delivered_at_us - sent_at_us)

    def samples(self, key: Optional[str] = None) -> List[float]:
        if key is not None:
            return list(self._samples.get(key, []))
        return [s for samples in self._samples.values() for s in samples]

    def summary(self, key: Optional[str] = None) -> Optional[SummaryStats]:
        return SummaryStats.of(self.samples(key))

    def keys(self) -> List[str]:
        return sorted(self._samples)


class RecoveryTimer:
    """Measures crash -> everyone-reconfigured intervals, per group."""

    def __init__(self) -> None:
        self.crashed_at_us: Optional[int] = None
        self.victim: Optional[str] = None
        #: (group, observer) -> time the observer installed a victim-free view.
        self._recovered_at: Dict[Tuple[str, str], int] = {}
        self._expected: List[Tuple[str, str]] = []

    def arm(self, crashed_at_us: int, victim: str, expected: Sequence[Tuple[str, str]]) -> None:
        """Start measuring: ``expected`` lists (group, observer) pairs."""
        self.crashed_at_us = crashed_at_us
        self.victim = victim
        self._recovered_at = {}
        self._expected = list(expected)

    def note_view(self, group: str, observer: str, members: Sequence[str], now_us: int) -> None:
        """Feed every view installation here; victim-free views count."""
        if self.crashed_at_us is None or self.victim is None:
            return
        if now_us < self.crashed_at_us or self.victim in members:
            return
        key = (group, observer)
        if key in self._expected and key not in self._recovered_at:
            self._recovered_at[key] = now_us

    @property
    def complete(self) -> bool:
        return bool(self._expected) and all(
            key in self._recovered_at for key in self._expected
        )

    def recovery_time_us(self) -> Optional[int]:
        """Crash-to-last-reconfiguration interval, if complete."""
        if not self.complete or self.crashed_at_us is None:
            return None
        return max(self._recovered_at.values()) - self.crashed_at_us
