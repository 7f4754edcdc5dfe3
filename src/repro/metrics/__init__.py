"""Measurement collectors and paper-style reporting."""

from .collectors import LatencyCollector, RecoveryTimer, SummaryStats
from .report import format_table, series_table, shape_check

__all__ = [
    "LatencyCollector",
    "RecoveryTimer",
    "SummaryStats",
    "format_table",
    "series_table",
    "shape_check",
]
