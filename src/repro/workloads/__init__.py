"""Scenario builders, traffic generators and cluster assembly."""

from .cluster import Cluster
from .scenarios import (
    GROUP_SIZE,
    Scenario,
    build_figure2,
    build_overlap,
    build_partition_scenario,
    measure_latency,
    measure_recovery,
    measure_throughput,
)
from .traffic import PeriodicSender, ProbeHub, ProbeListener, probe_payload

__all__ = [
    "Cluster",
    "GROUP_SIZE",
    "Scenario",
    "build_figure2",
    "build_overlap",
    "build_partition_scenario",
    "measure_latency",
    "measure_recovery",
    "measure_throughput",
    "PeriodicSender",
    "ProbeHub",
    "ProbeListener",
    "probe_payload",
]
