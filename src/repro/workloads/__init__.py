"""Scenario builders, traffic generators and cluster assembly."""

from .cluster import Cluster
from .scenarios import (
    GROUP_SIZE,
    Figure2Setup,
    PartitionScenario,
    build_figure2,
    build_partition_scenario,
    measure_latency,
    measure_recovery,
    measure_throughput,
)
from .overlap import OverlapSetup, build_overlap
from .traffic import PeriodicSender, ProbeHub, ProbeListener, probe_payload

__all__ = [
    "Cluster",
    "GROUP_SIZE",
    "Figure2Setup",
    "PartitionScenario",
    "build_figure2",
    "build_partition_scenario",
    "measure_latency",
    "measure_recovery",
    "measure_throughput",
    "OverlapSetup",
    "build_overlap",
    "PeriodicSender",
    "ProbeHub",
    "ProbeListener",
    "probe_payload",
]
