"""Deterministic scenario fuzzing for the LWG stack.

The fuzzer composes random fault schedules — multi-way partitions,
partial heals, fail-stop crashes and recoveries, LWG create/join/leave
churn, overlapping group layouts, message bursts — from stream-split
seeds, replays each on a checker-enabled
:class:`~repro.workloads.cluster.Cluster`, and classifies the outcome.
Failures are shrunk to minimal standalone reproducers.

Entry points:

* ``python -m repro fuzz --seed N --iters K --profile mixed`` — CLI;
* ``python -m repro run [--backend sim|asyncio] [SCHEDULE ...]`` —
  replay on the simulator or over real UDP sockets;
* :func:`run_schedule` / :class:`Schedule` — programmatic replay;
* :class:`ScheduleGenerator` — schedule generation;
* :func:`shrink` — delta-debugging minimization.
"""

from .artifacts import write_artifact
from .generator import PROFILES, GeneratorConfig, ScheduleGenerator
from .runner import (
    CLEAN,
    NON_CONVERGENCE,
    VIOLATION,
    FuzzOutcome,
    ScheduleRunner,
    run_schedule,
)
from .schedule import DEFAULT_DELAY_US, Schedule, Step
from .shrink import ShrinkResult, reproducer_for, shrink

__all__ = [
    "CLEAN",
    "DEFAULT_DELAY_US",
    "FuzzOutcome",
    "GeneratorConfig",
    "NON_CONVERGENCE",
    "PROFILES",
    "Schedule",
    "ScheduleGenerator",
    "ScheduleRunner",
    "ShrinkResult",
    "Step",
    "VIOLATION",
    "reproducer_for",
    "run_schedule",
    "shrink",
    "write_artifact",
]
