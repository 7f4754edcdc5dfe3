"""Randomized soak tests: seeded churn schedules must always quiesce.

Each soak is a generated fuzz :class:`~repro.fuzz.Schedule`, so it
replays bit for bit: the trace digest must match the pin the fuzz CI
rows hold under the same label.
"""

import json
from pathlib import Path

import pytest

from repro.fuzz import CLEAN, ScheduleGenerator, ScheduleRunner

PINS = json.loads(
    (Path(__file__).parent.parent / "fuzz" / "expected_digests.json").read_text()
)


def assert_soak_clean(schedule):
    """Clean outcome, zero checker violations, and the pinned digest.

    The online checkers ran for the whole soak (they are on by default
    and raise at the guilty event); the runner added the at-quiesce
    properties after the naming anti-entropy tail settled.
    """
    runner = ScheduleRunner(schedule)
    outcome = runner.run()
    assert outcome.classification == CLEAN, (
        f"{outcome.summary()}\n{schedule.describe()}"
    )
    assert runner.cluster.checkers is not None
    assert runner.cluster.checkers.violations == []
    assert outcome.digest == PINS[schedule.label], schedule.label


@pytest.mark.parametrize("index", [1, 2, 3, 4, 5])
def test_random_churn_quiesces(index):
    assert_soak_clean(ScheduleGenerator(1, "churn").generate(index))


def test_heavy_partition_churn_quiesces():
    assert_soak_clean(ScheduleGenerator(1, "partition").generate(0))
