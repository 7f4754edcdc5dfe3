"""Soak benchmark: convergence under sustained randomized churn.

Replays one generated churn-profile fuzz schedule (join/leave/crash/
recover/partition/heal/burst) in four mixes, each the same schedule
filtered to a subset of step kinds (the runner's validity guards keep
any subset runnable), and measures how long the system needs to
quiesce after the churn stops — every group back to one view with
exactly the expected members, then the at-quiesce invariant checks.
"""

from conftest import SEED

from repro.fuzz import ScheduleGenerator, run_schedule
from repro.fuzz.schedule import STEP_KINDS
from repro.metrics import format_table, shape_check

ALL_KINDS = frozenset(STEP_KINDS)

#: label -> the step kinds kept from the schedule.
MIXES = (
    ("join/leave only", {"join", "leave"}),
    ("with crashes", ALL_KINDS - {"partition", "heal"}),
    ("with partitions", ALL_KINDS - {"crash", "recover"}),
    ("everything", ALL_KINDS),
)


def run_soak():
    schedule = ScheduleGenerator(SEED, "churn").generate(0)
    rows = []
    for label, kept in MIXES:
        steps = [step for step in schedule.steps if step.kind in kept]
        outcome = run_schedule(schedule.replace_steps(steps))
        rows.append([
            label,
            len(steps),
            f"{outcome.quiesce_us / 1000:.0f} ms",
            "yes" if outcome.is_clean else outcome.summary(),
        ])
    return rows


def test_churn_soak(benchmark):
    rows = benchmark.pedantic(run_soak, rounds=1, iterations=1)
    print(
        format_table(
            "Soak — quiesce time after one churn schedule, filtered by step kind "
            "(6 procs, 3 groups)",
            ["mix", "steps", "churn-end to quiesced", "consistent?"],
            rows,
        )
    )
    check = shape_check(
        "every mix quiesces to the expected membership",
        all(row[3] == "yes" for row in rows),
    )
    print(check)
    assert check.startswith("[PASS]")
