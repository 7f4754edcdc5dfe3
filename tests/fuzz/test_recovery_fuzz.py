"""Recovery-profile fuzzing: determinism across replays and hash seeds.

``crash_recover`` steps pull their downtimes from schedule-seeded
streams and restart name servers empty, so anti-entropy rebuilds their
databases — any hidden dependence on object identity, dict order or
``PYTHONHASHSEED`` would surface here as a digest mismatch.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.fuzz import CLEAN, ScheduleGenerator, Step, run_schedule
from tests.fuzz.test_runner import small_schedule

MS = 1_000


def test_recovery_replay_is_bit_for_bit_reproducible():
    schedule = ScheduleGenerator(11, "recovery").generate(0)
    assert any(s.kind == "crash_recover" for s in schedule.steps)
    first = run_schedule(schedule)
    second = run_schedule(schedule)
    assert first.classification == second.classification
    assert first.digest == second.digest
    assert first.sim_time_us == second.sim_time_us


def test_recovery_steps_are_valid_noops_when_misaimed():
    """Shrinker safety: misaimed recovery steps no-op deterministically."""
    outcome = run_schedule(small_schedule([
        Step(kind="crash_recover", node="p99"),  # unknown node
        Step(kind="crash_recover", node="ns0", down_us=300 * MS),
        Step(kind="settle", delay_us=3_000 * MS),
    ]))
    assert outcome.classification == CLEAN, outcome.detail


@pytest.mark.slow
def test_recovery_digest_is_hashseed_independent():
    """The trace digest must not depend on PYTHONHASHSEED.

    Runs the same recovery schedule in two subprocesses with different
    hash seeds; a digest difference means set/dict iteration order leaks
    into protocol behaviour somewhere in the recovery path.
    """
    program = (
        "import json\n"
        "from repro.fuzz import ScheduleGenerator, run_schedule\n"
        "out = run_schedule(ScheduleGenerator(11, 'recovery').generate(1))\n"
        "print(json.dumps({'digest': out.digest, 'cls': out.classification}))\n"
    )
    results = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = "src"
        proc = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert results[0] == results[1]


@pytest.mark.slow
def test_recovery_smoke_campaign_is_clean():
    """A small seeded recovery campaign must report zero problems."""
    generator = ScheduleGenerator(11, "recovery")
    for index in range(10):
        outcome = run_schedule(generator.generate(index))
        assert outcome.classification == CLEAN, (
            f"iteration {index}: {outcome.summary()} ({outcome.detail})"
        )
