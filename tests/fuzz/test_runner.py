"""Schedule replay: classification, determinism, validity guards, sabotage.

The last test is the fuzzer's end-to-end acceptance check: a cluster
with a deliberately sabotaged channel must be caught by the campaign
within a bounded number of iterations, and the shrinker must reduce the
failing schedule to a handful of steps that still reproduce the same
invariant violation.
"""

from repro.core.ids import lwg_id
from repro.fuzz import (
    CLEAN,
    VIOLATION,
    Schedule,
    ScheduleGenerator,
    ScheduleRunner,
    Step,
    reproducer_for,
    run_schedule,
    shrink,
)

MS = 1_000


def small_schedule(steps, seed=42):
    return Schedule(
        seed=seed,
        num_processes=3,
        num_name_servers=1,
        groups=("s0",),
        initial_members={"s0": ("p0", "p1", "p2")},
        settle_us=8_000 * MS,
        steps=steps,
        label="unit",
    )


def test_quiet_schedule_runs_clean():
    outcome = run_schedule(small_schedule([
        Step(kind="burst", node="p0", group="s0", count=2),
        Step(kind="settle"),
    ]))
    assert outcome.classification == CLEAN, outcome.detail
    assert outcome.steps_applied == 2
    assert outcome.digest


def test_replay_is_bit_for_bit_reproducible():
    schedule = ScheduleGenerator(3, "mixed").generate(0)
    first = run_schedule(schedule)
    second = run_schedule(schedule)
    assert first.classification == second.classification
    assert first.digest == second.digest
    assert first.sim_time_us == second.sim_time_us


def test_invalid_steps_are_deterministic_noops():
    # The shrinker deletes steps freely; whatever remains must stay
    # runnable.  Unknown nodes/groups, duplicate joins, crashes of
    # crashed nodes and heals without partitions all no-op.
    outcome = run_schedule(small_schedule([
        Step(kind="join", node="p99", group="s0"),
        Step(kind="join", node="p0", group="nope"),
        Step(kind="join", node="p0", group="s0"),       # already a member
        Step(kind="leave", node="p1", group="nope"),
        Step(kind="crash", node="p99"),
        Step(kind="recover", node="p0"),                 # not crashed
        Step(kind="heal"),                               # not partitioned
        Step(kind="burst", node="p9", group="s0", count=2),
        Step(kind="partition", blocks=(("p0", "p1"),)),  # single block
    ]))
    assert outcome.classification == CLEAN, outcome.detail


def test_crash_respects_min_alive():
    schedule = small_schedule([
        Step(kind="crash", node="p0"),
        Step(kind="crash", node="p1"),  # would leave 1 alive: refused
        Step(kind="crash", node="p2"),  # likewise
        Step(kind="join", node="p0", group="s0"),  # crashed: refused
    ])
    runner = ScheduleRunner(schedule)
    outcome = runner.run()
    assert outcome.classification == CLEAN, outcome.detail
    assert runner.crashed == {"p0"}
    # The crash dropped p0 from the expected membership for good.
    assert runner.expected["s0"] == {"p1", "p2"}


def test_partition_step_updates_runner_state():
    schedule = small_schedule([
        Step(kind="partition", blocks=(("p0", "p1", "ns0"), ("p2",))),
        Step(kind="heal"),
    ])
    runner = ScheduleRunner(schedule)
    outcome = runner.run()
    assert outcome.classification == CLEAN, outcome.detail
    assert not runner.partitioned


def lossy_channel_sabotage(cluster):
    """Swallow one ordered delivery at the first live member of s0."""
    for node in cluster.process_ids:
        local = cluster.service(node).table.local(lwg_id("s0"))
        if local is None or local.hwg is None:
            continue
        endpoint = cluster.stack(node).endpoints.get(local.hwg)
        if endpoint is None:
            continue
        channel = endpoint.channel
        original = channel._deliver
        state = {"engaged": False}

        def lossy(msg, original=original, state=state):
            if not state["engaged"]:
                state["engaged"] = True
                return
            original(msg)

        channel._deliver = lossy
        return


def test_sabotaged_stack_is_caught_and_shrunk():
    """Acceptance: sabotage found within 50 iterations, shrunk to <= 8
    steps, and the shrunk schedule replays to the same violation."""
    generator = ScheduleGenerator(3, "mixed")
    failing = None
    outcome = None
    for index in range(50):
        schedule = generator.generate(index)
        outcome = run_schedule(schedule, sabotage=lossy_channel_sabotage)
        if outcome.classification == VIOLATION:
            failing = schedule
            break
    assert failing is not None, "sabotage went undetected for 50 iterations"

    def replay(candidate):
        return run_schedule(candidate, sabotage=lossy_channel_sabotage)

    result = shrink(failing, reproducer_for(outcome.invariant, replay))
    assert len(result.schedule.steps) <= 8
    final = replay(result.schedule)
    assert final.classification == VIOLATION
    assert final.invariant == outcome.invariant
