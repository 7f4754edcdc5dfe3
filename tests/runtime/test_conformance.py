"""Cross-backend conformance: same schedule, same checkers, same view history.

The bundled ``examples/split_merge.json`` schedule (two processes join
an LWG, a partition splits them into concurrent views, the heal merges
them, then one leaves) replays on the deterministic simulator and on the real-time
asyncio backend (real UDP sockets on localhost, wall-clock timers).
Both replays run the full checker suite and must classify clean, and
the *shape* of the LWG view history — per node, the ordered sequence of
distinct membership sets — must match: membership logic lives entirely
above the runtime interfaces, so only timing may differ between
backends.
"""

from typing import Dict, FrozenSet, List, Optional

import pytest

from repro.__main__ import find_examples_dir
from repro.fuzz import VIOLATION, Schedule, ScheduleRunner
from repro.fuzz.schedule import Step
from repro.runtime.asyncio_backend import AsyncioRuntime
from repro.runtime.interfaces import Runtime
from repro.runtime.trace import TraceRecord

Shape = Dict[str, List[FrozenSet[str]]]


def replay_shape(schedule: Schedule, env: Optional[Runtime] = None):
    """Replay ``schedule``; return its outcome, view-history shape and runner.

    Consecutive duplicate member sets collapse: identity view changes
    (merges, refreshes that keep membership) are timing artefacts, not
    shape.
    """
    runner = ScheduleRunner(schedule, env=env)
    shapes: Shape = {}

    def on_record(record: TraceRecord) -> None:
        if record.event != "lwg_view_installed":
            return
        history = shapes.setdefault(record.fields["node"], [])
        members = frozenset(record.fields["members"])
        if not history or history[-1] != members:
            history.append(members)

    runner.cluster.env.tracer.subscribe(on_record, categories=("lwg",))
    return runner.run(), shapes, runner


def test_sim_and_asyncio_backends_agree_on_view_history():
    path = find_examples_dir() / "split_merge.json"
    schedule = Schedule.from_json(path.read_text(encoding="utf-8"))
    sim_outcome, sim_shape, sim_runner = replay_shape(schedule)

    with AsyncioRuntime.create(seed=schedule.seed, keep_trace=False) as env:
        rt_outcome, rt_shape, rt_runner = replay_shape(schedule, env=env)

    assert sim_outcome.is_clean, sim_outcome.detail
    assert rt_outcome.is_clean, rt_outcome.detail
    assert sim_runner.cluster.checkers.violations == []
    assert rt_runner.cluster.checkers.violations == []
    # p0 founds the group and p1 joins it; the partition leaves each in a
    # singleton view, the heal merges them back and p1's leave shrinks
    # p0's view to itself.
    p0, p1, both = frozenset({"p0"}), frozenset({"p1"}), frozenset({"p0", "p1"})
    expected = {"p0": [p0, both, p0, both, p0], "p1": [both, p1, both]}
    assert sim_shape == expected
    assert rt_shape == expected
    # One failure feed serves both backends.
    assert type(sim_runner.cluster.env.failures) is type(env.failures)


def _emit_foreign_view(cluster) -> None:
    """Sabotage: p0 installs an HWG view it is not a member of."""
    cluster.env.scheduler.schedule(
        0,
        lambda: cluster.env.tracer.emit(
            "hwg", "view_installed",
            node="p0", group="hwg:x", view="p1#1", members=["p1"],
        ),
    )


@pytest.mark.parametrize("backend", ["sim", "asyncio"])
def test_violation_in_a_runtime_callback_classifies_the_run(backend):
    """A violation raised from a timer callback fails the replay.

    asyncio's loop only logs a callback's exception, so the runner must
    read the checkers' record to see it on that backend.
    """
    schedule = Schedule(
        seed=1, num_processes=1, num_name_servers=1, groups=(),
        settle_us=100_000, quiesce_timeout_us=100_000,
        steps=[Step(kind="heal", delay_us=100_000)],
    )
    if backend == "sim":
        outcome = ScheduleRunner(schedule, sabotage=_emit_foreign_view).run()
    else:
        with AsyncioRuntime.create(seed=1, keep_trace=False) as env:
            outcome = ScheduleRunner(
                schedule, sabotage=_emit_foreign_view, env=env
            ).run()
    assert outcome.classification == VIOLATION
    assert outcome.invariant == "self-inclusion"
