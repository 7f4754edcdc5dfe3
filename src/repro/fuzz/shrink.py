"""Delta-debugging shrinker for violating schedules.

Given a schedule whose replay trips an invariant, :func:`shrink` finds a
smaller schedule that still trips the *same* invariant, by:

1. **ddmin step removal** — try deleting chunks of the step list,
   halving the chunk size each round until single steps, keeping every
   deletion that still reproduces.  Step validity is never a concern:
   the runner's guards turn any now-meaningless step into a no-op.
2. **step simplification** — for each surviving step, try cheaper
   variants in order: a burst of one message instead of many, a two-way
   split instead of a multi-way one, the minimum inter-step delay.

Every candidate is checked by *fully replaying it from its seed* — the
only oracle that matters — so the result is a standalone minimal
reproducer, not a heuristic guess.  The replay count is bounded by
``max_attempts``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from ..sim.engine import MS
from .schedule import Schedule, Step

#: Predicate: does this candidate schedule still reproduce the failure?
Reproduces = Callable[[Schedule], bool]

_MIN_DELAY_US = 400 * MS


@dataclass
class ShrinkResult:
    """Outcome of a shrink session."""

    schedule: Schedule
    original_steps: int
    attempts: int
    exhausted: bool = False  # hit the attempt budget before a fixpoint

    @property
    def final_steps(self) -> int:
        return len(self.schedule.steps)


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def take(self) -> bool:
        if self.used >= self.limit:
            return False
        self.used += 1
        return True


def _simplified_variants(step: Step) -> List[Step]:
    """Cheaper variants of one step, most aggressive first."""
    variants: List[Step] = []
    if step.kind == "burst" and step.count > 1:
        variants.append(
            Step(kind="burst", node=step.node, group=step.group, count=1,
                 delay_us=step.delay_us)
        )
    if step.kind == "partition" and len(step.blocks) > 2:
        merged = tuple(
            node for block in step.blocks[1:] for node in block
        )
        variants.append(
            Step(kind="partition", blocks=(step.blocks[0], merged),
                 delay_us=step.delay_us)
        )
    if step.delay_us > _MIN_DELAY_US:
        base = variants[0] if variants else step
        variants.append(
            Step(kind=base.kind, node=base.node, group=base.group,
                 blocks=base.blocks, count=base.count, delay_us=_MIN_DELAY_US)
        )
    return variants


def shrink(
    schedule: Schedule,
    reproduces: Reproduces,
    max_attempts: int = 120,
) -> ShrinkResult:
    """Minimize ``schedule`` while ``reproduces`` stays true.

    ``reproduces`` must replay its argument from scratch and return True
    iff the original failure (same invariant) fires again.  The input
    schedule is assumed to reproduce; the result always does.
    """
    budget = _Budget(max_attempts)
    current = list(schedule.steps)

    # Phase 1: ddmin chunk removal.
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        removed_any = True
        while removed_any and len(current) > 0:
            removed_any = False
            start = 0
            while start < len(current):
                candidate = current[:start] + current[start + chunk:]
                if not budget.take():
                    return ShrinkResult(
                        schedule.replace_steps(current),
                        original_steps=len(schedule.steps),
                        attempts=budget.used,
                        exhausted=True,
                    )
                if reproduces(schedule.replace_steps(candidate)):
                    current = candidate
                    removed_any = True
                    # Re-test the same start index against the shorter list.
                else:
                    start += chunk
        if chunk == 1:
            break
        chunk = max(1, chunk // 2)

    # Phase 2: per-step simplification, to a fixpoint per step (a burst
    # first drops to one message, then to the minimum delay).
    index = 0
    while index < len(current):
        improved = True
        while improved:
            improved = False
            for variant in _simplified_variants(current[index]):
                candidate = current[:index] + [variant] + current[index + 1:]
                if not budget.take():
                    return ShrinkResult(
                        schedule.replace_steps(current),
                        original_steps=len(schedule.steps),
                        attempts=budget.used,
                        exhausted=True,
                    )
                if reproduces(schedule.replace_steps(candidate)):
                    current = candidate
                    improved = True
                    break
        index += 1

    return ShrinkResult(
        schedule.replace_steps(current),
        original_steps=len(schedule.steps),
        attempts=budget.used,
    )


def reproducer_for(
    invariant: str,
    run: Callable[[Schedule], "object"],
) -> Reproduces:
    """Build a :data:`Reproduces` predicate matching one invariant.

    ``run`` replays a schedule and returns a
    :class:`~repro.fuzz.runner.FuzzOutcome`; the predicate holds when the
    replay is classified as a violation of the same ``invariant``.
    """

    def predicate(candidate: Schedule) -> bool:
        outcome = run(candidate)
        return (
            getattr(outcome, "classification", "") == "violation"
            and getattr(outcome, "invariant", "") == invariant
        )

    return predicate
