"""``python -m repro fuzz`` — the fuzz campaign driver.

Two modes:

* **generate** (default): derive ``--iters`` schedules from ``--seed``
  under ``--profile``, replay each on a checker-enabled cluster, print
  one deterministic line per iteration (classification + trace digest),
  shrink any failure and write repro artifacts to ``--out``;
* **replay** (``--replay PATH ...``): replay frozen schedule JSON files
  (or every ``*.json`` in a directory — e.g. the regression corpus) and
  report each outcome.  ``python -m repro run`` is the same replay with
  a choice of backend: the simulator, or real UDP sockets.

The process exit code is 0 iff every iteration/replay came back clean,
so the command slots directly into CI.  All output is derived from the
seeds — two runs with the same arguments print identical bytes.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict, List, Optional

from ..sim.process import SimRuntime
from .artifacts import write_artifact
from .generator import PROFILES, GeneratorConfig, ScheduleGenerator
from .runner import CLEAN, VIOLATION, FuzzOutcome, ScheduleRunner, run_schedule
from .schedule import Schedule
from .shrink import reproducer_for, shrink


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description="randomized fault-schedule fuzzing of the LWG stack",
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign root seed")
    parser.add_argument("--iters", type=int, default=20, help="schedules to run")
    parser.add_argument(
        "--profile", choices=PROFILES, default="mixed", help="step-mix profile"
    )
    parser.add_argument(
        "--processes", type=int, default=6, help="cluster size per schedule"
    )
    parser.add_argument("--groups", type=int, default=3, help="LWGs per schedule")
    parser.add_argument(
        "--name-servers", type=int, default=2, help="name servers per schedule"
    )
    parser.add_argument(
        "--replication-factor",
        type=int,
        default=0,
        help=(
            "replicas per naming shard (PROTOCOLS.md §18); "
            "0 = every server owns every shard"
        ),
    )
    parser.add_argument(
        "--max-steps", type=int, default=16, help="max schedule length"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("fuzz-artifacts"),
        help="directory for failure artifacts (JSON + pytest reproducer)",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="emit failing schedules unshrunk",
    )
    parser.add_argument(
        "--shrink-attempts",
        type=int,
        default=120,
        help="replay budget for the shrinker, per failure",
    )
    parser.add_argument(
        "--replay",
        nargs="+",
        type=Path,
        metavar="PATH",
        help="replay schedule JSON files / directories instead of generating",
    )
    parser.add_argument(
        "--expect-digests",
        type=Path,
        metavar="JSON",
        help=(
            "JSON map of schedule label (campaign) or file name (replay) to "
            "expected trace digest; any mismatch fails the run.  Pins replay "
            "determinism across refactors: a digest drift means observable "
            "behaviour changed."
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="print full schedules"
    )
    return parser


class _DigestExpectations:
    """Compare observed trace digests against a committed pin file.

    Keys absent from the pin file are ignored (new schedules may be added
    freely); a run that checks *zero* keys fails, because a pin file that
    matches nothing guards nothing.
    """

    def __init__(self, path: Path):
        self.expected: Dict[str, str] = json.loads(path.read_text(encoding="utf-8"))
        self.checked = 0
        self.mismatches: List[str] = []

    def check(self, key: str, digest: str) -> None:
        want = self.expected.get(key)
        if want is None:
            return
        self.checked += 1
        if digest != want:
            self.mismatches.append(f"{key}: expected {want}, got {digest}")

    def report(self) -> int:
        """Print the verdict; return the number of failures."""
        for line in self.mismatches:
            print(f"fuzz: digest mismatch — {line}")
        if self.checked == 0:
            print("fuzz: --expect-digests matched no schedules; nothing was pinned")
            return 1
        if not self.mismatches:
            print(f"fuzz: {self.checked} digest(s) match the pin file")
        return len(self.mismatches)


def _collect_replay_paths(paths: List[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.glob("*.json")))
        else:
            files.append(path)
    return files


def _run_on(
    schedule: Schedule, backend: str, trace: Optional[Path] = None
) -> FuzzOutcome:
    """Replay ``schedule`` on ``backend``; write its trace to ``trace``."""
    keep = trace is not None
    if backend == "sim":
        env = SimRuntime.create(seed=schedule.seed, keep_trace=keep)
        outcome = ScheduleRunner(schedule, env=env).run()
    else:
        from ..runtime.asyncio_backend import AsyncioRuntime

        with AsyncioRuntime.create(seed=schedule.seed, keep_trace=keep) as env:
            outcome = ScheduleRunner(schedule, env=env).run()
    if trace is not None:
        env.tracer.to_jsonl(trace)
    return outcome


def replay(
    paths: List[Path],
    verbose: bool = False,
    expectations: Optional[_DigestExpectations] = None,
    backend: str = "sim",
    trace: Optional[Path] = None,
) -> int:
    """Replay schedule files on ``backend``; 0 iff every outcome is clean.

    ``trace`` names a JSON Lines file for the trace of the one schedule.
    """
    files = _collect_replay_paths(paths)
    if not files:
        print("fuzz: no schedule files to replay")
        return 1
    if trace is not None and len(files) != 1:
        print(f"fuzz: a trace file needs exactly one schedule, got {len(files)}")
        return 1
    failures = 0
    for path in files:
        if not path.is_file():
            print(f"[replay] {path}: no such schedule file")
            failures += 1
            continue
        schedule = Schedule.from_json(path.read_text(encoding="utf-8"))
        if verbose:
            print(schedule.describe())
        outcome = _run_on(schedule, backend, trace)
        print(f"[replay] {path.name}: {outcome.summary()}")
        if expectations is not None:
            expectations.check(path.name, outcome.digest)
        if not outcome.is_clean:
            failures += 1
    print(
        f"fuzz replay: {len(files)} schedule(s), "
        f"{len(files) - failures} clean, {failures} failing"
    )
    if expectations is not None:
        failures += expectations.report()
    return 0 if failures == 0 else 1


def _handle_failure(
    schedule: Schedule,
    outcome,
    args: argparse.Namespace,
) -> None:
    """Shrink (unless disabled) and write artifacts for one failure."""
    final_schedule, final_outcome = schedule, outcome
    if outcome.classification == VIOLATION and not args.no_shrink:
        predicate = reproducer_for(outcome.invariant, run_schedule)
        result = shrink(schedule, predicate, max_attempts=args.shrink_attempts)
        final_schedule = result.schedule
        final_outcome = run_schedule(final_schedule)
        print(
            f"  shrunk {result.original_steps} -> {result.final_steps} steps "
            f"in {result.attempts} replays"
            + (" (budget exhausted)" if result.exhausted else "")
        )
    json_path, test_path = write_artifact(final_schedule, final_outcome, args.out)
    print(f"  artifact: {json_path}")
    print(f"  reproducer: {test_path}")
    for line in final_schedule.describe().splitlines():
        print(f"  | {line}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    expectations = (
        _DigestExpectations(args.expect_digests) if args.expect_digests else None
    )
    if args.replay:
        return replay(args.replay, args.verbose, expectations)

    config = GeneratorConfig(
        num_processes=args.processes,
        num_name_servers=args.name_servers,
        replication_factor=args.replication_factor,
        num_groups=args.groups,
        max_steps=args.max_steps,
    )
    generator = ScheduleGenerator(args.seed, profile=args.profile, config=config)
    counts = {CLEAN: 0, VIOLATION: 0, "non-convergence": 0}
    for index in range(args.iters):
        schedule = generator.generate(index)
        if args.verbose:
            print(schedule.describe())
        outcome = run_schedule(schedule)
        counts[outcome.classification] = counts.get(outcome.classification, 0) + 1
        print(
            f"[iter {index:03d}] {schedule.label} steps={len(schedule.steps)} "
            f"{outcome.summary()}"
        )
        if expectations is not None:
            expectations.check(schedule.label, outcome.digest)
        if not outcome.is_clean:
            _handle_failure(schedule, outcome, args)
    total = args.iters
    print(
        f"fuzz: {total} iteration(s) — {counts[CLEAN]} clean, "
        f"{counts[VIOLATION]} violation(s), "
        f"{counts['non-convergence']} non-convergence "
        f"(seed={args.seed}, profile={args.profile})"
    )
    digest_failures = expectations.report() if expectations is not None else 0
    return 0 if counts[CLEAN] == total and digest_failures == 0 else 1
