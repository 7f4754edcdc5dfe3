#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--smoke] [--verify]
                                  [--repeat-check [N]] [--spans-out FILE]

Prints every metric by name with its unit, verifies the program's
outputs, and ends with the ``EXACT`` line (the columns that repeat bit
for bit at one seed) and, last on stdout, one JSON object (``correct`` /
``attempted`` / ``failed`` / ``metrics``).  Exits non-zero when a run is
incorrect.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SEED = 2000


def _pin_hash_seed() -> None:
    """Re-exec once with ``PYTHONHASHSEED=0``.

    The simulator is deterministic under any hash seed (the determinism
    test checks it); pinning the seed also pins set/dict iteration
    inside the interpreter, i.e. the CPU and memory columns' code path.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _benchmark_json() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def _parse(argv: List[str]) -> argparse.Namespace:
    from e2e_workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=float(_benchmark_json().get("run_seconds", 20)),
        help="nominal run length; fixes the slice count, never a wall-clock deadline",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="1: quarter-length traced run, per-layer metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="two slices, one set-up")
    parser.add_argument(
        "--verify", action="store_true",
        help="smoke-scale rerun under Cluster(checkers=True); fails on any violation",
    )
    parser.add_argument(
        "--repeat-check", nargs="?", type=int, const=5, default=0, metavar="N",
        help="two interleaved sets of N full runs; fails if they disagree beyond the bounds",
    )
    parser.add_argument(
        "--spans-out", metavar="FILE",
        help="with --workload and --trace: dump the first traced slice's spans as JSONL",
    )
    args = parser.parse_args(argv)
    if args.spans_out and not (args.workload and args.trace):
        parser.error("--spans-out needs --workload and --trace 1")
    return args


def _print_report(report) -> None:
    status = "ok" if report.correct else "INCORRECT"
    print(
        f"== {report.workload}  seed={report.seed} slices={report.slices} op={report.op}  "
        f"ops_attempted={report.attempted} ops_failed={report.failed}  [{status}]"
    )
    for name, (value, unit) in report.metrics.items():
        print(f"  {name:<48} {value:>16.4f} {unit}")
    for note in report.notes:
        print(f"  # {note}")
    for error in report.errors:
        print(f"  ! {error}")


def _run_one(args: argparse.Namespace) -> int:
    from e2e_measure import measure, measure_layers

    if args.verify:
        report = measure(args.workload, args.seed, args.seconds, smoke=True, checkers=True)
    elif args.trace:
        report = measure_layers(args.workload, args.seed, args.seconds, args.smoke, args.spans_out)
    else:
        report = measure(args.workload, args.seed, args.seconds, args.smoke)
    _print_report(report)
    # The columns that repeat bit for bit at one seed, for a sharper
    # comparison of two commits than the seed-to-seed bounds allow.
    print("EXACT " + json.dumps(report.exact))
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in report.metrics.items()
        },
    }))
    return 0 if report.correct else 1


def _child(workload: str, argv: List[str]) -> Tuple[int, List[str]]:
    """Run one workload in a fresh interpreter: (exit code, stdout lines)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, *argv],
        stdout=subprocess.PIPE, text=True, timeout=600, check=False,
    )
    return done.returncode, done.stdout.strip().splitlines()


def _run_all(argv: List[str]) -> int:
    """No ``--workload``: every workload in a process of its own.

    ``peak_rss_mb`` and the watchdog's memory cap read the process-wide
    high-water mark, so a workload must not inherit an earlier one's.
    """
    from e2e_workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, lines = _child(workload, argv)
        try:
            result = json.loads(lines[-1])
            metrics = result["metrics"].items()
        except (IndexError, ValueError, KeyError, TypeError, AttributeError):
            # The child died without a result line: show what it did print.
            print("\n".join(lines))
            print(f"== {workload}: no result (exit code {code})")
            merged["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        merged["correct"] = merged["correct"] and code == 0 and result["correct"] is True
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, entry in metrics:
            merged["metrics"][f"{workload}/{name}"] = entry
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


# ----------------------------------------------------------------------
# Repeatability gate
# ----------------------------------------------------------------------
#: Between two runs of one seed only these columns are measured; all the
#: others are simulated-time or counted, and must be identical.
SAME_SEED_TOLERANCE = {"setup_s": 0.10, "cpu_us_per_op": 0.10, "peak_rss_mb": 0.05}


def _one_run(workload: str, seed: int, seconds: float) -> Tuple[Dict[str, float], str]:
    """One full run in a fresh process: (metric values, its EXACT line)."""
    code, lines = _child(
        workload, ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    )
    if code != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit code {code}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect or failed ops: {lines[-1]}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}, lines[-2]


def _repeat_check(args: argparse.Namespace) -> int:
    """Two interleaved sets of N full runs per workload, seeds base..base+N-1.

    Within a set the seeds differ, as in the driver's acceptance test: the
    quartile distance of every metric but ``setup_s`` must stay within its
    BENCHMARK.json bound.  Between the sets the seeds are the same: the
    exact columns must be identical seed for seed, and the medians of the
    measured columns must agree within ``SAME_SEED_TOLERANCE``.
    """
    from e2e_harness import spread
    from e2e_workloads import WORKLOADS

    bounds = {m["name"]: m["bound"] for m in _benchmark_json().get("end_to_end", [])}
    names = [args.workload] if args.workload else list(WORKLOADS)
    count = args.repeat_check
    failures = 0
    print(f"repeat-check: 2 x {count} runs per workload, seeds {args.seed}..{args.seed + count - 1}, "
          f"--seconds {args.seconds:g}")
    for workload in names:
        sets: Tuple[List[Dict[str, float]], List[Dict[str, float]]] = ([], [])
        inexact = []
        for seed in range(args.seed, args.seed + count):
            first, exact_a = _one_run(workload, seed, args.seconds)
            second, exact_b = _one_run(workload, seed, args.seconds)
            sets[0].append(first)
            sets[1].append(second)
            if exact_a != exact_b or not exact_a.startswith("EXACT "):
                inexact.append(seed)
        print(f"== {workload}")
        print(f"  exact columns identical in {count - len(inexact)} of {count} seed pairs"
              + (f"  DIFFER at seeds {inexact}" if inexact else ""))
        failures += len(inexact)
        print(f"  {'metric':<20} {'set':>3} {'q1':>14} {'median':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for name, bound in bounds.items():
            medians = []
            for which in (0, 1):
                values = [run[name] for run in sets[which]]
                q1, middle, q3 = statistics.quantiles(values, n=4)
                share = spread(values)
                medians.append(middle)
                noisy = share > bound and name != "setup_s"
                failures += noisy
                print(f"  {name:<20} {'AB'[which]:>3} {q1:>14.4f} {middle:>14.4f} {q3:>14.4f} "
                      f"{share:>8.4f} {bound:>6.2f}  {'NOISY' if noisy else 'ok'}")
            tolerance = SAME_SEED_TOLERANCE.get(name, 0.0)
            drift = (medians[1] - medians[0]) / medians[0] if medians[0] else 0.0
            drifted = abs(drift) > tolerance
            failures += drifted
            print(f"  {name:<20} {'B/A':>3} {'':>14} {drift:>+14.4f} {'':>14} {'':>8} "
                  f"{tolerance:>6.2f}  {'DRIFT' if drifted else 'ok'}")
    print(f"repeat-check: {'FAILED' if failures else 'passed'} ({failures} violations)")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    _pin_hash_seed()
    sys.path.insert(0, str(HERE))
    try:
        import e2e_workloads  # noqa: F401 - imports the program under test
    except ImportError as error:
        print(f"run.py: cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.repeat_check:
        return _repeat_check(args)
    if args.workload:
        return _run_one(args)
    return _run_all(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
