"""Command-line entry point: bundled examples and the scenario fuzzer.

Usage::

    python -m repro                 # list examples
    python -m repro quickstart      # run one
    python -m repro fuzz --seed 7 --iters 50 --profile mixed
    python -m repro run --backend sim       # partition/heal demo, simulated
    python -m repro run --backend asyncio   # same demo over live UDP processes
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path
from typing import List, Optional

EXAMPLES = {
    "quickstart": "joins, HWG sharing, ordered delivery, crash handling",
    "trading_system": "Swiss-Exchange-style subject groups with failover",
    "collaboration": "CCTL-style document sessions with churn",
    "partition_healing": "the Figure-3 -> Table-4 reconciliation, narrated",
    "replicated_kv": "replicated KV store with state transfer and partitions",
}


def candidate_example_dirs(
    package_file: Optional[str] = None, prefix: Optional[str] = None
) -> List[Path]:
    """Places the bundled examples may live, most specific first.

    * ``<repo>/examples`` next to the ``src/`` tree — a source checkout;
    * ``repro/examples`` inside the package — a wheel shipping them as
      package data;
    * ``<prefix>/share/repro/examples`` — a wheel/sdist installing them
      as data files (what ``setup.py`` configures).
    """
    package_path = Path(package_file or __file__).resolve()
    base_prefix = Path(prefix or sys.prefix)
    return [
        package_path.parent.parent.parent / "examples",
        package_path.parent / "examples",
        base_prefix / "share" / "repro" / "examples",
    ]


def find_examples_dir(
    package_file: Optional[str] = None, prefix: Optional[str] = None
) -> Optional[Path]:
    """First candidate directory that actually holds the examples."""
    for candidate in candidate_example_dirs(package_file, prefix):
        if (candidate / "quickstart.py").is_file():
            return candidate
    return None


def _usage() -> None:
    print("usage: python -m repro <example>")
    print("       python -m repro fuzz [--seed N --iters K --profile P ...]")
    print("       python -m repro run [--backend sim|asyncio ...]")
    print("\navailable examples:")
    for name, blurb in EXAMPLES.items():
        print(f"  {name:18s} {blurb}")


def main(argv) -> int:
    if argv and argv[0] == "fuzz":
        from .fuzz.cli import main as fuzz_main

        return fuzz_main(argv[1:])
    if argv and argv[0] == "run":
        from .runtime.demo import main as demo_main

        return demo_main(argv[1:])
    if len(argv) != 1 or argv[0] not in EXAMPLES:
        _usage()
        return 0 if not argv else 1
    examples_dir = find_examples_dir()
    if examples_dir is None:
        searched = "\n  ".join(str(p) for p in candidate_example_dirs())
        print(
            "example scripts not found; searched:\n  " + searched, file=sys.stderr
        )
        return 1
    script = examples_dir / f"{argv[0]}.py"
    if not script.exists():
        print(f"example script not found: {script}", file=sys.stderr)
        return 1
    runpy.run_path(str(script), run_name="__main__")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
