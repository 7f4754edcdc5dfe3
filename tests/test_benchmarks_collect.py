"""The paper-shape suite (``benchmarks/bench_*.py``) must stay importable.

Tier-1 does not run those benches (CI's ``paper-shapes`` job does), but a
module there that stops importing would otherwise go unnoticed until
someone regenerates EXPERIMENTS.md.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_paper_shape_suite_collects():
    # The child sees `repro` wherever this process found it.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, sys.path)))
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "--collect-only", "-q",
            "-o", "addopts=", "-p", "no:cacheprovider",
            "benchmarks", "--ignore=benchmarks/e2e",
        ],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    collected = [line for line in result.stdout.splitlines() if "::" in line]
    assert len(collected) >= 31, result.stdout
