"""Determinism self-test of the e2e benchmark.

    python -m pytest benchmarks/e2e

Each workload runs at ``--smoke`` scale twice in this process and once
each in fresh interpreters with ``PYTHONHASHSEED=0`` and ``=1``.  Every
exact column — op counts, wire messages and bytes, simulated-time
latencies, the per-layer call counts of the traced run — must be
bit-identical across the four runs, and a second seed must change them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from e2e_measure import END_TO_END, measure, measure_layers, per_layer_catalogue  # noqa: E402
from e2e_workloads import WORKLOADS  # noqa: E402

SEED = 2000

_CHILD = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); "
    "from test_determinism import exact_columns; "
    "print(json.dumps(exact_columns(sys.argv[2], int(sys.argv[3]))))"
)


def exact_columns(workload: str, seed: int) -> dict:
    """The exact columns of an untraced and a traced smoke run."""
    plain = measure(workload, seed, seconds=1, smoke=True)
    layered = measure_layers(workload, seed, seconds=1, smoke=True)
    assert plain.correct, plain.errors
    assert layered.correct, layered.errors
    assert plain.failed == 0 and layered.failed == 0
    columns = {f"e2e.{name}": value for name, value in plain.exact.items()}
    columns.update({f"trace.{name}": value for name, value in layered.exact.items()})
    return columns


def _in_fresh_interpreter(workload: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(HERE), workload, str(seed)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_exact_columns_repeat(workload: str) -> None:
    first = exact_columns(workload, SEED)
    second = exact_columns(workload, SEED)
    assert first == second, "two runs in one process disagree"
    # JSON round-trip so in-process and child values compare like for like.
    reference = json.loads(json.dumps(first))
    for hash_seed in ("0", "1"):
        child = _in_fresh_interpreter(workload, SEED, hash_seed)
        assert child == reference, f"PYTHONHASHSEED={hash_seed} changed an exact column"
    other = measure(workload, SEED + 1, seconds=1, smoke=True)
    assert other.correct and other.exact != {
        name[len("e2e."):]: value for name, value in first.items() if name.startswith("e2e.")
    }, "a second seed did not change the exact columns"


def test_benchmark_json_lists_what_run_py_prints() -> None:
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == per_layer_catalogue()
