"""Smoke tests: every bundled example must run to completion.

Examples are the library's living documentation — these tests keep them
from rotting.  Output is captured and a few key lines asserted.
"""

import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path


EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        runpy.run_path(str(EXAMPLES_DIR / f"{name}.py"), run_name="__main__")
    return buffer.getvalue()


def test_quickstart():
    output = run_example("quickstart")
    assert "both LWGs ride the same HWG" in output
    assert "Done." in output


def test_trading_system():
    output = run_example("trading_system")
    assert "24 user groups on" in output
    assert "heavy-weight" in output
    assert "Done." in output


def test_collaboration():
    output = run_example("collaboration")
    assert "every member saw the same edit order: True" in output
    assert "Done." in output


def test_partition_healing():
    output = run_example("partition_healing")
    assert "MULTIPLE-MAPPINGS callback" in output
    assert "switch to highest-gid HWG" in output
    assert "merged (one flush)" in output
    assert "delivered at 4/4 members" in output


def test_replicated_kv():
    output = run_example("replicated_kv")
    assert "received snapshot" in output
    assert "Done." in output
