"""Line-coverage census of ``src/`` as a stdlib-only pytest plugin.

Load it with ``-p tests.coverage_census``; it does nothing unless one
of its options is given::

    # write the per-module count of executable lines no test reached
    PYTHONPATH=src python -m pytest -q -p tests.coverage_census \\
        --census-out tests/coverage_ratchet.json

    # fail when any module has more unreached lines than the ratchet
    PYTHONPATH=src python -m pytest -q -p tests.coverage_census \\
        --census-check tests/coverage_ratchet.json

A module's executable lines are the line numbers its compiled code
objects map bytecode to (``co_lines``); reached lines are recorded with
``sys.settrace`` for frames whose code lives under ``src/`` (nothing in
the repository starts a thread).  Tracing makes tier-1 about four
times slower.  A module missing from the ratchet is held to zero
unreached lines.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
_PREFIX = str(SRC) + "/"


def pytest_addoption(parser):
    group = parser.getgroup("coverage census")
    group.addoption("--census-out", metavar="JSON", help="write unreached-line counts")
    group.addoption("--census-check", metavar="JSON", help="fail above these counts")


class _Census:
    def __init__(self) -> None:
        self.reached: Dict[str, Set[int]] = {}
        self.report: List[str] = []
        self._wanted: Dict[object, bool] = {}

    def _local(self, frame, event, arg):
        if event == "line":
            self.reached[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def _global(self, frame, event, arg):
        code = frame.f_code
        wanted = self._wanted.get(code)
        if wanted is None:
            wanted = self._wanted[code] = code.co_filename.startswith(_PREFIX)
        if not wanted:
            return None
        self.reached.setdefault(code.co_filename, set()).add(frame.f_lineno)
        return self._local

    def start(self) -> None:
        sys.settrace(self._global)

    def stop(self) -> None:
        sys.settrace(None)

    def unreached(self) -> Tuple[Dict[str, int], int]:
        """Unreached-line count per module, and all executable lines."""
        counts, executable = {}, 0
        for path in sorted(SRC.rglob("*.py")):
            lines = _executable_lines(path)
            executable += len(lines)
            missed = lines - self.reached.get(str(path), set())
            counts[str(path.relative_to(SRC.parent))] = len(missed)
        return counts, executable


def _executable_lines(path: Path) -> Set[int]:
    pending = [compile(path.read_text("utf-8"), str(path), "exec")]
    lines: Set[int] = set()
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        pending.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


_KEY = pytest.StashKey[_Census]()


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    # Before the conftests import ``repro``: module bodies count too.
    options = early_config.known_args_namespace
    if options.census_out or options.census_check:
        census = early_config.stash[_KEY] = _Census()
        census.start()


def pytest_sessionfinish(session, exitstatus):
    config = session.config
    census = config.stash.get(_KEY, None)
    if census is None:
        return
    census.stop()
    counts, executable = census.unreached()
    out = config.getoption("census_out")
    if out:
        Path(out).write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    ratchet_path = config.getoption("census_check")
    ratchet = json.loads(Path(ratchet_path).read_text()) if ratchet_path else counts
    risen = [
        f"{module}: {count} unreached lines (ratchet {ratchet.get(module, 0)})"
        for module, count in counts.items()
        if count > ratchet.get(module, 0)
    ]
    total, pinned = sum(counts.values()), sum(ratchet.values())
    census.report.append(
        f"coverage census: {executable - total} of {executable} executable src "
        f"lines reached; {total} unreached (ratchet {pinned})"
    )
    census.report.extend(risen)
    if risen:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, config):
    census = config.stash.get(_KEY, None)
    for line in census.report if census is not None else ():
        terminalreporter.write_line(line)
