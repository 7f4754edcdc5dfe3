"""The e2e benchmark times the program through the entry points named in
``benchmarks/e2e/e2e_layers.POINTS``, and silently skips a name that no
longer exists.  A refactor that renames a public one would zero a
per-layer column without failing anything, so pin them here.  The table
is only read: nothing is patched."""

import importlib
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


@pytest.fixture
def points(monkeypatch):
    monkeypatch.syspath_prepend(str(E2E))
    return importlib.import_module("e2e_layers").POINTS


def test_public_core_entry_points_still_exist(points):
    missing = []
    checked = 0
    for _layer, module_name, class_name, methods in points:
        if not module_name.startswith("repro.core."):
            continue
        owner = getattr(importlib.import_module(module_name), class_name)
        for method in methods:
            if method.startswith("_"):
                continue
            checked += 1
            # The tracer patches ``owner.__dict__``: inherited names miss.
            if not callable(owner.__dict__.get(method)):
                missing.append(f"{class_name}.{method}")
    assert checked, "POINTS lists no public repro.core entry point"
    assert missing == []
