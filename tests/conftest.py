"""Shared fixtures for the test suite (helpers live in tests/helpers.py)."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.sim import SimRuntime

# Tier-1 must be reproducible run to run, so the default profile draws
# the same examples every time.  Random exploration is opt-in through
# the Hypothesis plugin's own ``--hypothesis-profile explore``.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore")
settings.load_profile("tier1")


@pytest.fixture
def env() -> SimRuntime:
    """A fresh deterministic simulation environment."""
    return SimRuntime.create(seed=42)
