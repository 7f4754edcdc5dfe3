"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures and
prints it in paper shape (rows = parameter points, columns = service
flavours).  Absolute numbers come from the simulator's cost model, not
the authors' 1996 testbed — the assertions check the *shape*: who wins,
by roughly what factor, and how curves grow with n.

Run with (``benchmarks/e2e`` is the ledger, a separate surface — see
docs/PERFORMANCE.md §Measuring)::

    pytest benchmarks/ --ignore=benchmarks/e2e --benchmark-only -s
"""

from __future__ import annotations

FLAVOURS = ("none", "static", "dynamic")

#: The group-count axis of Figure 2 (the paper sweeps the number of
#: groups per set; we use powers of two up to 8 to keep runs quick).
FIGURE2_NS = (1, 2, 4, 8)

SEED = 2000  # fixed seed: benchmarks are deterministic re-runs
