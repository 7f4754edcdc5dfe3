"""Configuration of the light-weight group service.

The defaults mirror the paper's prototype: ``k_m = 4`` and ``k_c = 4``
(a LWG is mapped onto an HWG when their common members exceed 75% of the
HWG and the mapping stays until that drops to 25%), and heuristics run
"periodically with a relatively large period (in the prototype we ran
them once every minute)".  Simulated scenarios usually scale the policy
period down to keep runs short — the ratio between policy period and
protocol latencies is what matters.

Only values some caller varies are fields here; every other LWG timer
or size is a constant of the one module that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.engine import SECOND


@dataclass
class LwgConfig:
    """Tunables of the LWG service (times in microseconds)."""

    # Figure-1 heuristic parameters.
    k_m: int = 4
    k_c: int = 4
    #: How often the mapping heuristics run at each process.
    policy_period_us: int = 60 * SECOND
    #: Master switches for the adaptive machinery (baselines turn them off).
    enable_policies: bool = True
    enable_reconciliation: bool = True
    #: An HWG membership with no local LWG mapped must persist this long
    #: before the shrink rule makes the process leave it.
    shrink_grace_us: int = 2 * SECOND

