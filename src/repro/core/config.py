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
    #: LWG→HWG placement strategy for the periodic re-evaluation:
    #: ``"paper"`` runs the Figure-1 share/interference rules verbatim;
    #: ``"optimizer"`` replaces them with the global placement optimizer
    #: (:mod:`repro.core.placement`).  The shrink rule runs under both.
    placement_policy: str = "paper"
    #: Optimizer knobs (ignored under ``"paper"``).  At most this many
    #: switches are emitted per evaluation — convergence spreads over
    #: policy periods instead of storming the switch protocol.
    placement_max_switches: int = 4
    #: Master switches for the adaptive machinery (baselines turn them off).
    enable_policies: bool = True
    enable_reconciliation: bool = True
    #: An HWG membership with no local LWG mapped must persist this long
    #: before the shrink rule makes the process leave it.
    shrink_grace_us: int = 2 * SECOND
    #: A non-coordinator member that hears nothing from its view's
    #: coordinator (no announce, no install, no data) for this long
    #: concludes the view was abandoned — the coordinator moved on via a
    #: racing switch or asymmetric partition-heal merge — and rejoins
    #: through the naming service.  The HWG cannot signal this case: the
    #: coordinator is alive and still an HWG member, it just no longer
    #: maps this LWG here.  Keep this a few announce periods
    #: (:data:`repro.core.service.ANNOUNCE_PERIOD_US`) long.
    coordinator_silence_us: int = 6 * SECOND

    def __post_init__(self) -> None:
        if self.placement_policy not in ("paper", "optimizer"):
            raise ValueError(f"unknown placement_policy: {self.placement_policy!r}")

