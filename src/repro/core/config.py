"""Configuration of the light-weight group service.

The defaults mirror the paper's prototype: ``k_m = 4`` and ``k_c = 4``
(a LWG is mapped onto an HWG when their common members exceed 75% of the
HWG and the mapping stays until that drops to 25%), and heuristics run
"periodically with a relatively large period (in the prototype we ran
them once every minute)".  Simulated scenarios usually scale the policy
period down to keep runs short — the ratio between policy period and
protocol latencies is what matters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    #: An LWG is only movable once its view has been stable this long.
    #: Moving a group mid-join churns the member set of two HWGs at
    #: once and races the joiners' own HWG joins; waiting out the churn
    #: costs one extra evaluation and avoids the storm entirely.
    placement_settle_us: int = 5 * SECOND
    #: Master switches for the adaptive machinery (baselines turn them off).
    enable_policies: bool = True
    enable_reconciliation: bool = True
    #: An HWG membership with no local LWG mapped must persist this long
    #: before the shrink rule makes the process leave it.
    shrink_grace_us: int = 2 * SECOND
    #: Joiner timeouts: waiting for the LWG view after sending a join
    #: request, before re-reading the naming service and retrying.
    join_retry_us: int = 1 * SECOND
    #: How long the joiner waits for the LWG to show up on the mapped HWG
    #: before concluding the mapping is stale and (re)creating the LWG.
    join_claim_us: int = 2 * SECOND
    #: Switch protocol: how long the coordinator waits for every member
    #: to reach the target HWG before aborting the switch.
    switch_timeout_us: int = 5 * SECOND
    #: LWG coordinators re-announce their view on their HWG at this
    #: period.  This is the liveness backstop for local peer discovery
    #: (Section 6.3): Figure 5's trigger is DATA traffic, so two quiet
    #: concurrent views co-mapped on one HWG would otherwise never merge.
    announce_period_us: int = 2 * SECOND
    #: A non-coordinator member that hears nothing from its view's
    #: coordinator (no announce, no install, no data) for this long
    #: concludes the view was abandoned — the coordinator moved on via a
    #: racing switch or asymmetric partition-heal merge — and rejoins
    #: through the naming service.  The HWG cannot signal this case: the
    #: coordinator is alive and still an HWG member, it just no longer
    #: maps this LWG here.  Keep this a few announce periods long.
    coordinator_silence_us: int = 6 * SECOND
    #: Coordinators re-read the naming service at this period and
    #: re-register their mapping if the record is gone.  Replication
    #: normally outlives any single server failure, but a record written
    #: to one replica inside a partition can be destroyed (crash with a
    #: corrupted store) before anti-entropy spreads it — and a *missing*
    #: record raises no MULTIPLE-MAPPINGS callback, so only the
    #: authoritative writer can notice.  This audit is the self-healing
    #: backstop for that silent-loss case.
    mapping_audit_period_us: int = 4 * SECOND
    #: Default payload size assumed for user messages without one.
    default_payload_bytes: int = 256
    #: Data-path batching (PROTOCOLS.md §15): LWG DATA payloads bound for
    #: the same HWG are coalesced into one multicast.  A payload on an
    #: idle HWG leaves at the end of the instant it was sent in; one sent
    #: while an own publish is in flight on that HWG is held until the
    #: publish is delivered back, for at most this long.  Deliberately
    #: *not* scaled by :meth:`scaled` — it bounds data latency, not
    #: protocol timeouts.
    batch_window_us: int = 2_000
    #: Flush immediately once the buffered payload bytes reach this cap
    #: (keeps batches under transport datagram ceilings).
    batch_max_bytes: int = 16_384

    def __post_init__(self) -> None:
        if self.placement_policy not in ("paper", "optimizer"):
            raise ValueError(f"unknown placement_policy: {self.placement_policy!r}")

    def scaled(self, factor: float) -> "LwgConfig":
        """A copy with every timer multiplied by ``factor``."""
        return replace(
            self,
            policy_period_us=int(self.policy_period_us * factor),
            shrink_grace_us=int(self.shrink_grace_us * factor),
            join_retry_us=int(self.join_retry_us * factor),
            join_claim_us=int(self.join_claim_us * factor),
            switch_timeout_us=int(self.switch_timeout_us * factor),
            announce_period_us=int(self.announce_period_us * factor),
            coordinator_silence_us=int(self.coordinator_silence_us * factor),
            placement_settle_us=int(self.placement_settle_us * factor),
        )
