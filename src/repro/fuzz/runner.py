"""Replay a :class:`~repro.fuzz.schedule.Schedule` on a checker-enabled cluster.

The runner is the deterministic heart of the fuzzer: given the same
schedule (and the same code), it produces the same
:class:`FuzzOutcome` — including the SHA-256 digest of the full trace
stream — every single time.  Three outcomes are possible:

* ``clean`` — the schedule ran, the network healed, every group
  converged on its expected membership, and the at-quiesce invariant
  checks passed;
* ``violation`` — an online or at-quiesce invariant checker raised
  :class:`~repro.checkers.InvariantViolation` (the outcome records which
  invariant, at which step);
* ``non-convergence`` — no invariant fired, but the system failed to
  reach the expected quiescent state within the schedule's simulated
  timeout budget.

The runner is the repo's only fault-script engine: the soak and churn
tests, the churn bench and the fuzz campaigns all replay a
:class:`~repro.fuzz.schedule.Schedule` here.  Validity guards make a
``join`` by an existing member, a ``crash`` of a crashed node and so on
deterministic no-ops, so the shrinker can delete steps freely, and a
caller can filter a schedule's steps by kind, without ever producing an
ill-formed run.

The runner touches its backend only through :class:`Cluster` and the
runtime's clock, RNG registry and tracer, so the same schedule also
replays over real UDP sockets: pass an
:class:`~repro.runtime.asyncio_backend.AsyncioRuntime` as ``env``.
There every delay and the quiesce budget are wall time, and the trace
digest is no longer reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from ..checkers import InvariantViolation
from ..core.ids import lwg_id
from ..runtime.interfaces import Runtime
from ..sim.engine import MS, SECOND
from ..workloads.cluster import Cluster
from ..workloads.scenarios import _scaled_lwg_config
from .schedule import Schedule, Step

#: Called once the initial membership has settled; used by the checker
#: self-tests to sabotage a live component before the fault schedule runs.
Sabotage = Callable[[Cluster], None]

#: Never crash below this many live processes.
MIN_ALIVE = 2

#: Downtime for crash_recover steps that don't specify one.
DEFAULT_DOWN_US = 300 * MS

CLEAN = "clean"
VIOLATION = "violation"
NON_CONVERGENCE = "non-convergence"


@dataclass
class FuzzOutcome:
    """Classification of one schedule replay."""

    classification: str
    detail: str = ""
    #: Name of the violated invariant ("" unless classification=violation).
    invariant: str = ""
    #: Index of the step being applied when the violation fired (-1 if it
    #: fired during settle/quiesce or there was no violation).
    step_index: int = -1
    #: SHA-256 (hex, truncated) over the full trace event stream.
    digest: str = ""
    steps_applied: int = 0
    sim_time_us: int = 0
    #: Simulated time from the end of the last step to quiescence (0
    #: unless the run converged).
    quiesce_us: int = 0

    @property
    def is_clean(self) -> bool:
        return self.classification == CLEAN

    def summary(self) -> str:
        extra = ""
        if self.classification == VIOLATION:
            extra = f" invariant={self.invariant!r} at step {self.step_index}"
        elif self.classification == NON_CONVERGENCE:
            extra = f" ({self.detail})"
        return (
            f"outcome={self.classification} digest={self.digest} "
            f"sim={self.sim_time_us / SECOND:.1f}s{extra}"
        )


class _TraceDigest:
    """Rolling hash over every trace record's canonical rendering."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.records = 0

    def on_record(self, record) -> None:
        self._hash.update(str(record).encode("utf-8", "replace"))
        self._hash.update(b"\n")
        self.records += 1

    def hexdigest(self, length: int = 16) -> str:
        return self._hash.hexdigest()[:length]


class ScheduleRunner:
    """Applies one schedule and classifies the result.

    A runner is single-use: construct, :meth:`run`, inspect.  The
    cluster is exposed (:attr:`cluster`) so tests can poke at component
    state after a run.  ``env`` is the runtime the cluster runs on (a
    fresh simulation seeded from the schedule by default); a caller
    passing one seeds it with ``schedule.seed``.
    """

    def __init__(
        self,
        schedule: Schedule,
        sabotage: Optional[Sabotage] = None,
        env: Optional[Runtime] = None,
    ):
        self.schedule = schedule
        self.sabotage = sabotage
        self.digest = _TraceDigest()
        self.cluster = Cluster(
            num_processes=schedule.num_processes,
            seed=schedule.seed,
            num_name_servers=schedule.num_name_servers,
            lwg_config=_scaled_lwg_config(),
            keep_trace=False,
            env=env,
        )
        self.cluster.env.tracer.subscribe(self.digest.on_record)
        #: group -> membership the system should converge to.
        self.expected: Dict[str, Set[str]] = {g: set() for g in schedule.groups}
        self.crashed: Set[str] = set()
        self.partitioned = False
        self.steps_applied = 0
        self.quiesce_us = 0

    # ------------------------------------------------------------------
    # Step application (validity-guarded, deterministic no-ops)
    # ------------------------------------------------------------------
    def _apply(self, step: Step) -> None:
        kind = step.kind
        if kind == "join":
            self._join(step.node, step.group)
        elif kind == "leave":
            self._leave(step.node, step.group)
        elif kind == "crash":
            self._crash(step.node)
        elif kind == "recover":
            self._recover(step.node)
        elif kind == "partition":
            self._partition(step.blocks)
        elif kind == "heal":
            self._heal()
        elif kind == "burst":
            self._burst(step.node, step.group, step.count)
        elif kind == "crash_recover":
            self._crash_recover(step.node, step.down_us)
        # "settle" applies nothing; the post-step delay does the work.

    def _join(self, node: str, group: str) -> None:
        if group not in self.expected:
            return
        if node in self.crashed or node in self.expected[group]:
            return
        if node not in self.cluster.services:
            return
        self.cluster.services[node].join(group)
        self.expected[group].add(node)

    def _leave(self, node: str, group: str) -> None:
        if group not in self.expected:
            return
        if node in self.crashed or node not in self.expected[group]:
            return
        self.cluster.services[node].leave(group)
        self.expected[group].discard(node)

    def _crash(self, node: str) -> None:
        if node not in self.cluster.stacks or node in self.crashed:
            return
        if len(self.cluster.process_ids) - len(self.crashed) <= MIN_ALIVE:
            return
        self.cluster.crash(node)
        self.crashed.add(node)
        for members in self.expected.values():
            members.discard(node)

    def _recover(self, node: str) -> None:
        if node not in self.crashed:
            return
        self.cluster.recover(node)
        self.crashed.discard(node)
        # A recovered process restarts with a clean slate; it joins
        # nothing until the schedule says so.

    def _crash_recover(self, node: str, down_us: int) -> None:
        """Atomic crash + downtime + restart.

        Atomicity keeps the step shrinker-safe: deleting any *other*
        step can never leave the node permanently down, and the restart
        always exercises the recovery path (an incarnation bump for
        both, and for a name server an empty database that anti-entropy
        refills).
        """
        down = down_us or DEFAULT_DOWN_US
        if node in self.cluster.name_servers:
            self.cluster.crash(node)
            self.cluster.run_for(down)
            self.cluster.recover(node)
            return
        if node not in self.cluster.stacks or node in self.crashed:
            return
        if len(self.cluster.process_ids) - len(self.crashed) <= MIN_ALIVE:
            return
        self.cluster.crash(node)
        # The restarted process comes back with a clean slate and joins
        # nothing until the schedule says so (same contract as recover).
        for members in self.expected.values():
            members.discard(node)
        self.cluster.run_for(down)
        self.cluster.recover(node)

    def _partition(self, blocks: Tuple[Tuple[str, ...], ...]) -> None:
        known = set(self.cluster.process_ids) | set(self.cluster.name_server_ids)
        filtered = [
            [node for node in block if node in known] for block in blocks
        ]
        filtered = [block for block in filtered if block]
        if len(filtered) < 2:
            return
        self.cluster.partition(*filtered)
        self.partitioned = True

    def _heal(self) -> None:
        if not self.partitioned:
            return
        self.cluster.heal()
        self.partitioned = False

    def _burst(self, node: str, group: str, count: int) -> None:
        if group not in self.expected:
            return
        if node in self.crashed or node not in self.expected[group]:
            return
        service = self.cluster.services[node]
        for seq in range(count):
            service.send(group, f"fuzz:{node}:{seq}")

    # ------------------------------------------------------------------
    # Quiescence
    # ------------------------------------------------------------------
    def quiesced(self) -> Tuple[bool, str]:
        for group, members in self.expected.items():
            if not members:
                continue
            views = []
            for node in sorted(members):
                local = self.cluster.services[node].table.local(lwg_id(group))
                if local is None or not local.is_member or local.view is None:
                    return False, f"{group}: {node} not a member"
                views.append((node, local.view, local.hwg))
            ids = {view.view_id for _, view, _ in views}
            if len(ids) != 1:
                return False, (
                    f"{group}: divergent views "
                    f"{[(n, str(v.view_id)) for n, v, _ in views]}"
                )
            if set(views[0][1].members) != members:
                return False, (
                    f"{group}: members {views[0][1].members} != {sorted(members)}"
                )
            if len({hwg for _, _, hwg in views}) != 1:
                return False, f"{group}: divergent hwg mappings"
        return True, "ok"

    # ------------------------------------------------------------------
    # The run itself
    # ------------------------------------------------------------------
    def run(self) -> FuzzOutcome:
        schedule = self.schedule
        try:
            # Initial membership, then settle.
            for group, members in sorted(schedule.initial_members.items()):
                for node in members:
                    self._join(node, group)
            self.cluster.run_for(schedule.settle_us)
            if self.sabotage is not None:
                self.sabotage(self.cluster)
            # The fault schedule.
            for index, step in enumerate(schedule.steps):
                self._current_step = index
                self._apply(step)
                self.cluster.run_for(step.delay_us)
                self.steps_applied = index + 1
            self._current_step = -1
            # End state: healed network, recovered nodes stay down (their
            # membership expectations were already dropped at crash time).
            self._heal()
            churn_end = self.cluster.env.now
            converged = self.cluster.run_until(
                lambda: self.quiesced()[0], timeout_us=schedule.quiesce_timeout_us
            )
            self._raise_recorded_violation()
            if not converged:
                _, detail = self.quiesced()
                return self._outcome(NON_CONVERGENCE, detail=detail)
            self.quiesce_us = self.cluster.env.now - churn_end
            # Settle the naming anti-entropy tail, then final checks.
            self.cluster.run_for_seconds(5)
            self.cluster.check_invariants()
            self._raise_recorded_violation()
        except InvariantViolation as violation:
            return self._outcome(
                VIOLATION,
                detail=str(violation),
                invariant=violation.invariant,
                step_index=getattr(self, "_current_step", -1),
            )
        return self._outcome(CLEAN)

    def _raise_recorded_violation(self) -> None:
        """Raise the first violation the checkers recorded, if any.

        The simulator raises a violation at the guilty event, aborting
        the run.  asyncio's event loop only logs an exception raised in a
        timer or socket callback, so over real sockets the suite's record
        is the only witness.
        """
        if self.cluster.checkers is not None:
            self.cluster.checkers.assert_clean()

    def _outcome(
        self,
        classification: str,
        detail: str = "",
        invariant: str = "",
        step_index: int = -1,
    ) -> FuzzOutcome:
        return FuzzOutcome(
            classification=classification,
            detail=detail,
            invariant=invariant,
            step_index=step_index,
            digest=self.digest.hexdigest(),
            steps_applied=self.steps_applied,
            sim_time_us=self.cluster.env.now,
            quiesce_us=self.quiesce_us,
        )


def run_schedule(
    schedule: Schedule, sabotage: Optional[Sabotage] = None
) -> FuzzOutcome:
    """Replay ``schedule`` from scratch and classify the outcome."""
    return ScheduleRunner(schedule, sabotage=sabotage).run()
