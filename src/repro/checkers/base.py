"""Infrastructure for online safety-invariant monitors.

Following the sanitizer / race-detector pattern, a :class:`CheckerSuite`
subscribes to the simulation's :class:`~repro.runtime.trace.Tracer` and fans
every record out to a set of :class:`Checker`\\ s, each encoding one of
the paper's safety properties.  The moment a run violates an invariant,
a structured :class:`InvariantViolation` is raised *inside* the event
that broke it — the traceback points at the guilty protocol step, not at
a failed assertion minutes later.

Checkers observe the system exclusively through trace events (which fire
even when record keeping is off, so soaks and benchmarks stay cheap) and
through the optional at-quiesce inspection hook, which may look at real
component state once a run has settled.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..runtime.trace import TraceRecord, Tracer


class InvariantViolation(AssertionError):
    """A checked safety property does not hold.

    Derives from AssertionError so pytest renders it as a test failure
    with full context rather than an infrastructure error.
    """

    def __init__(
        self,
        invariant: str,
        detail: str,
        time: Optional[int] = None,
        record: Optional[TraceRecord] = None,
    ):
        self.invariant = invariant
        self.detail = detail
        self.time = time
        self.record = record
        stamp = f"[{time}us] " if time is not None else ""
        super().__init__(f"{stamp}invariant '{invariant}' violated: {detail}")


class Checker:
    """Base class for one invariant monitor.

    Subclasses set ``categories`` to the trace categories they consume
    (empty means every record) and implement :meth:`on_record`; monitors
    of quiescent-state properties implement :meth:`at_quiesce` instead
    (or additionally), which receives the cluster once a scenario has
    settled.
    """

    name = "checker"
    categories: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.suite: Optional["CheckerSuite"] = None

    def on_record(self, record: TraceRecord) -> None:
        """Observe one trace record (online path)."""

    def at_quiesce(self, cluster) -> None:
        """Inspect settled component state (final-check path)."""

    def fail(
        self,
        invariant: str,
        detail: str,
        record: Optional[TraceRecord] = None,
    ) -> None:
        violation = InvariantViolation(
            invariant,
            detail,
            time=record.time if record is not None else None,
            record=record,
        )
        assert self.suite is not None
        self.suite.report(violation)


class CheckerSuite:
    """Owns a set of checkers and routes trace records to them.

    ``raise_immediately`` (the default) turns any violation into an
    exception at the emitting event; with it off, violations accumulate
    in :attr:`violations` for batch inspection (useful in checker tests
    and post-mortem tooling).
    """

    def __init__(self, raise_immediately: bool = True):
        self.raise_immediately = raise_immediately
        self.violations: List[InvariantViolation] = []
        self.checkers: List[Checker] = []
        self._wildcard: List[Checker] = []
        self._by_category: Dict[str, List[Checker]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def standard(cls, raise_immediately: bool = True) -> "CheckerSuite":
        """A suite with every stock checker registered."""
        from .lwg import (
            BatchAccountingChecker,
            LwgAgreementChecker,
            LwgConvergenceChecker,
            MergeRoundChecker,
        )
        from .naming import GenealogyGcChecker, NamingConvergenceChecker
        from .recovery import RecoveryConvergenceChecker
        from .vsync import DeliveryChecker, ViewAgreementChecker

        suite = cls(raise_immediately=raise_immediately)
        suite.add(ViewAgreementChecker())
        suite.add(DeliveryChecker())
        suite.add(LwgAgreementChecker())
        suite.add(BatchAccountingChecker())
        suite.add(MergeRoundChecker())
        suite.add(GenealogyGcChecker())
        suite.add(NamingConvergenceChecker())
        suite.add(LwgConvergenceChecker())
        suite.add(RecoveryConvergenceChecker())
        return suite

    def add(self, checker: Checker) -> Checker:
        checker.suite = self
        self.checkers.append(checker)
        if checker.categories:
            for category in checker.categories:
                self._by_category.setdefault(category, []).append(checker)
        else:
            self._wildcard.append(checker)
        return checker

    def attach(self, tracer: Tracer) -> "CheckerSuite":
        """Subscribe to ``tracer`` so every relevant record is checked.

        When every registered checker declares its categories, the suite
        subscribes only to their union — categories no checker watches
        stay on the tracer's no-listener fast path.  A single wildcard
        checker forces a wildcard subscription.
        """
        if self._wildcard or not self.checkers:
            tracer.subscribe(self.on_record)
        else:
            wanted = sorted(self._by_category)
            tracer.subscribe(self.on_record, categories=wanted)
        return self

    # ------------------------------------------------------------------
    # Record dispatch
    # ------------------------------------------------------------------
    def on_record(self, record: TraceRecord) -> None:
        for checker in self._wildcard:
            checker.on_record(record)
        for checker in self._by_category.get(record.category, ()):
            checker.on_record(record)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, violation: InvariantViolation) -> None:
        self.violations.append(violation)
        if self.raise_immediately:
            raise violation

    def check_quiescent(self, cluster) -> None:
        """Run every checker's at-quiesce inspection against ``cluster``."""
        for checker in self.checkers:
            checker.at_quiesce(cluster)

    def assert_clean(self) -> None:
        """Raise the first recorded violation, if any."""
        if self.violations:
            raise self.violations[0]

    def summary(self) -> str:
        if not self.violations:
            return "checkers: clean"
        lines = [f"checkers: {len(self.violations)} violation(s)"]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)
