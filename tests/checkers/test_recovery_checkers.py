"""Recovery-checker self-tests: broken recovery paths must trip monitors.

Same philosophy as test_broken_stack.py — each test sabotages one leg of
the crash-recovery machinery inside a live cluster and asserts that
:class:`~repro.checkers.recovery.RecoveryConvergenceChecker` catches it.
A checker that never fires against a deliberately broken implementation
proves nothing about the healthy one.
"""

import pytest

from repro.checkers import CheckerSuite, InvariantViolation
from repro.checkers.recovery import RecoveryConvergenceChecker
from repro.naming.persistence import inject_corruption
from repro.runtime.trace import TraceRecord
from repro.workloads import Cluster


def converged_cluster():
    cluster = Cluster(num_processes=3, seed=7, num_name_servers=2)
    handles = [cluster.service(i).join("room") for i in range(3)]
    cluster.run_for_seconds(10)
    assert all(handle.is_member for handle in handles)
    assert len({str(handle.view.view_id) for handle in handles}) == 1
    return cluster, handles


# ----------------------------------------------------------------------
# Sabotage: skipping the incarnation bump
# ----------------------------------------------------------------------
def test_skipped_incarnation_bump_trips_the_checker():
    """A server restarting without bumping is caught on its next life."""
    cluster, _ = converged_cluster()
    store = cluster.stores["ns0"]
    frozen = store.incarnation() + 1
    store.bump_incarnation = lambda at_least=0: frozen  # the sabotage

    # First recovery reports ``frozen`` — above anything seen, so fine.
    cluster.crash("ns0")
    cluster.run_for_seconds(1)
    cluster.recover("ns0")
    cluster.run_for_seconds(2)

    # Second recovery reports the *same* incarnation: its stale traffic
    # would be indistinguishable from the new life.  The checker raises
    # inside the recovery event itself.
    cluster.crash("ns0")
    cluster.run_for_seconds(1)
    with pytest.raises(InvariantViolation, match="incarnation bump"):
        cluster.recover("ns0")
        cluster.run_for_seconds(1)


def test_skipped_stack_incarnation_bump_trips_the_checker():
    """The same monotonicity contract binds process stacks."""
    cluster, _ = converged_cluster()
    store = cluster.stores["p1"]
    frozen = store.incarnation() + 1
    store.bump_incarnation = lambda at_least=0: frozen

    cluster.crash("p1")
    cluster.run_for_seconds(1)
    cluster.recover("p1")
    cluster.run_for_seconds(2)

    cluster.crash("p1")
    cluster.run_for_seconds(1)
    with pytest.raises(InvariantViolation, match="incarnation bump"):
        cluster.recover("p1")
        cluster.run_for_seconds(1)


# ----------------------------------------------------------------------
# Sabotage: a recovery path that never reloads the corrupted store
# ----------------------------------------------------------------------
def test_unreloaded_corruption_trips_at_quiesce():
    """Injected corruption nobody loads back tests nothing — and fails."""
    cluster, _ = converged_cluster()
    server = cluster.name_servers["ns0"]
    rng = cluster.env.rng.stream("test:corrupt")
    mode = "bit_flip"
    detail = inject_corruption(server.store, mode, rng, db=server.db)
    cluster.env.tracer.emit(
        "recovery", "store_corrupted", node="ns0", mode=mode, detail=detail
    )
    # Sabotage: the restart path forgets to reload the durable areas.
    server.on_recover = lambda: None
    cluster.crash("ns0")
    cluster.run_for_seconds(1)
    cluster.recover("ns0")
    cluster.run_for_seconds(5)
    with pytest.raises(InvariantViolation, match="corruption reloaded"):
        cluster.check_invariants()


# ----------------------------------------------------------------------
# Sabotage: persistence that silently drops journal writes
# ----------------------------------------------------------------------
def test_dropped_journal_writes_trip_durable_completeness():
    """A store whose log stops recording diverges from the live replica."""
    cluster, handles = converged_cluster()
    store = cluster.stores["ns0"]
    store._append = lambda entry: None  # journal goes deaf
    # Fresh naming traffic after the sabotage: a leave rewrites the
    # room's mapping, so the live database moves while the durable areas
    # stand still.
    handles[2].leave()
    cluster.run_for_seconds(8)
    with pytest.raises(InvariantViolation, match="durable completeness"):
        cluster.check_invariants()


# ----------------------------------------------------------------------
# Direct unit coverage of the online monitor (synthetic trace records)
# ----------------------------------------------------------------------
def _recovery_record(time, event, **fields):
    return TraceRecord(time=time, category="recovery", event=event, fields=fields)


def test_monitor_accepts_monotonic_incarnations():
    suite = CheckerSuite(raise_immediately=False)
    checker = suite.add(RecoveryConvergenceChecker())
    checker.on_record(_recovery_record(10, "server_recovered", server="ns0", incarnation=2))
    checker.on_record(_recovery_record(20, "stack_recovered", node="p1", incarnation=1))
    checker.on_record(_recovery_record(30, "server_recovered", server="ns0", incarnation=3))
    assert suite.violations == []


def test_monitor_flags_stale_incarnation():
    suite = CheckerSuite(raise_immediately=False)
    checker = suite.add(RecoveryConvergenceChecker())
    checker.on_record(_recovery_record(10, "server_recovered", server="ns0", incarnation=5))
    checker.on_record(_recovery_record(20, "server_recovered", server="ns0", incarnation=5))
    assert len(suite.violations) == 1
    assert suite.violations[0].invariant == "incarnation bump"


def test_monitor_clears_pending_corruption_on_reload():
    suite = CheckerSuite(raise_immediately=False)
    checker = suite.add(RecoveryConvergenceChecker())
    checker.on_record(_recovery_record(10, "store_corrupted", node="ns0", mode="bit_flip"))
    assert checker._pending_corruption
    checker.on_record(_recovery_record(20, "server_recovered", server="ns0", incarnation=1))
    assert not checker._pending_corruption


# ----------------------------------------------------------------------
# No false positives: real recovery paths stay clean
# ----------------------------------------------------------------------
def test_healthy_corruption_recovery_reports_no_violations():
    cluster, handles = converged_cluster()
    server = cluster.name_servers["ns0"]
    rng = cluster.env.rng.stream("test:corrupt")
    detail = inject_corruption(server.store, "truncated_log", rng, db=server.db)
    cluster.env.tracer.emit(
        "recovery", "store_corrupted", node="ns0", mode="truncated_log",
        detail=detail,
    )
    cluster.crash("ns0")
    cluster.run_for_seconds(1)
    cluster.recover("ns0")
    # Leave ample time for the Merkle descent to re-reconcile ns0.
    cluster.run_for_seconds(20)
    cluster.check_invariants()
    assert cluster.checkers is not None
    assert cluster.checkers.violations == []
