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
    server = cluster.name_servers["ns0"]
    recover = server.on_recover

    def forgetful_recover():
        server.incarnation = 0  # the sabotage: every life is the first
        recover()

    server.on_recover = forgetful_recover

    # First recovery reports 1 — above anything seen, so fine.
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
    stack = cluster.stack("p1")
    recover = stack.on_recover

    def forgetful_recover():
        stack.transport.incarnation = 0
        recover()

    stack.on_recover = forgetful_recover

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
# Sabotage: a database whose derived structures drift from its records
# ----------------------------------------------------------------------
def test_stale_merkle_tree_trips_database_integrity():
    cluster, _ = converged_cluster()
    server = cluster.name_servers["ns0"]
    key = next(iter(server.db.merkle.keys_under("")))
    server.db.merkle.remove(key)  # the tree forgets a stored record
    with pytest.raises(InvariantViolation, match="database integrity"):
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


# ----------------------------------------------------------------------
# No false positives: real recovery paths stay clean
# ----------------------------------------------------------------------
def test_healthy_blank_reboot_reports_no_violations():
    cluster, _ = converged_cluster()
    cluster.crash("ns0")
    cluster.run_for_seconds(1)
    cluster.recover("ns0")
    assert len(cluster.name_servers["ns0"].db) == 0  # a blank reboot
    # Leave ample time for the Merkle descent to re-reconcile ns0.
    cluster.run_for_seconds(20)
    cluster.check_invariants()
    assert cluster.checkers is not None
    assert cluster.checkers.violations == []
