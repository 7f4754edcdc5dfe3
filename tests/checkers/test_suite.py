"""CheckerSuite plumbing: dispatch, reporting modes, quiesce fan-out."""

import pytest

from repro.checkers import Checker, CheckerSuite, InvariantViolation
from repro.runtime.trace import Tracer


class BoomChecker(Checker):
    name = "boom"
    categories = ("boom",)

    def on_record(self, record):
        self.fail("always", f"saw {record.event}", record)


class CountingChecker(Checker):
    name = "counting"

    def __init__(self):
        super().__init__()
        self.seen = []
        self.quiesced = 0

    def on_record(self, record):
        self.seen.append((record.category, record.event))

    def at_quiesce(self, cluster):
        self.quiesced += 1


def rig(*checkers, raising=True):
    suite = CheckerSuite(raise_immediately=raising)
    for checker in checkers:
        suite.add(checker)
    tracer = Tracer(clock=lambda: 42)
    suite.attach(tracer)
    return suite, tracer


def test_violation_raises_at_the_emitting_event():
    suite, tracer = rig(BoomChecker())
    with pytest.raises(InvariantViolation) as excinfo:
        tracer.emit("boom", "anything")
    assert excinfo.value.invariant == "always"
    assert excinfo.value.time == 42
    assert suite.violations and suite.violations[0] is excinfo.value


def test_accumulate_mode_collects_without_raising():
    suite, tracer = rig(BoomChecker(), raising=False)
    tracer.emit("boom", "one")
    tracer.emit("boom", "two")
    assert len(suite.violations) == 2
    with pytest.raises(InvariantViolation):
        suite.assert_clean()
    assert "2 violation(s)" in suite.summary()


def test_clean_suite_passes_assert_clean():
    suite, _ = rig(CountingChecker())
    suite.assert_clean()
    assert suite.summary() == "checkers: clean"


def test_category_filter_and_wildcard_dispatch():
    boom, wildcard = BoomChecker(), CountingChecker()
    suite, tracer = rig(boom, wildcard, raising=False)
    tracer.emit("other", "ignored_by_boom")
    assert suite.violations == []  # category filter kept boom out
    assert wildcard.seen == [("other", "ignored_by_boom")]


def test_check_quiescent_visits_every_checker():
    first, second = CountingChecker(), CountingChecker()
    suite, _ = rig(first, second)
    suite.check_quiescent(cluster=None)
    assert first.quiesced == 1 and second.quiesced == 1


def test_standard_suite_registers_the_stock_monitors():
    suite = CheckerSuite.standard()
    names = {checker.name for checker in suite.checkers}
    assert names == {
        "view-agreement",
        "delivery",
        "lwg-agreement",
        "batch-accounting",
        "merge-round",
        "genealogy-gc",
        "naming-convergence",
        "lwg-convergence",
        "recovery-convergence",
    }
