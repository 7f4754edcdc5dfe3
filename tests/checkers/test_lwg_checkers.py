"""Unit tests for the LWG-layer checkers: view agreement, merge-round
exclusion, and the at-quiesce convergence monitor (on a fake cluster)."""

import pytest

from repro.checkers import (
    CheckerSuite,
    InvariantViolation,
    LwgAgreementChecker,
    LwgConvergenceChecker,
    MergeRoundChecker,
)
from repro.core.mapping_table import LwgState, MappingTable
from repro.runtime.trace import Tracer
from repro.vsync.view import View, ViewId


def rig(checker):
    suite = CheckerSuite()
    suite.add(checker)
    tracer = Tracer(clock=lambda: 0)
    suite.attach(tracer)
    return tracer


def lwg_install(tracer, node, view, members, lwg="lwg:a"):
    tracer.emit(
        "lwg", "lwg_view_installed",
        node=node, lwg=lwg, view=view, members=list(members),
        hwg="hwg:x", reason="test",
    )


# ----------------------------------------------------------------------
# LwgAgreementChecker
# ----------------------------------------------------------------------
def test_lwg_views_must_agree_on_membership():
    tracer = rig(LwgAgreementChecker())
    lwg_install(tracer, "p0", "p0#1", ["p0", "p1"])
    with pytest.raises(InvariantViolation, match="LWG view agreement"):
        lwg_install(tracer, "p1", "p0#1", ["p1"])


def test_lwg_installer_must_be_a_member():
    tracer = rig(LwgAgreementChecker())
    with pytest.raises(InvariantViolation, match="LWG self-inclusion"):
        lwg_install(tracer, "p2", "p0#1", ["p0", "p1"])


def test_delivery_outside_the_view_membership_fails():
    tracer = rig(LwgAgreementChecker())
    lwg_install(tracer, "p0", "p0#1", ["p0", "p1"])
    tracer.emit("lwg", "lwg_data_delivered",
                node="p0", lwg="lwg:a", view="p0#1", sender="p1")
    with pytest.raises(InvariantViolation, match="member-only delivery"):
        tracer.emit("lwg", "lwg_data_delivered",
                    node="p2", lwg="lwg:a", view="p0#1", sender="p1")


def test_delivery_from_a_non_member_sender_fails():
    tracer = rig(LwgAgreementChecker())
    lwg_install(tracer, "p0", "p0#1", ["p0", "p1"])
    with pytest.raises(InvariantViolation, match="member-only delivery"):
        tracer.emit("lwg", "lwg_data_delivered",
                    node="p0", lwg="lwg:a", view="p0#1", sender="p9")


def test_delivery_in_an_unseen_view_is_not_judged():
    tracer = rig(LwgAgreementChecker())
    tracer.emit("lwg", "lwg_data_delivered",
                node="p0", lwg="lwg:a", view="p9#9", sender="p1")


# ----------------------------------------------------------------------
# MergeRoundChecker
# ----------------------------------------------------------------------
def trigger(tracer, node="p0", hwg="hwg:x", lwg="lwg:a"):
    tracer.emit("lwg", "merge_views_triggered", node=node, hwg=hwg, lwg=lwg)


def test_two_concurrent_rounds_on_one_hwg_fail():
    tracer = rig(MergeRoundChecker())
    trigger(tracer, lwg="lwg:a")
    with pytest.raises(InvariantViolation, match="one merge round per HWG"):
        trigger(tracer, lwg="lwg:b")


def test_flush_point_closes_the_round():
    tracer = rig(MergeRoundChecker())
    trigger(tracer)
    tracer.emit("hwg", "view_installed",
                node="p0", group="hwg:x", view="p0#2",
                members=["p0"], parents=["p0#1"])
    trigger(tracer)  # new round after the flush: fine


def test_retry_reset_allows_a_new_round():
    tracer = rig(MergeRoundChecker())
    trigger(tracer)
    tracer.emit("lwg", "merge_round_retry", node="p0", hwg="hwg:x", lwg="lwg:a")
    trigger(tracer)


def test_completion_event_closes_the_round():
    tracer = rig(MergeRoundChecker())
    trigger(tracer)
    tracer.emit("lwg", "merge_round_completed", node="p0", hwg="hwg:x")
    trigger(tracer)


def test_rounds_on_distinct_hwgs_and_nodes_are_independent():
    tracer = rig(MergeRoundChecker())
    trigger(tracer, node="p0", hwg="hwg:x")
    trigger(tracer, node="p0", hwg="hwg:y")
    trigger(tracer, node="p1", hwg="hwg:x")


def test_crash_discards_the_nodes_open_rounds():
    tracer = rig(MergeRoundChecker())
    trigger(tracer, node="p0")
    tracer.emit("network", "crash", node="p0")
    trigger(tracer, node="p0")  # fresh incarnation


# ----------------------------------------------------------------------
# LwgConvergenceChecker (at quiesce, against a fake cluster)
# ----------------------------------------------------------------------
class FakeNetwork:
    def __init__(self, down=()):
        self._down = set(down)

    def is_alive(self, node):
        return node not in self._down


class FakeEnv:
    def __init__(self, down=()):
        self.fabric = FakeNetwork(down)


class FakeLwgService:
    def __init__(self):
        self.table = MappingTable()


class FakeCluster:
    def __init__(self, services, down=()):
        self.env = FakeEnv(down)
        self.services = services
        self.name_servers = {}


def member(service, lwg, view, hwg="hwg:x"):
    local = service.table.ensure_local(lwg, object())
    local.state = LwgState.MEMBER
    local.view = view
    local.hwg = hwg
    return local


def view_of(lwg, coord, seq, *members):
    return View(lwg, ViewId(coord, seq), tuple(members), ())


def quiesce(cluster):
    suite = CheckerSuite()
    suite.add(LwgConvergenceChecker())
    suite.check_quiescent(cluster)


def test_converged_lwg_passes():
    p0, p1 = FakeLwgService(), FakeLwgService()
    shared = view_of("lwg:a", "p0", 3, "p0", "p1")
    member(p0, "lwg:a", shared)
    member(p1, "lwg:a", shared)
    quiesce(FakeCluster({"p0": p0, "p1": p1}))


def test_concurrent_views_at_quiesce_fail():
    p0, p1 = FakeLwgService(), FakeLwgService()
    member(p0, "lwg:a", view_of("lwg:a", "p0", 3, "p0"))
    member(p1, "lwg:a", view_of("lwg:a", "p1", 3, "p1"))
    with pytest.raises(InvariantViolation, match="concurrent views converge"):
        quiesce(FakeCluster({"p0": p0, "p1": p1}))


def test_split_hwg_mapping_at_quiesce_fails():
    p0, p1 = FakeLwgService(), FakeLwgService()
    shared = view_of("lwg:a", "p0", 3, "p0", "p1")
    member(p0, "lwg:a", shared, hwg="hwg:x")
    member(p1, "lwg:a", shared, hwg="hwg:y")
    with pytest.raises(InvariantViolation, match="single HWG mapping"):
        quiesce(FakeCluster({"p0": p0, "p1": p1}))


def test_view_membership_must_match_the_claimants():
    p0 = FakeLwgService()
    member(p0, "lwg:a", view_of("lwg:a", "p0", 3, "p0", "p1"))
    with pytest.raises(InvariantViolation, match="membership matches view"):
        quiesce(FakeCluster({"p0": p0}))  # p1 claims nothing


def test_dead_nodes_are_exempt_from_convergence():
    p0, p1 = FakeLwgService(), FakeLwgService()
    member(p0, "lwg:a", view_of("lwg:a", "p0", 3, "p0"))
    member(p1, "lwg:a", view_of("lwg:a", "p1", 3, "p1"))  # p1 is down
    quiesce(FakeCluster({"p0": p0, "p1": p1}, down={"p1"}))
