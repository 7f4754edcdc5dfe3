"""The settling rule of the periodic Figure-1 rules: an evaluation
that sees any of the process's LWG or HWG views changed since the
previous evaluation moves no LWG; the next evaluation with nothing
changed does, and so does the one after SETTLE_MAX_EVALUATIONS held off
in a row."""

from repro.core import SwitchAction
from repro.core.service import SETTLE_MAX_EVALUATIONS
from repro.workloads import Cluster


def switches(actions):
    return [(a.lwg, a.reason) for a in actions if isinstance(a, SwitchAction)]


def test_no_move_in_the_evaluation_right_after_a_view_change():
    # The default 60 s policy period keeps the periodic evaluation out
    # of the way: the test makes every evaluation itself.
    cluster = Cluster(num_processes=4, seed=5)
    service = cluster.service(0)
    service.join("a")
    cluster.service(1).join("b")
    cluster.run_for_seconds(2)
    assert switches(service.run_policies_once()) == []
    # Everyone joins both groups: two HWGs with one member set, which
    # the share rule collapses onto the higher id once the joins settle.
    handles = [cluster.service(i).join(g) for i in range(4) for g in "ab"]
    cluster.run_for_seconds(3)
    assert all(h.view is not None and len(h.view.members) == 4 for h in handles)
    assert {h.hwg for h in handles} == {"hwg:p0:000001", "hwg:p1:000001"}
    assert service.build_policy_snapshot().busy_lwgs == {"lwg:a", "lwg:b"}
    assert switches(service.run_policies_once()) == []
    assert service.build_policy_snapshot().busy_lwgs == frozenset()
    assert switches(service.run_policies_once()) == [("lwg:a", "share")]



def test_steady_churn_delays_a_move_by_at_most_the_settling_bound():
    cluster = Cluster(num_processes=4, seed=5)
    service = cluster.service(0)
    service.join("a")
    service.join("c")
    cluster.service(1).join("b")
    cluster.run_for_seconds(2)
    # Everyone in "a" and "b" on two HWGs: a move the share rule wants.
    handles = [cluster.service(i).join(g) for i in range(4) for g in "ab"]
    cluster.run_for_seconds(3)
    assert {h.hwg for h in handles} == {"hwg:p0:000001", "hwg:p1:000001"}
    # p3 joins or leaves "c" before every evaluation, so p0's views
    # never stop changing.
    churner = cluster.service(3)
    for i in range(SETTLE_MAX_EVALUATIONS + 1):
        (churner.leave if i % 2 else churner.join)("c")
        cluster.run_for_seconds(2)
        held_off = service.build_policy_snapshot().busy_lwgs
        moved = switches(service.run_policies_once())
        if i < SETTLE_MAX_EVALUATIONS:
            assert held_off == {"lwg:a", "lwg:b", "lwg:c"} and moved == []
    assert held_off == frozenset()
    assert ("lwg:a", "share") in moved
