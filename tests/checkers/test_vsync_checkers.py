"""Unit tests for the virtual-synchrony checkers, driven by hand-built
trace events (no simulated cluster)."""

import pytest

from repro.checkers import CheckerSuite, DeliveryChecker, InvariantViolation, ViewAgreementChecker
from repro.runtime.trace import Tracer


def rig(checker):
    suite = CheckerSuite()
    suite.add(checker)
    tracer = Tracer(clock=lambda: 0)
    suite.attach(tracer)
    return tracer


def install(tracer, node, view, members, parents=(), group="hwg:g"):
    tracer.emit(
        "hwg", "view_installed",
        node=node, group=group, view=view, members=list(members),
        parents=list(parents),
    )


def deliver(tracer, node, view, seq, sender, sender_seq, group="hwg:g"):
    tracer.emit(
        "hwg", "data_delivered",
        node=node, group=group, view=view, seq=seq,
        sender=sender, sender_seq=sender_seq,
    )


# ----------------------------------------------------------------------
# ViewAgreementChecker
# ----------------------------------------------------------------------
def test_matching_installations_pass():
    tracer = rig(ViewAgreementChecker())
    install(tracer, "p0", "p0#1", ["p0", "p1"])
    install(tracer, "p1", "p0#1", ["p0", "p1"])


def test_divergent_membership_for_one_view_id_fails():
    tracer = rig(ViewAgreementChecker())
    install(tracer, "p0", "p0#1", ["p0", "p1"])
    with pytest.raises(InvariantViolation, match="view agreement"):
        install(tracer, "p1", "p0#1", ["p0", "p1", "p2"])


def test_installing_a_view_without_self_fails():
    tracer = rig(ViewAgreementChecker())
    with pytest.raises(InvariantViolation, match="self-inclusion"):
        install(tracer, "p9", "p0#1", ["p0", "p1"])


def test_same_view_id_in_different_groups_is_independent():
    tracer = rig(ViewAgreementChecker())
    install(tracer, "p0", "p0#1", ["p0"], group="hwg:a")
    install(tracer, "p1", "p0#1", ["p1"], group="hwg:b")  # no clash


# ----------------------------------------------------------------------
# DeliveryChecker: ordering
# ----------------------------------------------------------------------
def test_contiguous_deliveries_pass():
    tracer = rig(DeliveryChecker())
    for seq in range(3):
        deliver(tracer, "p0", "p0#1", seq, "p1", seq + 1)


def test_sequence_gap_fails():
    tracer = rig(DeliveryChecker())
    deliver(tracer, "p0", "p0#1", 0, "p1", 1)
    with pytest.raises(InvariantViolation, match="contiguous total order"):
        deliver(tracer, "p0", "p0#1", 2, "p1", 3)  # seq 1 silently lost


def test_repeated_sequence_fails():
    tracer = rig(DeliveryChecker())
    deliver(tracer, "p0", "p0#1", 0, "p1", 1)
    with pytest.raises(InvariantViolation, match="contiguous total order"):
        deliver(tracer, "p0", "p0#1", 0, "p1", 1)


def test_order_disagreement_between_members_fails():
    tracer = rig(DeliveryChecker())
    deliver(tracer, "p0", "p0#1", 0, "p1", 1)
    with pytest.raises(InvariantViolation, match="order agreement"):
        deliver(tracer, "p2", "p0#1", 0, "p3", 1)  # same slot, other message


def test_fifo_regression_fails():
    tracer = rig(DeliveryChecker())
    deliver(tracer, "p0", "p0#1", 0, "p1", 2)
    install(tracer, "p0", "p0#2", ["p0", "p1"], parents=["p0#1"])
    with pytest.raises(InvariantViolation, match="FIFO per sender"):
        deliver(tracer, "p0", "p0#2", 0, "p1", 1)  # old message resurfaces


# ----------------------------------------------------------------------
# DeliveryChecker: fail-stop and incarnations
# ----------------------------------------------------------------------
def test_delivery_at_a_crashed_node_fails():
    tracer = rig(DeliveryChecker())
    tracer.emit("network", "crash", node="p0")
    with pytest.raises(InvariantViolation, match="fail-stop"):
        deliver(tracer, "p0", "p0#1", 0, "p1", 1)


def test_recovered_node_may_deliver_again():
    tracer = rig(DeliveryChecker())
    tracer.emit("network", "crash", node="p0")
    tracer.emit("network", "recover", node="p0")
    deliver(tracer, "p0", "p0#1", 0, "p1", 1)


def test_crash_resets_the_senders_fifo_incarnation():
    tracer = rig(DeliveryChecker())
    deliver(tracer, "p0", "p0#1", 0, "p1", 5)
    # p1 crashes, recovers, and its fresh incarnation restarts at 1.
    tracer.emit("network", "crash", node="p1")
    tracer.emit("network", "recover", node="p1")
    deliver(tracer, "p0", "p0#2", 0, "p1", 1)  # not a FIFO regression


def test_in_flight_delivery_after_the_senders_crash_spans_no_incarnation():
    tracer = rig(DeliveryChecker())
    tracer.emit("network", "crash", node="p1")
    # p1's last message was ordered before the crash; a survivor may
    # still deliver it (virtual synchrony), then p1 recovers afresh.
    deliver(tracer, "p0", "p0#1", 0, "p1", 1)
    tracer.emit("network", "recover", node="p1")
    deliver(tracer, "p0", "p0#2", 0, "p1", 1)  # the new incarnation's :1


def test_fifo_regression_within_one_incarnation_still_fails_after_a_crash():
    tracer = rig(DeliveryChecker())
    deliver(tracer, "p0", "p0#1", 0, "p1", 2)
    tracer.emit("network", "crash", node="p1")
    with pytest.raises(InvariantViolation, match="FIFO per sender"):
        deliver(tracer, "p0", "p0#1", 1, "p1", 2)  # duplicate before recover


# ----------------------------------------------------------------------
# DeliveryChecker: same view, same messages
# ----------------------------------------------------------------------
def test_equal_transition_counts_pass():
    tracer = rig(DeliveryChecker())
    install(tracer, "p0", "p0#1", ["p0", "p1"])
    install(tracer, "p1", "p0#1", ["p0", "p1"])
    deliver(tracer, "p0", "p0#1", 0, "p0", 1)
    deliver(tracer, "p1", "p0#1", 0, "p0", 1)
    install(tracer, "p0", "p0#2", ["p0", "p1"], parents=["p0#1"])
    install(tracer, "p1", "p0#2", ["p0", "p1"], parents=["p0#1"])


def test_unequal_transition_counts_fail():
    tracer = rig(DeliveryChecker())
    install(tracer, "p0", "p0#1", ["p0", "p1"])
    install(tracer, "p1", "p0#1", ["p0", "p1"])
    deliver(tracer, "p0", "p0#1", 0, "p0", 1)
    deliver(tracer, "p0", "p0#1", 1, "p0", 2)
    deliver(tracer, "p1", "p0#1", 0, "p0", 1)  # p1 missed one
    install(tracer, "p0", "p0#2", ["p0", "p1"], parents=["p0#1"])
    with pytest.raises(InvariantViolation, match="same view, same messages"):
        install(tracer, "p1", "p0#2", ["p0", "p1"], parents=["p0#1"])


def test_partition_branches_are_not_compared():
    tracer = rig(DeliveryChecker())
    install(tracer, "p0", "p0#1", ["p0", "p1"])
    install(tracer, "p1", "p0#1", ["p0", "p1"])
    deliver(tracer, "p0", "p0#1", 0, "p0", 1)  # p1 partitioned it away
    # Different successor views = different transitions: both legal.
    install(tracer, "p0", "p0#2", ["p0"], parents=["p0#1"])
    install(tracer, "p1", "p1#2", ["p1"], parents=["p0#1"])


def test_fresh_joiner_is_not_compared():
    tracer = rig(DeliveryChecker())
    install(tracer, "p0", "p0#1", ["p0"])
    deliver(tracer, "p0", "p0#1", 0, "p0", 1)
    install(tracer, "p0", "p0#2", ["p0", "p1"], parents=["p0#1"])
    install(tracer, "p1", "p0#2", ["p0", "p1"], parents=["p0#1"])  # joiner


def test_leaving_clears_the_current_view():
    tracer = rig(DeliveryChecker())
    install(tracer, "p0", "p0#1", ["p0", "p1"])
    install(tracer, "p1", "p0#1", ["p0", "p1"])
    deliver(tracer, "p0", "p0#1", 0, "p0", 1)  # p1 never saw it
    tracer.emit("hwg", "left", node="p0", group="hwg:g", view="p0#1")
    install(tracer, "p1", "p0#2", ["p0", "p1"], parents=["p0#1"])
    # p0 rejoins into the same successor: it left, so its stale old-view
    # count (1 vs p1's 0) must not be compared as a transition.
    install(tracer, "p0", "p0#2", ["p0", "p1"], parents=["p0#1"])
