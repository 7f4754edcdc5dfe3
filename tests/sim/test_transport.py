"""Tests for the reliable sliding-window transport."""

from hypothesis import given, settings, strategies as st

from repro.sim import LinkModel, Process, ReliableTransport, SimRuntime
from repro.sim.transport import _Segment


class Host(Process):
    """A process pairing raw network delivery with a ReliableTransport."""

    def __init__(self, env, node, **kwargs):
        super().__init__(env, node)
        self.delivered = []
        self.transport = ReliableTransport(
            env, node, lambda src, p, s: self.delivered.append((src, p)), **kwargs
        )

    def on_message(self, src, msg, size):
        if type(msg) is _Segment:
            self.transport.on_segment(src, msg)


def make_pair(seed=0, loss=0.0, **kwargs):
    env = SimRuntime.create(seed=seed, link=LinkModel(loss_probability=loss, jitter_us=0))
    return env, Host(env, "a", **kwargs), Host(env, "b", **kwargs)


def test_basic_delivery():
    env, a, b = make_pair()
    a.transport.send("b", "m1")
    env.sim.run()
    assert b.delivered == [("a", "m1")]


def test_fifo_order_preserved():
    env, a, b = make_pair()
    for i in range(20):
        a.transport.send("b", i)
    env.sim.run()
    assert [p for _, p in b.delivered] == list(range(20))


def test_delivery_under_heavy_loss():
    env, a, b = make_pair(loss=0.4)
    for i in range(30):
        a.transport.send("b", i)
    env.sim.run_until(10_000_000)
    assert [p for _, p in b.delivered] == list(range(30))
    assert a.transport.retransmissions > 0


def test_duplicates_are_suppressed():
    env, a, b = make_pair(loss=0.3)
    for i in range(10):
        a.transport.send("b", i)
    env.sim.run_until(10_000_000)
    assert len(b.delivered) == 10


def test_window_queues_excess_messages():
    env, a, b = make_pair(window=4)
    for i in range(50):
        a.transport.send("b", i)
    env.sim.run_until(20_000_000)
    assert [p for _, p in b.delivered] == list(range(50))


def test_give_up_skips_gap_for_later_messages():
    """Messages lost to an unreachable peer must not wedge the channel."""
    env, a, b = make_pair(max_retries=2)
    env.network.set_partitions([["a"], ["b"]])
    a.transport.send("b", "lost")
    env.sim.run_until(2_000_000)  # retries exhausted, message abandoned
    assert a.transport.gave_up == 1
    env.network.heal()
    a.transport.send("b", "after-heal")
    env.sim.run_until(4_000_000)
    assert ("a", "after-heal") in b.delivered
    assert ("a", "lost") not in b.delivered


def test_bidirectional_channels_are_independent():
    env, a, b = make_pair()
    a.transport.send("b", "ping")
    b.transport.send("a", "pong")
    env.sim.run()
    assert b.delivered == [("a", "ping")]
    assert a.delivered == [("b", "pong")]


def test_restart_clears_state():
    env, a, b = make_pair()
    a.transport.send("b", "before")
    env.sim.run()
    a.transport.restart()
    a.transport.send("b", "after")
    env.sim.run()
    assert [p for _, p in b.delivered] == ["before", "after"]


def test_stop_silences_transport():
    env, a, b = make_pair()
    a.transport.stop()
    a.transport.send("b", "never")
    env.sim.run()
    assert b.delivered == []


# ----------------------------------------------------------------------
# Floor / abandoned-gap semantics
# ----------------------------------------------------------------------
def test_floor_advances_past_multiple_abandoned_messages():
    env, a, b = make_pair(max_retries=2)
    env.network.set_partitions([["a"], ["b"]])
    for i in range(3):
        a.transport.send("b", f"lost{i}")
    env.sim.run_until(3_000_000)
    assert a.transport.gave_up == 3
    env.network.heal()
    a.transport.send("b", "fresh")
    env.sim.run_until(6_000_000)
    # The fresh segment carries floor=3, so the receiver skips the whole
    # abandoned gap instead of waiting for seqs 0..2 forever.
    assert [p for _, p in b.delivered] == ["fresh"]


def test_raised_floor_discards_buffered_out_of_order_segments():
    env, a, b = make_pair()
    # Seq 1 arrives early and is buffered behind the missing seq 0.
    b.transport.on_segment("a", _Segment("data", 1, "early", 16, floor=0))
    assert b.delivered == []
    # The sender abandons seq 0 and 1: the next segment's floor says so.
    b.transport.on_segment("a", _Segment("data", 2, "kept", 16, floor=2))
    assert [p for _, p in b.delivered] == ["kept"]
    # The buffered seq-1 copy must be gone, not delivered later.
    state = b.transport._peer("a")
    assert state.out_of_order == {}
    assert state.delivered_up_to == 2


def test_duplicate_below_floor_reacked_not_redelivered():
    env, a, b = make_pair()
    a.transport.send("b", "m0")
    env.sim.run()
    assert [p for _, p in b.delivered] == ["m0"]
    b.transport.on_segment("a", _Segment("data", 0, "m0", 16, floor=0))
    assert [p for _, p in b.delivered] == ["m0"]


# ----------------------------------------------------------------------
# Crash / recovery and incarnation bumps
# ----------------------------------------------------------------------
def test_give_up_then_crash_recover_does_not_wedge_channel():
    """Abandoned gap + restart (incarnation bump) still yields a clean channel."""
    env, a, b = make_pair(max_retries=2)
    env.network.set_partitions([["a"], ["b"]])
    a.transport.send("b", "lost-pre-crash")
    env.sim.run_until(2_000_000)
    assert a.transport.gave_up == 1
    a.transport.stop()  # fail-stop
    env.network.heal()
    a.transport.restart()  # recovery: numbering starts afresh
    assert a.transport.incarnation == 1
    a.transport.send("b", "post-recovery")
    env.sim.run_until(4_000_000)
    assert [p for _, p in b.delivered] == ["post-recovery"]


def test_stale_segment_from_previous_incarnation_ignored():
    env, a, b = make_pair()
    a.transport.send("b", "first-life")
    env.sim.run()
    a.transport.restart()
    a.transport.send("b", "second-life")
    env.sim.run()
    assert [p for _, p in b.delivered] == ["first-life", "second-life"]
    # A delayed replay from incarnation 0 must not be delivered again.
    b.transport.on_segment("a", _Segment("data", 0, "first-life", 16, incarnation=0))
    assert [p for _, p in b.delivered] == ["first-life", "second-life"]


def test_ack_from_previous_incarnation_not_credited():
    env, a, b = make_pair()
    a.transport.restart()  # incarnation 1
    a.transport.send("b", "msg")
    state = a.transport._peer("b")
    assert 0 in state.unacked
    # An ack minted for incarnation 0 (a previous life) arrives late.
    a.transport.on_segment("b", _Segment("ack", 0, incarnation=0))
    assert 0 in state.unacked, "stale-incarnation ack must not credit"
    a.transport.on_segment("b", _Segment("ack", 0, incarnation=1))
    assert state.unacked == {}


def test_receiver_resets_state_on_peer_incarnation_bump():
    env, a, b = make_pair()
    for i in range(3):
        a.transport.send("b", f"old{i}")
    env.sim.run()
    a.transport.restart()
    # Fresh life reuses seqs 0..2; the bump tells b to start over.
    for i in range(3):
        a.transport.send("b", f"new{i}")
    env.sim.run()
    assert [p for _, p in b.delivered] == [
        "old0", "old1", "old2", "new0", "new1", "new2"
    ]


def test_many_peers():
    env = SimRuntime.create(seed=1, link=LinkModel(jitter_us=0))
    hub = Host(env, "hub")
    spokes = [Host(env, f"s{i}") for i in range(5)]
    for i, spoke in enumerate(spokes):
        hub.transport.send(spoke.node, f"m{i}")
    env.sim.run()
    for i, spoke in enumerate(spokes):
        assert spoke.delivered == [("hub", f"m{i}")]


# ----------------------------------------------------------------------
# Hole-naming acks: fill the gap at once instead of sleeping out a backoff
# ----------------------------------------------------------------------
def hole_ack(up_to, hole, incarnation=0):
    """The ack a receiver sends while holding ``hole - 1`` out of order."""
    return _Segment("ack", up_to, floor=hole, incarnation=incarnation)


def test_post_heal_message_is_not_held_behind_a_sleeping_backoff():
    env, a, b = make_pair()
    for i in range(3):
        a.transport.send("b", f"before{i}")
    env.sim.run()
    env.network.set_partitions([["a"], ["b"]])
    cut = [f"cut{i}" for i in range(5)]
    for payload in cut:
        a.transport.send("b", payload)
    env.sim.run_until(env.sim.now + 3_000_000)
    # Nothing is given up yet, and every cut segment is deep in its
    # backoff: the next timer is hundreds of milliseconds away.
    assert a.transport.gave_up == 0
    assert len(a.transport._peer("b").unacked) == 5
    env.network.heal()
    a.transport.send("b", "after-heal")
    # new -> hole-naming ack -> fill -> delivery: three one-way trips.
    env.sim.run_until(env.sim.now + 5_000)
    expected = [f"before{i}" for i in range(3)] + cut + ["after-heal"]
    assert [p for _, p in b.delivered] == expected
    env.sim.run()
    assert [p for _, p in b.delivered] == expected  # and exactly once
    assert a.transport._peer("b").unacked == {}


def test_late_acks_on_a_slow_medium_trigger_no_hole_fill():
    """Loss-free, but acks arrive after the 20 ms base timeout.

    Spurious timer retransmissions abound (``attempts >= 1``), yet nothing
    is ever missing at the receiver, so no ack names a hole: the counts
    are the ones the transport produced before it knew about holes.
    """
    env = SimRuntime.create(seed=3, link=LinkModel(bandwidth_bps=1_000_000))
    a, b = Host(env, "a"), Host(env, "b")
    for i in range(40):
        a.transport.send("b", i, 1000)
        b.transport.send("a", -i, 1000)
    env.sim.run()
    assert [p for _, p in b.delivered] == list(range(40))
    assert (a.transport.retransmissions, b.transport.retransmissions) == (293, 294)
    assert env.network.messages_sent == 1334
    assert a.transport.gave_up == b.transport.gave_up == 0


def test_repeated_hole_acks_send_one_copy_per_backoff_interval():
    env, a, b = make_pair()
    env.network.set_partitions([["a"], ["b"]])
    a.transport.send("b", "m0")
    a.transport.send("b", "m1")
    env.sim.run_until(100_000)  # timers fired at 20 and 60 ms; next at 140
    a.transport.send("b", "fresh")  # first copies still in flight
    a.transport.send("b", "held")
    timer_copies = a.transport.retransmissions
    assert timer_copies == 4
    for _ in range(5):
        a.transport.on_segment("b", hole_ack(-1, 4))
    # m0 and m1 once each; "fresh" (never retransmitted) not at all.
    assert a.transport.retransmissions == timer_copies + 2
    env.sim.run_until(150_000)  # the untouched timer chain fires on schedule
    assert a.transport.retransmissions == timer_copies + 2 + 4
    a.transport.on_segment("b", hole_ack(-1, 4))
    a.transport.on_segment("b", hole_ack(-1, 4))
    # A new interval each: m0, m1 and now "fresh"; never the held one.
    assert a.transport.retransmissions == timer_copies + 2 + 4 + 3


def test_hole_ack_names_only_what_lies_below_it():
    env, a, b = make_pair()
    env.network.set_partitions([["a"], ["b"]])
    for i in range(4):
        a.transport.send("b", i)
    env.sim.run_until(30_000)
    before = a.transport.retransmissions
    a.transport.on_segment("b", hole_ack(0, 3))  # 0 acked, 1 missing, 2 held
    assert a.transport.retransmissions == before + 1


def test_hole_ack_from_previous_incarnation_is_ignored():
    env, a, b = make_pair()
    a.transport.restart()  # incarnation 1
    env.network.set_partitions([["a"], ["b"]])
    a.transport.send("b", "msg")
    env.sim.run_until(30_000)
    before = (a.transport.retransmissions, env.network.messages_sent)
    a.transport.on_segment("b", hole_ack(-1, 2, incarnation=0))
    assert (a.transport.retransmissions, env.network.messages_sent) == before
    a.transport.on_segment("b", hole_ack(-1, 2, incarnation=1))
    assert a.transport.retransmissions == before[0] + 1


def test_hole_fill_never_resends_an_abandoned_segment():
    env, a, b = make_pair(max_retries=2)
    env.network.set_partitions([["a"], ["b"]])
    a.transport.send("b", "lost")
    env.sim.run_until(2_000_000)
    assert a.transport.gave_up == 1
    before = (a.transport.retransmissions, env.network.messages_sent)
    a.transport.on_segment("b", hole_ack(-1, 5))
    assert (a.transport.retransmissions, env.network.messages_sent) == before
    # A later segment retried once is filled, and carries the raised
    # floor, so the receiver skips the abandoned one instead of waiting.
    a.transport.send("b", "kept")
    env.sim.run_until(env.sim.now + 30_000)
    env.network.heal()
    a.transport.on_segment("b", hole_ack(-1, 5))
    assert a.transport.retransmissions == before[0] + 2  # one by timer, one fill
    env.sim.run_until(env.sim.now + 5_000)
    assert [p for _, p in b.delivered] == ["kept"]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    loss=st.sampled_from([0.0, 0.1, 0.3]),
    steps=st.lists(
        st.one_of(
            st.tuples(st.just("send"), st.integers(1, 12)),
            st.tuples(st.just("run"), st.integers(1, 400_000)),
            st.tuples(st.just("cut"), st.integers(1_000, 7_000_000)),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_delivery_is_an_ordered_duplicate_free_prefix_of_what_was_sent(seed, loss, steps):
    """Any loss / partition / heal schedule: FIFO, at most once, no gap.

    A gap may only open where the sender gave a segment up (a cut longer
    than its ten retries); with none given up, everything sent arrives.
    """
    env = SimRuntime.create(seed=seed, link=LinkModel(loss_probability=loss))
    a, b = Host(env, "a", window=8), Host(env, "b", window=8)
    sent = 0
    for kind, arg in steps:
        if kind == "send":
            for _ in range(arg):
                a.transport.send("b", sent)
                b.transport.send("a", sent)
                sent += 1
        elif kind == "run":
            env.sim.run_until(env.sim.now + arg)
        else:
            env.network.set_partitions([["a"], ["b"]])
            env.sim.run_until(env.sim.now + arg)
            env.network.heal()
    env.sim.run_until(env.sim.now + 30_000_000)
    for sender, receiver in ((a, b), (b, a)):
        got = [p for _, p in receiver.delivered]
        assert got == sorted(set(got))
        assert set(got) <= set(range(sent))
        if sender.transport.gave_up == 0:
            assert got == list(range(sent))
        assert sender.transport._peer(receiver.node).unacked == {}
