"""Unit tests for the coordinator-sequencer ordered channel.

These drive :class:`OrderedChannel` directly through a fake host, so
ordering, dedup-floor, re-publish and flush-support logic are tested
without the membership machinery.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SECOND, SimRuntime
from repro.sim.transport import MAX_BACKOFF_US
from repro.vsync.messages import Nack, Ordered, Publish, StabilityAck, StabilityAnnounce
from repro.vsync.total_order import OrderedChannel
from repro.vsync.view import View, ViewId


class FakeHost:
    """Collects the channel's outputs instead of using a network."""

    def __init__(self, env, node, group="g"):
        self.env = env
        self.node = node
        self.group = group
        self.multicasts = []
        self.reliable = []
        self.raw = []
        self.raw_sent_at = []
        self.delivered = []

    def multicast_view(self, msg, size):
        self.multicasts.append(msg)

    def raw_send(self, dst, msg):
        self.raw.append((dst, msg))
        self.raw_sent_at.append(self.env.now)

    def reliable_send(self, dst, msg):
        self.reliable.append((dst, msg))

    def deliver_data(self, sender, payload, size):
        self.delivered.append((sender, payload))


@pytest.fixture
def seq_host(env):
    """A channel whose host is the view coordinator (sequencer)."""
    host = FakeHost(env, "p0")
    channel = OrderedChannel(host)
    view = View("g", ViewId("p0", 1), ("p0", "p1"))
    channel.install_view(view, {})
    return host, channel, view


def feed_own_multicasts(channel, host):
    """Loop the sequencer's multicasts back into the channel."""
    while host.multicasts:
        channel.on_ordered(host.multicasts.pop(0))


def test_sequencer_orders_and_multicasts(seq_host):
    host, channel, _ = seq_host
    channel.send("m1", 10)
    channel.send("m2", 10)
    assert [m.seq for m in host.multicasts] == [0, 1]
    assert [m.payload for m in host.multicasts] == ["m1", "m2"]


def test_non_coordinator_publishes_to_sequencer(env):
    host = FakeHost(env, "p1")
    channel = OrderedChannel(host)
    channel.install_view(View("g", ViewId("p0", 1), ("p0", "p1")), {})
    channel.send("m", 10)
    assert host.reliable == []  # a raw datagram, not a transport segment
    assert len(host.raw) == 1
    dst, msg = host.raw[0]
    assert dst == "p0" and isinstance(msg, Publish)


def test_delivery_in_sequence_order(seq_host):
    host, channel, view = seq_host
    channel.send("a", 1)
    channel.send("b", 1)
    # Deliver out of order: the channel must reorder.
    second, first = host.multicasts[1], host.multicasts[0]
    channel.on_ordered(second)
    assert host.delivered == []
    channel.on_ordered(first)
    assert [p for _, p in host.delivered] == ["a", "b"]


def test_duplicate_ordered_ignored(seq_host):
    host, channel, _ = seq_host
    channel.send("a", 1)
    msg = host.multicasts[0]
    channel.on_ordered(msg)
    channel.on_ordered(msg)
    assert len(host.delivered) == 1


def test_gap_triggers_nack_after_delay(seq_host):
    host, channel, view = seq_host
    channel.send("a", 1)
    channel.send("b", 1)
    channel.on_ordered(host.multicasts[1])  # only seq 1; gap at 0
    host.env.sim.run_until(100_000)
    nacks = [m for _, m in host.reliable if isinstance(m, Nack)]
    assert nacks and nacks[0].from_seq == 0


def test_sequencer_retransmits_on_nack(seq_host):
    host, channel, view = seq_host
    channel.send("a", 1)
    feed_own_multicasts(channel, host)
    nack = Nack(group="g", view_id=view.view_id, from_seq=0, to_seq=0, requester="p1")
    channel.on_nack(nack)
    assert any(
        dst == "p1" and isinstance(m, Ordered) and m.seq == 0
        for dst, m in host.reliable
    )


def test_publish_dedup_within_view(seq_host):
    host, channel, view = seq_host
    publish = Publish(group="g", view_id=view.view_id, sender="p1", sender_seq=1, payload="x")
    channel.on_publish("p1", publish)
    channel.on_publish("p1", publish)
    assert len(host.multicasts) == 1


def test_stale_view_publish_ignored(seq_host):
    host, channel, _ = seq_host
    stale = Publish(group="g", view_id=ViewId("old", 9), sender="p1", sender_seq=1, payload="x")
    channel.on_publish("p1", stale)
    assert host.multicasts == []


def test_frozen_channel_queues_sends(seq_host):
    host, channel, view = seq_host
    channel.freeze()
    channel.send("queued", 1)
    assert host.multicasts == []
    # New view: pending messages are re-published.
    new_view = View("g", ViewId("p0", 2), ("p0", "p1"), parents=(view.view_id,))
    channel.install_view(new_view, {})
    assert [m.payload for m in host.multicasts] == ["queued"]


def test_dedup_floor_from_install_suppresses_republish(seq_host):
    host, channel, view = seq_host
    channel.freeze()
    channel.send("dup", 1)
    # The flush reveals this message was already delivered elsewhere.
    new_view = View("g", ViewId("p0", 2), ("p0", "p1"), parents=(view.view_id,))
    channel.install_view(new_view, {"p0": channel.my_send_seq})
    assert host.multicasts == []


def test_own_delivery_clears_pending(seq_host):
    host, channel, _ = seq_host
    channel.send("a", 1)
    assert channel.pending
    feed_own_multicasts(channel, host)
    assert not channel.pending


def test_floor_prevents_cross_view_duplicate_delivery(seq_host):
    host, channel, view = seq_host
    channel.send("a", 1)
    feed_own_multicasts(channel, host)
    assert len(host.delivered) == 1
    # A new view carries our floor; a replayed Ordered must not deliver.
    floor = channel.floor_snapshot()
    new_view = View("g", ViewId("p0", 2), ("p0", "p1"), parents=(view.view_id,))
    channel.install_view(new_view, floor)
    replay = Publish(group="g", view_id=new_view.view_id, sender="p0", sender_seq=1, payload="a")
    channel.on_publish("p0", replay)
    assert host.multicasts == []


# ----------------------------------------------------------------------
# Flush support
# ----------------------------------------------------------------------
def test_have_upto_reflects_contiguous_prefix(seq_host):
    host, channel, _ = seq_host
    channel.send("a", 1)
    channel.send("b", 1)
    channel.on_ordered(host.multicasts[0])
    assert channel.have_upto() == 0
    channel.on_ordered(host.multicasts[1])
    assert channel.have_upto() == 1


def test_messages_above_returns_copies(seq_host):
    host, channel, _ = seq_host
    for payload in ("a", "b", "c"):
        channel.send(payload, 1)
    for msg in host.multicasts:
        channel.on_ordered(msg)
    above = channel.messages_above(0)
    assert sorted(above) == [1, 2]


def test_apply_fill_delivers_to_cut_and_drops_beyond(seq_host):
    host, channel, _ = seq_host
    for payload in ("a", "b", "c"):
        channel.send(payload, 1)
    messages = list(host.multicasts)
    channel.on_ordered(messages[0])      # delivered: a
    channel.on_ordered(messages[2])      # held out of order: c
    channel.apply_fill(cut=1, missing={1: messages[1]})
    assert [p for _, p in host.delivered] == ["a", "b"]
    assert 2 not in channel.log  # beyond the cut: dropped (will re-publish)


def test_apply_fill_raises_if_cut_unreachable(seq_host):
    host, channel, _ = seq_host
    channel.send("a", 1)
    with pytest.raises(RuntimeError):
        channel.apply_fill(cut=5, missing={})


# ----------------------------------------------------------------------
# Constant-time bookkeeping agrees with the definitions it replaced
# ----------------------------------------------------------------------
def ordered(view, seq, floor=-1):
    return Ordered(
        group="g", view_id=view.view_id, seq=seq, sender="p0", sender_seq=seq + 1,
        payload=seq, stable_floor=floor,
    )


def gap_by_definition(channel):
    """We hold a message past a sequence number we are still missing."""
    return any(seq > channel.delivered_upto + 1 for seq in channel.log)


def test_log_gap_exists_matches_its_definition_on_every_arrival_order(env):
    """Every length-5 arrival sequence over four messages (so duplicates and
    losses both occur), with floors pruning the log along the way, then the
    flush fill at every cut, then a view change."""
    view = View("g", ViewId("p0", 1), ("p0", "p1"))
    successor = View("g", ViewId("p0", 2), ("p0", "p1"), parents=(view.view_id,))
    for arrivals in itertools.product(range(4), repeat=5):
        for cut in range(-1, 4):
            channel = OrderedChannel(FakeHost(env, "p1"))
            channel.install_view(view, {})
            for seq in arrivals:
                channel.on_ordered(ordered(view, seq, floor=channel.delivered_upto - 1))
                assert channel.log_gap_exists() == gap_by_definition(channel)
            if cut < channel.delivered_upto:
                continue  # a cut is never below a member's own coverage
            channel.freeze()
            missing = {
                seq: ordered(view, seq)
                for seq in range(channel.delivered_upto + 1, cut + 1)
                if seq not in channel.log
            }
            channel.apply_fill(cut, missing)
            assert channel.log_gap_exists() == gap_by_definition(channel) is False
            channel.install_view(successor, channel.floor_snapshot())
            assert channel.log_gap_exists() is False
            channel.on_ordered(ordered(successor, 1))
            assert channel.log_gap_exists() == gap_by_definition(channel) is True


def test_floor_prunes_exactly_the_entries_at_or_below_it(env):
    view = View("g", ViewId("p0", 1), ("p0", "p1"))
    channel = OrderedChannel(FakeHost(env, "p1"))
    channel.install_view(view, {})
    for seq in range(10):
        channel.on_ordered(ordered(view, seq))
    channel.on_ordered(ordered(view, 10, floor=6))
    assert sorted(channel.log) == [7, 8, 9, 10] and channel.log_pruned == 7
    channel.on_ordered(ordered(view, 4, floor=3))  # stale retransmit: no effect
    assert sorted(channel.log) == [7, 8, 9, 10] and channel.stable_upto == 6
    channel.on_ordered(ordered(view, 11, floor=9))
    assert sorted(channel.log) == [10, 11] and channel.log_pruned == 10


def test_sequencer_dedup_state_is_one_integer_per_sender(seq_host):
    """1 000 messages in one view from two senders: the sequencer keeps one
    integer per sender and holds nothing back, and a replay of a
    long-delivered Publish is still dropped."""
    host, channel, view = seq_host
    first = Publish(group="g", view_id=view.view_id, sender="p1", sender_seq=1, payload=0)
    for k in range(500):
        channel.send(f"own-{k}", 1)
        channel.on_publish(
            "p1",
            Publish(group="g", view_id=view.view_id, sender="p1", sender_seq=k + 1, payload=k),
        )
        assert channel._ordered_upto == {"p0": k + 1, "p1": k + 1}
        assert channel._held == {}
        if k % 2:
            feed_own_multicasts(channel, host)
    feed_own_multicasts(channel, host)
    assert channel.delivered_count == len(host.delivered) == 1000
    channel.on_publish("p1", first)
    assert host.multicasts == []


# ----------------------------------------------------------------------
# Raw publishes: per-sender FIFO and dedup at the sequencer
# ----------------------------------------------------------------------
def publish(view, sender_seq, sender="p1"):
    return Publish(
        group="g", view_id=view.view_id, sender=sender, sender_seq=sender_seq,
        payload=sender_seq,
    )


def test_sequencer_orders_a_reordered_publish_after_its_predecessor(seq_host):
    host, channel, view = seq_host
    channel.on_publish("p1", publish(view, 2))
    assert host.multicasts == [] and list(channel._held["p1"]) == [2]
    channel.on_publish("p1", publish(view, 1))
    assert [(m.seq, m.sender_seq) for m in host.multicasts] == [(0, 1), (1, 2)]
    assert channel._held == {}


def test_republish_racing_its_original_is_ordered_once(seq_host):
    host, channel, view = seq_host
    original = publish(view, 1)
    channel.on_publish("p1", original)
    channel.on_publish("p1", publish(view, 1))  # the re-publish
    channel.on_publish("p1", publish(view, 3))  # held behind 2
    channel.on_publish("p1", publish(view, 3))
    channel.on_publish("p1", publish(view, 2))
    channel.on_publish("p1", original)  # late duplicate of the original
    assert [m.sender_seq for m in host.multicasts] == [1, 2, 3]


def test_install_view_resets_sender_numbering_to_the_carried_floor(seq_host):
    host, channel, view = seq_host
    channel.on_publish("p1", publish(view, 3))
    assert channel._held
    successor = View("g", ViewId("p0", 2), ("p0", "p1"), parents=(view.view_id,))
    channel.install_view(successor, {"p1": 4})
    assert channel._held == {} and channel._ordered_upto == {}
    channel.on_publish("p1", publish(successor, 4))  # delivered in an earlier view
    channel.on_publish("p1", publish(successor, 6))
    channel.on_publish("p1", publish(successor, 5))
    assert [m.sender_seq for m in host.multicasts] == [5, 6]


# ----------------------------------------------------------------------
# Raw publishes: the re-publish timer
# ----------------------------------------------------------------------
@pytest.fixture
def member_host(env):
    """A channel whose host is a non-coordinator member of a 2-member view."""
    host = FakeHost(env, "p1")
    channel = OrderedChannel(host)
    view = View("g", ViewId("p0", 1), ("p0", "p1"))
    channel.install_view(view, {})
    return host, channel, view


def test_unacknowledged_publish_is_republished_with_backoff(member_host):
    host, channel, _ = member_host
    start = host.env.now
    channel.send("a", 1)
    host.env.sim.run_until(start + 19_999)
    assert len(host.raw) == 1
    host.env.sim.run_until(start + 300_000)
    # 20 ms, then doubling: 20 / 40 / 80 / 160 ms between copies.
    assert [t - start for t in host.raw_sent_at] == [0, 20_000, 60_000, 140_000, 300_000]
    assert {msg.sender_seq for _, msg in host.raw} == {1}


def test_republish_delay_is_capped_at_the_transport_backoff(member_host):
    host, channel, _ = member_host
    channel.send("a", 1)
    host.env.sim.run_until(host.env.now + 10 * SECOND)
    gaps = [b - a for a, b in zip(host.raw_sent_at, host.raw_sent_at[1:])]
    assert max(gaps) == MAX_BACKOFF_US
    assert gaps == sorted(gaps)


def test_progress_rearms_the_timer_at_the_base_delay(member_host):
    host, channel, view = member_host
    start = host.env.now
    channel.send("a", 1)
    channel.send("b", 1)
    host.env.sim.run_until(start + 10_000)
    channel.on_ordered(Ordered(group="g", view_id=view.view_id, seq=0, sender="p1",
                               sender_seq=1, payload="a"))
    host.env.sim.run_until(start + 39_999)
    assert len(host.raw) == 2  # 20 ms: progress, nothing re-sent
    host.env.sim.run_until(start + 40_000)
    assert [msg.sender_seq for _, msg in host.raw] == [1, 2, 2]


def test_nothing_is_republished_while_frozen_and_the_timer_stops_when_delivered(
    member_host,
):
    host, channel, view = member_host
    channel.send("a", 1)
    channel.freeze()
    host.env.sim.run_until(host.env.now + SECOND)
    assert len(host.raw) == 1 and channel._republish_timer is None
    successor = View("g", ViewId("p0", 2), ("p0", "p1"), parents=(view.view_id,))
    channel.install_view(successor, {})
    assert len(host.raw) == 2 and channel._republish_timer is not None
    channel.on_ordered(Ordered(group="g", view_id=successor.view_id, seq=0, sender="p1",
                               sender_seq=1, payload="a"))
    assert not channel.pending
    host.env.sim.run_until(host.env.now + 2 * SECOND)
    assert len(host.raw) == 2 and channel._republish_timer is None


def test_a_new_view_restarts_the_republish_backoff_at_the_base_delay(member_host):
    """An old coordinator unreachable for seconds has grown the delay to
    1 s; the first retry to the next view's coordinator waits 20 ms."""
    host, channel, view = member_host
    channel.send("a", 1)
    host.env.sim.run_until(host.env.now + 5 * SECOND)
    successor = View("g", ViewId("p2", 2), ("p2", "p1"), parents=(view.view_id,))
    installed_at, sent = host.env.now, len(host.raw)
    channel.install_view(successor, {})
    host.env.sim.run_until(installed_at + 20_000)
    assert [t - installed_at for t in host.raw_sent_at[sent:]] == [0, 20_000]
    assert [dst for dst, _ in host.raw[sent:]] == ["p2", "p2"]


@settings(max_examples=150, deadline=None)
@given(count=st.integers(min_value=1, max_value=8), data=st.data())
def test_sequencer_orders_one_senders_stream_exactly_once_under_any_schedule(count, data):
    """Whatever reorders, drops and duplicates the first copies of one
    sender's publishes suffer, the sequencer orders exactly that sender's
    numbering, gap-free and once each, once the re-publish timer has
    resent what was lost."""
    env = SimRuntime.create(seed=0)
    view = View("g", ViewId("p0", 1), ("p0", "p1"))
    sequencer_host, sender_host = FakeHost(env, "p0"), FakeHost(env, "p1")
    sequencer, sender = OrderedChannel(sequencer_host), OrderedChannel(sender_host)
    sequencer.install_view(view, {})
    sender.install_view(view, {})
    for k in range(count):
        sender.send(k, 1)
    first_copies = [msg for _, msg in sender_host.raw]
    for msg in data.draw(st.lists(st.sampled_from(first_copies), max_size=3 * count)):
        sequencer.on_publish("p1", msg)
    looped_back = 0
    for _ in range(count + 2):
        for msg in sequencer_host.multicasts[looped_back:]:
            sender.on_ordered(msg)
        looped_back = len(sequencer_host.multicasts)
        if not sender.pending:
            break
        resent = len(sender_host.raw)
        env.sim.run_until(env.now + MAX_BACKOFF_US)
        for _, msg in sender_host.raw[resent:]:
            sequencer.on_publish("p1", msg)
    assert not sender.pending
    assert [m.sender_seq for m in sequencer_host.multicasts] == list(range(1, count + 1))
    assert [m.seq for m in sequencer_host.multicasts] == list(range(count))
    assert sequencer._held == {}


# ----------------------------------------------------------------------
# Thaw, stability floors and messages for a view the channel left
# ----------------------------------------------------------------------
def test_thaw_republishes_a_send_made_while_frozen(member_host):
    """A flush that ends without a new view (``thaw``) must not strand
    what the application sent while the channel was frozen."""
    host, channel, _ = member_host
    channel.send("before", 1)
    channel.freeze()
    channel.send("during", 1)
    assert [msg.sender_seq for _, msg in host.raw] == [1]
    channel.thaw()
    assert not channel.frozen
    # Both pending sends go again, in order; the sequencer orders each once.
    assert [(msg.sender_seq, msg.payload) for _, msg in host.raw[1:]] == [
        (1, "before"), (2, "during"),
    ]


def test_stability_floor_is_announced_when_it_rises_then_rides_the_data(seq_host):
    host, channel, view = seq_host
    channel.send("a", 1)
    feed_own_multicasts(channel, host)
    channel.on_stability_ack(
        StabilityAck(group="g", view_id=view.view_id, member="p1", delivered_upto=0)
    )
    channel.tick_stability()
    assert [m.floor for m in host.multicasts if isinstance(m, StabilityAnnounce)] == [0]
    channel.tick_stability()  # no rise, no second announce
    assert len(host.multicasts) == 1
    channel.send("b", 1)
    assert host.multicasts[-1].stable_floor == 0


def test_nack_for_a_view_the_sequencer_left_is_ignored(seq_host):
    host, channel, view = seq_host
    channel.send("a", 1)
    successor = View("g", ViewId("p0", 2), ("p0", "p1"), parents=(view.view_id,))
    channel.install_view(successor, channel.floor_snapshot())
    channel.on_nack(
        Nack(group="g", view_id=view.view_id, from_seq=0, to_seq=0, requester="p1")
    )
    assert host.reliable == []


def test_ordered_before_any_view_is_ignored(env):
    """A fresh channel (a rejoining endpoint) drops a late Ordered."""
    host = FakeHost(env, "p1")
    channel = OrderedChannel(host)
    channel.on_ordered(
        Ordered(group="g", view_id=ViewId("p0", 1), seq=0, sender="p0",
                sender_seq=1, payload="late")
    )
    assert host.delivered == [] and channel.log == {}


def test_stability_announce_for_a_view_the_channel_left_is_ignored(seq_host):
    host, channel, view = seq_host
    channel.send("a", 1)
    feed_own_multicasts(channel, host)
    successor = View("g", ViewId("p0", 2), ("p0", "p1"), parents=(view.view_id,))
    channel.install_view(successor, channel.floor_snapshot())
    channel.send("b", 1)
    feed_own_multicasts(channel, host)
    channel.on_stability_announce(StabilityAnnounce(group="g", view_id=view.view_id, floor=5))
    assert channel.stable_upto == -1 and 0 in channel.log
