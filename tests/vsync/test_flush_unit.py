"""Unit tests for the flush engine, driven through a fake host."""

import pytest

from repro.vsync.flush import BranchFlushLeader, FlushParticipant
from repro.vsync.messages import FlushDone, FlushFill, FlushState, Ordered, Stop
from repro.vsync.total_order import OrderedChannel
from repro.vsync.view import View, ViewId


class FakeHost:
    """Host stub wiring a real OrderedChannel to captured sends."""

    def __init__(self, env, node, view):
        self.env = env
        self.node = node
        self.group = "g"
        self.current_view = view
        self.reliable = []
        self.multicasts = []
        self.delivered = []
        self.local_stops = []
        self.local_fills = []
        self.local_states = []
        self.local_dones = []
        self.stop_raised = 0
        self.auto_stop_ok = True  # False: the user holds StopOk back
        self.active_leader = None  # set when this host leads a flush
        self.channel = OrderedChannel(self)
        self.channel.install_view(view, {})
        self.participant = FlushParticipant(self)

    # messaging
    def reliable_send(self, dst, msg):
        self.reliable.append((dst, msg))

    def multicast_view(self, msg, size):
        self.multicasts.append(msg)

    def deliver_data(self, sender, payload, size):
        self.delivered.append((sender, payload))

    # the leader's own flush messages (HwgEndpoint.on_message's branches)
    def on_message(self, src, msg):
        if isinstance(msg, Stop):
            self.local_stops.append(msg)
            self.participant.on_stop(msg)
        elif isinstance(msg, FlushFill):
            self.local_fills.append(msg)
            self.participant.on_fill(msg)
        elif isinstance(msg, FlushState):
            self.local_states.append(msg)
            if self.active_leader is not None:
                self.active_leader.on_flush_state(msg)
        elif isinstance(msg, FlushDone):
            self.local_dones.append(msg)
            if self.active_leader is not None:
                self.active_leader.on_flush_done(msg)

    def raise_stop(self):
        self.stop_raised += 1
        if self.auto_stop_ok:
            self.participant.stop_acknowledged()


def make_view(*members):
    return View("g", ViewId(members[0], 1), tuple(members))


def ordered(view, seq, payload="x"):
    return Ordered(group="g", view_id=view.view_id, seq=seq, sender="p0",
                   sender_seq=seq + 1, payload=payload, payload_size=8)


def test_leader_stop_goes_to_all_participants(env):
    view = make_view("p0", "p1", "p2")
    host = FakeHost(env, "p0", view)
    leader = BranchFlushLeader(
        host, view, round_no=1, participants={"p0", "p1", "p2"},
        on_complete=lambda s, d: None, on_stall=lambda m: None,
    )
    host.active_leader = leader
    leader.start()
    remote_stops = [d for d, m in host.reliable if isinstance(m, Stop)]
    assert sorted(remote_stops) == ["p1", "p2"]
    assert len(host.local_stops) == 1  # self handled locally
    assert host.stop_raised == 1


def test_leader_requires_self_participation(env):
    view = make_view("p0", "p1")
    host = FakeHost(env, "p0", view)
    with pytest.raises(ValueError):
        BranchFlushLeader(
            host, view, 1, {"p1"},
            on_complete=lambda s, d: None, on_stall=lambda m: None,
        )


def test_cut_is_union_coverage(env):
    """Leader holds 0..1; p1 holds 0..3: the cut must be 3 with fills."""
    view = make_view("p0", "p1")
    host = FakeHost(env, "p0", view)
    # Leader delivered 0..1.
    host.channel.on_ordered(ordered(view, 0))
    host.channel.on_ordered(ordered(view, 1))
    done = []
    leader = BranchFlushLeader(
        host, view, 1, {"p0", "p1"},
        on_complete=lambda s, d: done.append(s), on_stall=lambda m: None,
    )
    host.active_leader = leader
    leader.start()
    # p1 reports messages 2..3 beyond the leader's prefix.
    state = FlushState(
        group="g", view_id=view.view_id, round_no=1, member="p1",
        have_upto=3, extra={2: ordered(view, 2), 3: ordered(view, 3)},
    )
    leader.on_flush_state(state)
    assert leader.cut == 3
    # The leader filled itself and delivered to the cut.
    assert host.channel.delivered_upto == 3
    # p1 needs nothing (it already holds everything): its fill is empty.
    fills = [(d, m) for d, m in host.reliable if isinstance(m, FlushFill)]
    assert fills and fills[0][0] == "p1" and fills[0][1].missing == {}
    # Completion after both dones.
    leader.on_flush_done(FlushDone(group="g", view_id=view.view_id, round_no=1, member="p1"))
    assert done and set(done[0]) == {"p0", "p1"}


def test_stale_round_messages_ignored(env):
    view = make_view("p0", "p1")
    host = FakeHost(env, "p0", view)
    leader = BranchFlushLeader(
        host, view, 5, {"p0", "p1"},
        on_complete=lambda s, d: None, on_stall=lambda m: None,
    )
    host.active_leader = leader
    leader.start()
    stale = FlushState(group="g", view_id=view.view_id, round_no=4, member="p1", have_upto=-1)
    leader.on_flush_state(stale)
    assert leader.cut is None  # not counted


def test_stall_reports_missing_members(env):
    view = make_view("p0", "p1", "p2")
    host = FakeHost(env, "p0", view)
    stalled = []
    leader = BranchFlushLeader(
        host, view, 1, {"p0", "p1", "p2"},
        on_complete=lambda s, d: None, on_stall=lambda m: stalled.append(m),
    )
    host.active_leader = leader
    leader.start()
    env.sim.run_until(env.sim.now + 1_000_000)
    assert stalled and stalled[0] == {"p1", "p2"}


def test_abort_stops_reactions(env):
    view = make_view("p0", "p1")
    host = FakeHost(env, "p0", view)
    completed = []
    leader = BranchFlushLeader(
        host, view, 1, {"p0", "p1"},
        on_complete=lambda s, d: completed.append(True), on_stall=lambda m: None,
    )
    host.active_leader = leader
    leader.start()
    leader.abort()
    state = FlushState(group="g", view_id=view.view_id, round_no=1, member="p1", have_upto=-1)
    leader.on_flush_state(state)
    assert leader.cut is None
    assert not completed


def test_participant_round_precedence(env):
    """A higher round supersedes; an equal round from a junior leader not."""
    view = make_view("p0", "p1", "p2")
    host = FakeHost(env, "p1", view)
    stop_a = Stop(group="g", view_id=view.view_id, round_no=1, leader="p2")
    host.participant.on_stop(stop_a)
    assert host.participant.leader == "p2"
    # Same round from the more senior p0 takes over.
    stop_b = Stop(group="g", view_id=view.view_id, round_no=1, leader="p0")
    host.participant.on_stop(stop_b)
    assert host.participant.leader == "p0"
    # Same round from the junior p2 again is ignored.
    host.participant.on_stop(stop_a)
    assert host.participant.leader == "p0"
    # A higher round from anyone wins.
    stop_c = Stop(group="g", view_id=view.view_id, round_no=2, leader="p2")
    host.participant.on_stop(stop_c)
    assert host.participant.leader == "p2"


def test_participant_restarted_round_resends_state_without_new_stop_upcall(env):
    view = make_view("p0", "p1")
    host = FakeHost(env, "p1", view)
    host.participant.on_stop(Stop(group="g", view_id=view.view_id, round_no=1, leader="p0"))
    assert host.stop_raised == 1
    states = [m for d, m in host.reliable if isinstance(m, FlushState)]
    assert len(states) == 1
    host.participant.on_stop(Stop(group="g", view_id=view.view_id, round_no=2, leader="p0"))
    assert host.stop_raised == 1  # the user already acknowledged
    states = [m for d, m in host.reliable if isinstance(m, FlushState)]
    assert len(states) == 2


def test_participant_ignores_foreign_view(env):
    view = make_view("p0", "p1")
    host = FakeHost(env, "p1", view)
    foreign = Stop(group="g", view_id=ViewId("zz", 9), round_no=1, leader="p0")
    host.participant.on_stop(foreign)
    assert host.participant.leader is None


def _leader_past_the_cut(env):
    """p0 leads a flush of (p0, p1, p2); every state is in, so the cut
    is computed and the leader waits on FlushDone from p1 and p2."""
    view = make_view("p0", "p1", "p2")
    host = FakeHost(env, "p0", view)
    stalled, done = [], []
    leader = BranchFlushLeader(
        host, view, 1, {"p0", "p1", "p2"},
        on_complete=lambda s, d: done.append(s), on_stall=stalled.append,
    )
    host.active_leader = leader
    leader.start()
    for member in ("p1", "p2"):
        leader.on_flush_state(
            FlushState(group="g", view_id=view.view_id, round_no=1, member=member, have_upto=-1)
        )
    assert leader.cut == -1
    return view, leader, stalled, done


def flush_done(view, member, round_no=1):
    return FlushDone(group="g", view_id=view.view_id, round_no=round_no, member=member)


def test_stall_after_the_cut_names_the_members_that_never_acknowledged(env):
    view, leader, stalled, _ = _leader_past_the_cut(env)
    leader.on_flush_done(flush_done(view, "p1"))
    assert leader.missing_participants() == {"p2"}
    env.sim.run_until(env.sim.now + 1_000_000)
    assert stalled == [{"p2"}]


def test_flush_done_from_a_wrong_round_or_a_stranger_is_not_counted(env):
    view, leader, _, done = _leader_past_the_cut(env)
    leader.on_flush_done(flush_done(view, "p1", round_no=0))
    leader.on_flush_done(flush_done(view, "p9"))
    assert leader.missing_participants() == {"p1", "p2"}
    leader.on_flush_done(flush_done(view, "p1"))
    leader.on_flush_done(flush_done(view, "p2"))
    assert done == [("p0", "p1", "p2")]


def test_flush_done_before_the_cut_is_not_counted(env):
    view = make_view("p0", "p1")
    host = FakeHost(env, "p0", view)
    leader = BranchFlushLeader(
        host, view, 1, {"p0", "p1"},
        on_complete=lambda s, d: None, on_stall=lambda m: None,
    )
    host.active_leader = leader
    leader.start()
    leader.on_flush_done(flush_done(view, "p1"))  # overtook p1's own state
    assert leader.cut is None and leader.missing_participants() == {"p1"}


def test_flush_state_from_a_non_participant_is_ignored(env):
    view = make_view("p0", "p1", "p2")
    host = FakeHost(env, "p0", view)
    leader = BranchFlushLeader(
        host, view, 1, {"p0", "p1"},  # p2 is suspected: not asked
        on_complete=lambda s, d: None, on_stall=lambda m: None,
    )
    host.active_leader = leader
    leader.start()
    leader.on_flush_state(
        FlushState(group="g", view_id=view.view_id, round_no=1, member="p2", have_upto=-1)
    )
    assert leader.missing_participants() == {"p1"}


def test_equal_round_from_a_leader_outside_the_view_is_refused(env):
    view = make_view("p0", "p1")
    host = FakeHost(env, "p1", view)
    host.participant.on_stop(Stop(group="g", view_id=view.view_id, round_no=1, leader="p0"))
    host.participant.on_stop(Stop(group="g", view_id=view.view_id, round_no=1, leader="p9"))
    assert host.participant.leader == "p0"


def test_duplicate_stop_while_awaiting_stop_ok_raises_no_second_upcall(env):
    view = make_view("p0", "p1")
    host = FakeHost(env, "p1", view)
    host.auto_stop_ok = False
    stop = Stop(group="g", view_id=view.view_id, round_no=1, leader="p0")
    host.participant.on_stop(stop)
    host.participant.on_stop(stop)
    assert host.stop_raised == 1
    host.participant.stop_acknowledged()
    assert [m for _, m in host.reliable if isinstance(m, FlushState)] != []


def test_fill_for_another_view_or_round_is_not_applied(env):
    view = make_view("p0", "p1")
    host = FakeHost(env, "p1", view)
    host.participant.on_stop(Stop(group="g", view_id=view.view_id, round_no=2, leader="p0"))
    fills = [
        FlushFill(group="g", view_id=ViewId("p0", 0), round_no=2, cut=0,
                  missing={0: ordered(view, 0)}),
        FlushFill(group="g", view_id=view.view_id, round_no=1, cut=0,
                  missing={0: ordered(view, 0)}),
    ]
    for fill in fills:
        host.participant.on_fill(fill)
    assert host.delivered == []
    assert not [m for _, m in host.reliable if isinstance(m, FlushDone)]
