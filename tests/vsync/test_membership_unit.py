"""Unit tests for ViewChangeManager decision logic (fake endpoint)."""

from repro.vsync.flush import FlushParticipant
from repro.vsync.membership import (
    INSTALL_TIMEOUT_US,
    MERGE_BRANCH_TIMEOUT_US,
    MERGE_DEFER_WINDOW_US,
    EndpointState,
    ViewChangeManager,
)
from repro.vsync.messages import (
    BranchFlushed,
    InstallView,
    JoinRequest,
    LeaveRequest,
    MergeDecline,
    MergeRequest,
    Presence,
)
from repro.vsync.total_order import OrderedChannel
from repro.vsync.view import View, ViewId


class FakeFd:
    def __init__(self):
        self.suspected = set()

    def is_suspected(self, peer):
        return peer in self.suspected


class FakeStack:
    def __init__(self):
        self.seq = 100

    def next_view_seq(self):
        self.seq += 1
        return self.seq


class FakeEndpoint:
    def __init__(self, env, node, view):
        self.env = env
        self.node = node
        self.group = "g"
        self.state = EndpointState.MEMBER
        self.current_view = view
        self.known_ancestors = set()
        self.fd = FakeFd()
        self.stack = FakeStack()
        self.sent = []
        self.installed = []
        self.seceded = 0
        self.channel = OrderedChannel(self)
        self.channel.install_view(view, {})
        self.participant = FlushParticipant(self)

    # messaging used by the manager and flush machinery
    def reliable_send(self, dst, msg):
        self.sent.append((dst, msg))

    def multicast_view(self, msg, size):
        pass

    def deliver_data(self, *args):
        pass

    def raise_stop(self):
        self.participant.stop_acknowledged()

    def handle_stop_locally(self, stop):
        self.participant.on_stop(stop)

    def handle_fill_locally(self, fill):
        self.participant.on_fill(fill)

    def route_flush_state_locally(self, state):
        if self.vcm.round is not None and self.vcm.round.flush is not None:
            self.vcm.round.flush.on_flush_state(state)
        elif self.vcm.subordinate is not None and self.vcm.subordinate.flush is not None:
            self.vcm.subordinate.flush.on_flush_state(state)

    def route_flush_done_locally(self, done):
        if self.vcm.round is not None and self.vcm.round.flush is not None:
            self.vcm.round.flush.on_flush_done(done)
        elif self.vcm.subordinate is not None and self.vcm.subordinate.flush is not None:
            self.vcm.subordinate.flush.on_flush_done(done)

    def apply_install(self, src, msg):
        self.installed.append(msg)

    def capture_state(self):
        return None

    def secede(self):
        self.seceded += 1

    def trace(self, event, **fields):
        pass


def make(env, node="p0", members=("p0", "p1", "p2")):
    view = View("g", ViewId(members[0], 1), tuple(members))
    endpoint = FakeEndpoint(env, node, view)
    endpoint.vcm = ViewChangeManager(endpoint)
    return endpoint


def presence(view_id, members, ):
    return Presence(group="g", view_id=view_id, members=tuple(members))


def merge_request(endpoint, leader, epoch, target_view_id=None):
    return MergeRequest(
        group="g", leader=leader, leader_view_id=ViewId(leader, 5),
        target_view_id=target_view_id or endpoint.current_view.view_id,
        epoch=epoch,
    )


def sent_of(endpoint, kind):
    return [m for _, m in endpoint.sent if isinstance(m, kind)]


def test_acting_coordinator_skips_suspects(env):
    endpoint = make(env, node="p1")
    assert endpoint.vcm.acting_coordinator() == "p0"
    endpoint.fd.suspected.add("p0")
    assert endpoint.vcm.acting_coordinator() == "p1"
    assert endpoint.vcm.am_leader()


def test_self_is_never_skipped_as_coordinator(env):
    endpoint = make(env, node="p0")
    # Even if (absurdly) we appear in the suspected set, we count ourselves.
    endpoint.fd.suspected.add("p0")
    assert endpoint.vcm.acting_coordinator() == "p0"


def test_merge_duel_rule_smaller_id_leads(env):
    endpoint = make(env, node="p0")  # coordinator, id p0
    foreign = presence(ViewId("p5", 3), ["p5", "p6"])
    endpoint.vcm.on_presence("p5", foreign)
    # p0 < p5: we lead — a round with a MergeRequest goes out.
    requests = [m for _, m in endpoint.sent if isinstance(m, MergeRequest)]
    assert len(requests) == 1
    assert requests[0].target_view_id == foreign.view_id


def test_merge_duel_rule_larger_id_waits(env):
    endpoint = make(env, node="p5", members=("p5", "p6"))
    foreign = presence(ViewId("p0", 3), ["p0", "p1"])
    endpoint.vcm.on_presence("p0", foreign)
    requests = [m for _, m in endpoint.sent if isinstance(m, MergeRequest)]
    assert requests == []  # p0 will lead; we answer its MergeRequest


def test_stale_beacon_from_ancestor_ignored(env):
    endpoint = make(env, node="p0")
    old_id = ViewId("p9", 1)
    endpoint.known_ancestors.add(old_id)
    endpoint.vcm.on_presence("p9", presence(old_id, ["p9"]))
    assert endpoint.vcm.pending_merges == {}


def test_abandonment_needs_two_sightings(env):
    endpoint = make(env, node="p2")
    # Our own coordinator p0 beacons a view that excludes us.
    foreign = presence(ViewId("p0", 9), ["p0", "p1"])
    endpoint.vcm.on_presence("p0", foreign)
    assert endpoint.seceded == 0  # first sighting: remembered only
    endpoint.vcm.on_presence("p0", foreign)
    assert endpoint.seceded == 1  # second sighting: secede


def test_abandonment_ignores_non_coordinator_beacons(env):
    endpoint = make(env, node="p2")
    foreign = presence(ViewId("p9", 9), ["p9"])  # someone else's view
    endpoint.vcm.on_presence("p9", foreign)
    endpoint.vcm.on_presence("p9", foreign)
    assert endpoint.seceded == 0
    # Non-leaders do not collect merge candidates either — merging is the
    # acting coordinator's job.
    assert endpoint.vcm.pending_merges == {}


def test_merge_request_declined_when_not_leader(env):
    endpoint = make(env, node="p1")  # not the coordinator
    request = MergeRequest(
        group="g", leader="p0", leader_view_id=ViewId("p0", 5),
        target_view_id=endpoint.current_view.view_id, epoch=1,
    )
    endpoint.vcm.on_merge_request("p0", request)
    declines = [m for _, m in endpoint.sent if isinstance(m, MergeDecline)]
    assert len(declines) == 1


def test_merge_request_with_stale_target_view_accepted_from_smaller_leader(env):
    """The target names whatever beacon the leader saw last; our view id
    may have moved on since.  The flush covers the *current* view, so a
    stale hint from a leader entitled to absorb us is not a reason to
    decline."""
    endpoint = make(env, node="p5", members=("p5", "p6"))
    request = merge_request(endpoint, "p0", epoch=1, target_view_id=ViewId("p5", 99))
    endpoint.vcm.on_merge_request("p0", request)
    assert endpoint.vcm.subordinate is not None
    assert endpoint.vcm.subordinate.leader == "p0"
    assert sent_of(endpoint, MergeDecline) == []


def test_merge_request_declined_when_leader_id_larger(env):
    endpoint = make(env, node="p0")
    request = MergeRequest(
        group="g", leader="p9", leader_view_id=ViewId("p9", 5),
        target_view_id=endpoint.current_view.view_id, epoch=1,
    )
    endpoint.vcm.on_merge_request("p9", request)
    declines = [m for _, m in endpoint.sent if isinstance(m, MergeDecline)]
    assert len(declines) == 1  # duel rule: smaller id leads, p9 may not


def test_merge_request_accepted_starts_subordinate_flush(env):
    endpoint = make(env, node="p1", members=("p1", "p2"))
    request = MergeRequest(
        group="g", leader="p0", leader_view_id=ViewId("p0", 5),
        target_view_id=endpoint.current_view.view_id, epoch=7,
    )
    endpoint.vcm.on_merge_request("p0", request)
    assert endpoint.vcm.subordinate is not None
    assert endpoint.vcm.subordinate.leader == "p0"
    declines = [m for _, m in endpoint.sent if isinstance(m, MergeDecline)]
    assert declines == []


def test_leader_mid_round_yields_to_smaller_merge_leader(env):
    """Leader order is total: N leaders each mid-round would otherwise
    decline each other forever."""
    endpoint = make(env, node="p5", members=("p5", "p6"))
    endpoint.vcm.request_refresh()  # our own round, flush waiting on p6
    own_round = endpoint.vcm.round
    assert own_round is not None
    endpoint.vcm.on_merge_request("p0", merge_request(endpoint, "p0", epoch=3))
    assert endpoint.vcm.round is None
    assert own_round.flush.aborted
    assert endpoint.vcm.subordinate.leader == "p0"
    assert sent_of(endpoint, MergeDecline) == []


def test_same_leader_retry_repairs_epoch_without_report_while_flushing(env):
    endpoint = make(env, node="p5", members=("p5", "p6"))
    endpoint.vcm.on_merge_request("p0", merge_request(endpoint, "p0", epoch=7))
    sub = endpoint.vcm.subordinate
    assert not sub.reported  # branch flush still waiting on p6
    endpoint.vcm.on_merge_request("p0", merge_request(endpoint, "p0", epoch=8))
    assert endpoint.vcm.subordinate is sub and sub.epoch == 8
    assert sent_of(endpoint, BranchFlushed) == []
    assert sent_of(endpoint, MergeDecline) == []


def test_same_leader_retry_is_rereported_once_flushed(env):
    endpoint = make(env, node="p5", members=("p5",))
    endpoint.vcm.on_merge_request("p0", merge_request(endpoint, "p0", epoch=7))
    # A singleton branch flushes on the spot and reports under epoch 7.
    assert [m.epoch for m in sent_of(endpoint, BranchFlushed)] == [7]
    endpoint.vcm.on_merge_request("p0", merge_request(endpoint, "p0", epoch=8))
    reports = sent_of(endpoint, BranchFlushed)
    assert [m.epoch for m in reports] == [7, 8]
    assert reports[1].branch_view == endpoint.current_view
    assert sent_of(endpoint, MergeDecline) == []


def test_subordinate_declines_a_different_leader(env):
    endpoint = make(env, node="p5", members=("p5", "p6"))
    endpoint.vcm.on_merge_request("p0", merge_request(endpoint, "p0", epoch=7))
    endpoint.vcm.on_merge_request("p2", merge_request(endpoint, "p2", epoch=4))
    assert endpoint.vcm.subordinate.leader == "p0"
    assert endpoint.sent[-1] == (
        "p2", MergeDecline(group="g", decliner="p5", epoch=4)
    )


def _singleton_leader_in_second_merge_round(env):
    """p0 alone, leading its second merge round toward p5's branch: the
    first one (epoch 1) timed out waiting for BranchFlushed."""
    endpoint = make(env, node="p0", members=("p0",))
    foreign = presence(ViewId("p5", 3), ["p5", "p6"])
    endpoint.vcm.on_presence("p5", foreign)
    env.run_for(MERGE_BRANCH_TIMEOUT_US)
    assert endpoint.vcm.round is None
    endpoint.vcm.on_presence("p5", foreign)
    assert endpoint.vcm.round.epoch == 2
    return endpoint


def _flushed(epoch):
    branch = View("g", ViewId("p5", 3), ("p5", "p6"))
    return BranchFlushed(
        group="g", epoch=epoch, branch_view=branch,
        survivors=branch.members, dedup={}, branch_coordinator="p5",
    )


def test_branch_flushed_for_an_older_epoch_answers_the_live_round(env):
    """The branch stays frozen at its cut until we install, so a report
    that outlived the round that asked for it is still good — demanding
    the exact epoch livelocks when every reply lands just after its
    round timed out."""
    endpoint = _singleton_leader_in_second_merge_round(env)
    endpoint.vcm.on_branch_flushed(_flushed(epoch=1))
    assert [m.view.members for m in endpoint.installed] == [("p0", "p5", "p6")]


def test_branch_flushed_for_a_newer_epoch_is_ignored(env):
    endpoint = _singleton_leader_in_second_merge_round(env)
    live_round = endpoint.vcm.round
    endpoint.vcm.on_branch_flushed(_flushed(epoch=3))
    assert endpoint.vcm.round is live_round
    assert endpoint.installed == []


def test_fruitless_singleton_merge_round_keeps_its_view(env):
    """A new view id would invalidate the Presence every other leader is
    about to target us with; N healing singletons would churn each
    other's merge targets forever."""
    endpoint = make(env, node="p0", members=("p0",))
    view_id = endpoint.current_view.view_id
    endpoint.vcm.on_presence("p5", presence(ViewId("p5", 3), ["p5", "p6"]))
    assert endpoint.channel.frozen  # own flush done, waiting on p5
    epoch = endpoint.vcm.round.epoch
    endpoint.vcm.on_merge_decline(MergeDecline(group="g", decliner="p5", epoch=epoch))
    assert endpoint.vcm.round is None
    assert endpoint.installed == []
    assert endpoint.current_view.view_id == view_id
    assert endpoint.stack.seq == 100  # no view id consumed
    assert not endpoint.channel.frozen


def test_singleton_subordinate_resumes_when_leader_goes_quiet(env):
    """Same reasoning on the other side: a recovery view of one member
    tells nobody anything and strands the (merely congested) leader's
    retry."""
    endpoint = make(env, node="p5", members=("p5",))
    view_id = endpoint.current_view.view_id
    endpoint.vcm.on_merge_request("p0", merge_request(endpoint, "p0", epoch=7))
    assert endpoint.channel.frozen and endpoint.vcm.subordinate.reported
    env.run_for(INSTALL_TIMEOUT_US)
    assert endpoint.vcm.subordinate is None and endpoint.vcm.round is None
    assert endpoint.installed == []
    assert endpoint.current_view.view_id == view_id
    assert endpoint.stack.seq == 100
    assert not endpoint.channel.frozen


def test_subordinate_shedding_a_suspect_still_installs_a_recovery_view(env):
    endpoint = make(env, node="p5", members=("p5", "p6"))
    endpoint.fd.suspected.add("p6")  # we flush alone, but the view is wider
    endpoint.vcm.on_merge_request("p0", merge_request(endpoint, "p0", epoch=7))
    env.run_for(INSTALL_TIMEOUT_US)
    assert [m.view.members for m in endpoint.installed] == [("p5",)]
    assert endpoint.stack.seq == 101


def _larger_leader_with_deferred_merge(env):
    """p3 leads (p3, p4), has sighted smaller coordinator p0 and then a
    mergeable larger one, p7."""
    endpoint = make(env, node="p3", members=("p3", "p4"))
    endpoint.vcm.on_presence("p0", presence(ViewId("p0", 3), ["p0", "p1"]))
    endpoint.vcm.on_presence("p7", presence(ViewId("p7", 2), ["p7"]))
    return endpoint


def test_merge_only_round_deferred_while_smaller_coordinator_is_fresh(env):
    """p0 will absorb both of us; a competing round toward p7 only adds
    a leader to the heal storm."""
    endpoint = _larger_leader_with_deferred_merge(env)
    assert endpoint.vcm.round is None
    assert "p7" in endpoint.vcm.pending_merges  # queued, not dropped
    env.run_for(MERGE_DEFER_WINDOW_US - 1)
    endpoint.vcm.maybe_start()
    assert endpoint.vcm.round is None
    env.run_for(1)  # p0's beacons stopped: the window lapses
    endpoint.vcm.maybe_start()
    assert [m.target_view_id for m in sent_of(endpoint, MergeRequest)] == [ViewId("p7", 2)]


def test_deferral_never_holds_back_a_suspicion(env):
    endpoint = _larger_leader_with_deferred_merge(env)
    endpoint.fd.suspected.add("p4")
    endpoint.vcm.on_suspicion_change("p4", True)
    assert endpoint.vcm.round is not None
    assert endpoint.vcm.round.suspects == {"p4"}


def test_deferral_never_holds_back_a_join(env):
    endpoint = _larger_leader_with_deferred_merge(env)
    endpoint.vcm.on_join_request(JoinRequest(group="g", joiner="p9"))
    assert endpoint.vcm.round is not None
    assert endpoint.vcm.round.joins == {"p9"}


def test_no_round_without_triggers(env):
    endpoint = make(env, node="p0")
    endpoint.vcm.maybe_start()
    assert endpoint.vcm.round is None


def test_refresh_request_starts_identity_round(env):
    endpoint = make(env, node="p0")
    endpoint.vcm.request_refresh()
    assert endpoint.vcm.round is not None


def test_leave_request_from_forgotten_node_gets_release(env):
    """A leaver the view already excluded must be released, not ignored.

    Regression: a node that started leaving while partitioned away is
    excluded from the view as a suspect; after the heal its leave
    retries target a view that forgot it, and without an explicit
    release its endpoint stays wedged in LEAVING forever (and can never
    rejoin the group).
    """
    endpoint = make(env, node="p0")  # view members p0,p1,p2 — no p9
    endpoint.vcm.on_leave_request(LeaveRequest(group="g", leaver="p9"))
    releases = [
        (dst, m) for dst, m in endpoint.sent
        if isinstance(m, InstallView) and m.view is None
    ]
    assert releases == [("p9", releases[0][1])]
    assert endpoint.vcm.round is None  # no view change for a ghost leaver


def test_leave_request_from_member_still_starts_round(env):
    endpoint = make(env, node="p0")
    endpoint.vcm.on_leave_request(LeaveRequest(group="g", leaver="p2"))
    assert endpoint.vcm.round is not None
    assert "p2" in endpoint.vcm.round.leaves
    # No release short-circuit for a live member.
    assert not any(
        isinstance(m, InstallView) and m.view is None for _, m in endpoint.sent
    )


def test_leave_request_at_non_leader_member_is_ignored(env):
    endpoint = make(env, node="p1")  # p0 coordinates
    endpoint.vcm.on_leave_request(LeaveRequest(group="g", leaver="p2"))
    assert endpoint.vcm.round is None
    assert endpoint.sent == []


def install_successor(endpoint, members):
    """What HwgEndpoint._install does to the manager: a new view, round over."""
    old = endpoint.current_view
    endpoint.current_view = View(
        "g", ViewId("p0", old.view_id.seq + 1), tuple(members), parents=(old.view_id,)
    )
    endpoint.participant.reset()
    endpoint.vcm.round_completed()
    endpoint.vcm.maybe_start()


def test_spent_leave_does_not_expel_the_node_after_it_rejoins(env):
    """A LeaveRequest retry that lands while its own round runs is spent
    with that round: the node rejoins later and the next round keeps it."""
    endpoint = make(env, node="p0")
    vcm = endpoint.vcm
    leave = LeaveRequest(group="g", leaver="p2")
    vcm.on_leave_request(leave)
    assert vcm.round.leaves == {"p2"}
    vcm.on_leave_request(leave)  # the leaver's retry, while its round runs
    install_successor(endpoint, ("p0", "p1"))
    assert vcm.round is None
    vcm.on_join_request(JoinRequest(group="g", joiner="p2"))
    assert vcm.round.joins == {"p2"} and vcm.round.leaves == set()
    install_successor(endpoint, ("p0", "p1", "p2"))
    assert vcm.round is None  # no round expelling the rejoined node
    vcm.request_refresh()
    assert vcm.round.leaves == set()
