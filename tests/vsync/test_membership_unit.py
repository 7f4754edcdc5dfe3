"""Unit tests for ViewChangeManager decision logic (fake endpoint)."""

from repro.sim import SimRuntime
from repro.vsync.flush import FlushParticipant
from repro.vsync.membership import EndpointState, ViewChangeManager
from repro.vsync.stack import VsyncConfig
from repro.vsync.messages import (
    InstallView,
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
        self.config = VsyncConfig()

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


def test_merge_request_declined_on_stale_target_view(env):
    endpoint = make(env, node="p0")
    request = MergeRequest(
        group="g", leader="pA", leader_view_id=ViewId("pA", 5),
        target_view_id=ViewId("p0", 99), epoch=1,  # not our current view
    )
    endpoint.vcm.on_merge_request("pA", request)
    declines = [m for _, m in endpoint.sent if isinstance(m, MergeDecline)]
    assert len(declines) == 1


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
