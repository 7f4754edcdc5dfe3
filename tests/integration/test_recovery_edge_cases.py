"""Recovery edge cases: crashes landing in protocol-window blind spots.

Each test aims a crash at a specific in-flight window — a merge round,
a Merkle descent, a view installation, a batch flush/ack gap, a
whole-roster naming outage — and asserts the system heals back to full
convergence with every invariant checker still armed.
"""

from repro.core import LwgListener
from repro.core.service import MAPPING_AUDIT_PERIOD_US
from repro.core.ids import lwg_id
from repro.sim import SECOND
from repro.vsync.hwg import EndpointState
from repro.vsync.messages import InstallView
from repro.workloads import Cluster


def converged(handles, size):
    views = [h.view for h in handles]
    return (
        all(v is not None for v in views)
        and len({v.view_id for v in views}) == 1
        and all(len(v.members) == size for v in views)
    )


class Counter(LwgListener):
    def __init__(self):
        self.total = 0

    def on_data(self, lwg, src, payload, size):
        self.total += payload

    def get_state(self, lwg):
        return self.total

    def on_state(self, lwg, state):
        self.total = state


# ----------------------------------------------------------------------
# 1. Crash-recover in the middle of an in-flight merge round
# ----------------------------------------------------------------------
def test_rejoin_during_inflight_merge_round():
    """A member crashing mid-merge must not wedge the round; it rejoins."""
    cluster = Cluster(num_processes=4, seed=31, num_name_servers=2)
    cluster.partition(["p0", "p1", "ns0"], ["p2", "p3", "ns1"])
    handles = [cluster.service(i).join("g") for i in range(4)]
    assert cluster.run_until(
        lambda: converged(handles[:2], 2) and converged(handles[2:], 2),
        timeout_us=30 * SECOND,
    )
    merge_seen = []
    cluster.env.tracer.subscribe(
        lambda r: merge_seen.append(r) if r.event == "merge_views_triggered" else None
    )
    cluster.heal()
    # Step until a merge round is actually in flight, then yank p3.
    assert cluster.run_until(lambda: bool(merge_seen), timeout_us=30 * SECOND)
    cluster.crash("p3")
    cluster.run_for_seconds(1)
    cluster.recover("p3")
    assert cluster.run_until(
        lambda: converged(handles[:3], 3), timeout_us=60 * SECOND
    )
    # The recovered node rejoins from scratch and the group re-forms.
    handles[3] = cluster.service("p3").join("g")
    assert cluster.run_until(lambda: converged(handles, 4), timeout_us=60 * SECOND)
    cluster.run_for_seconds(5)
    cluster.check_invariants()


# ----------------------------------------------------------------------
# 2. A blank reboot in the middle of a Merkle descent
# ----------------------------------------------------------------------
def test_blank_reboot_mid_merkle_descent():
    """Crashing a server mid-descent still converges.

    The in-flight descent session dies with the server (peers' stale
    steps are answered by fresh self-describing sessions); the server
    restarts empty and the next gossip tick re-reconciles it.
    """
    cluster = Cluster(num_processes=4, seed=33, num_name_servers=2)
    cluster.partition(["p0", "p1", "ns0"], ["p2", "p3", "ns1"])
    handles_a = [cluster.service(i).join("ga") for i in range(2)]
    handles_b = [cluster.service(i).join("gb") for i in range(2, 4)]
    assert cluster.run_until(
        lambda: converged(handles_a, 2) and converged(handles_b, 2),
        timeout_us=30 * SECOND,
    )
    ns0 = cluster.name_servers["ns0"]
    ns1 = cluster.name_servers["ns1"]
    assert ns0.db.content_hash() != ns1.db.content_hash()
    cluster.heal()
    # An active session on ns0 IS a descent in flight.
    assert cluster.run_until(lambda: bool(ns0._sessions), timeout_us=10 * SECOND)
    cluster.crash("ns0")
    assert not ns0._sessions  # in-flight descent died with the process
    cluster.run_for_seconds(1)
    cluster.recover("ns0")
    assert len(ns0.db) == 0
    assert cluster.run_until(
        lambda: ns0.db.content_hash() == ns1.db.content_hash(),
        timeout_us=60 * SECOND,
    )
    cluster.run_for_seconds(5)
    cluster.check_invariants()


# ----------------------------------------------------------------------
# 2b. Whole-roster outage: the only name server restarts empty
# ----------------------------------------------------------------------
def test_sole_name_server_blank_reboot_relearns_every_mapping():
    """With one name server, its restart loses every record at once.

    No peer holds a copy, so anti-entropy has nothing to ship: the
    coordinators' mapping audit alone re-registers each live mapping,
    within one audit period plus one gossip period.
    """
    cluster = Cluster(num_processes=4, seed=39, num_name_servers=1)
    members = {"ga": (0, 1), "gb": (1, 2, 3), "gc": (0, 3)}
    groups = tuple(members)
    handles = {
        group: [cluster.service(i).join(group) for i in nodes]
        for group, nodes in members.items()
    }
    assert cluster.run_until(
        lambda: all(converged(h, len(h)) for h in handles.values()),
        timeout_us=30 * SECOND,
    )
    ns0 = cluster.name_servers["ns0"]
    before = {group: ns0.db.live_records(lwg_id(group)) for group in groups}
    assert all(len(records) == 1 for records in before.values())

    cluster.crash("ns0")
    cluster.run_for_seconds(1)
    cluster.recover("ns0")
    assert len(ns0.db) == 0
    cluster.run_for(MAPPING_AUDIT_PERIOD_US + 500_000)
    for group in groups:
        local = cluster.service(members[group][0]).table.local(lwg_id(group))
        (record,) = ns0.db.live_records(lwg_id(group))
        assert (record.lwg_view, record.hwg) == (local.view.view_id, local.hwg)
    cluster.run_for_seconds(5)
    cluster.check_invariants()


# ----------------------------------------------------------------------
# 3. Incarnation bump vs a stale InstallView from the previous life
# ----------------------------------------------------------------------
def test_stale_install_view_rejected_after_incarnation_bump():
    """A delayed InstallView from the dead life must not resurrect it."""
    cluster = Cluster(num_processes=3, seed=35)
    handles = [cluster.service(i).join("g") for i in range(3)]
    assert cluster.run_until(lambda: converged(handles, 3), timeout_us=20 * SECOND)
    stack = cluster.stack("p2")
    local = cluster.service("p2").table.local(lwg_id("g"))
    hwg = local.hwg
    old_view = stack.endpoints[hwg].current_view
    old_incarnation = stack.transport.incarnation
    assert "p2" in old_view.members

    cluster.crash("p2")
    cluster.run_for_seconds(2)
    cluster.recover("p2")
    # The new life is durably distinguishable from the old one, and the
    # durable view history brands the pre-crash view as stale.
    assert stack.transport.incarnation > old_incarnation
    assert stack.is_stale_view(hwg, old_view.view_id)

    rejected = []
    cluster.env.tracer.subscribe(
        lambda r: rejected.append(r) if r.event == "stale_install_rejected" else None
    )
    # The instant the endpoint starts (re)joining, replay the pre-crash
    # install as if it had been delayed in the fabric across the crash.
    # (The JOINING window is a few milliseconds wide — the real install
    # arrives as soon as the coordinator's round ends — so polling for it
    # would be a race; the trace hook lands inside it by construction.)
    injected = []

    def replay_old_install(record):
        fields = record.fields
        if (record.event, fields.get("node"), fields.get("group")) != ("join_start", "p2", hwg):
            return
        endpoint = stack.endpoints[hwg]
        assert endpoint.state is EndpointState.JOINING
        endpoint.apply_install(
            "p0", InstallView(group=hwg, view=old_view, via_branch=None)
        )
        injected.append(endpoint.current_view)

    cluster.env.tracer.subscribe(replay_old_install, categories=["hwg"])
    handles[2] = cluster.service("p2").join("g")
    assert cluster.run_until(lambda: bool(injected), timeout_us=20 * SECOND, step_us=1_000)
    assert injected == [None] and rejected, "stale install never exercised"
    # The real join still completes — on a view minted by the new life.
    assert cluster.run_until(lambda: converged(handles, 3), timeout_us=40 * SECOND)
    assert handles[2].view.view_id != old_view.view_id
    cluster.run_for_seconds(5)
    cluster.check_invariants()


# ----------------------------------------------------------------------
# 3b. Fast rejoin under the failure detector's radar
# ----------------------------------------------------------------------
def test_fast_rejoin_evicts_stale_membership_first():
    """A restart quicker than the FD timeout must not reuse the old seat.

    The dead incarnation still sits in the current view, holding a dedup
    floor that would swallow the new life's restarted sender numbering —
    the coordinator must evict it before re-admitting the node as a
    genuine joiner (fresh floor, state snapshot).
    """
    cluster = Cluster(num_processes=3, seed=35)
    handles = [cluster.service(i).join("g") for i in range(3)]
    assert cluster.run_until(lambda: converged(handles, 3), timeout_us=20 * SECOND)
    evictions = []
    cluster.env.tracer.subscribe(
        lambda r: evictions.append(r)
        if r.event == "rejoin_evicts_stale_member"
        else None
    )
    cluster.crash("p2")
    cluster.run_for(100_000)  # well under the suspicion timeout
    assert "p2" in handles[0].view.members  # nobody noticed the crash
    cluster.recover("p2")
    handles[2] = cluster.service("p2").join("g")
    assert cluster.run_until(lambda: converged(handles, 3), timeout_us=90 * SECOND)
    assert evictions, "stale membership was never evicted"
    cluster.run_for_seconds(5)
    cluster.check_invariants()


# ----------------------------------------------------------------------
# 4. Crash between a batch flush and its acks
# ----------------------------------------------------------------------
def test_crash_between_batch_flush_and_ack():
    """The sender dies right after its batch left; survivors agree."""
    cluster = Cluster(num_processes=3, seed=37)
    apps = [Counter() for _ in range(3)]
    handles = [cluster.service(i).join("g", apps[i]) for i in range(3)]
    assert cluster.run_until(lambda: converged(handles, 3), timeout_us=20 * SECOND)
    for value in (1, 2, 3):
        handles[0].send(value, size=16)
    # The burst left as one batch at the end of the send instant: at
    # +3ms it has been multicast but its acks are still in flight back
    # to p0.
    cluster.run_for(3_000)
    cluster.crash("p0")
    assert cluster.run_until(
        lambda: converged(handles[1:], 2), timeout_us=30 * SECOND
    )
    # Virtual synchrony: whatever the survivors delivered of the dying
    # batch, they delivered identically (the view-change flush settles
    # it); the delivery/transition checkers stay armed throughout.
    assert apps[1].total == apps[2].total
    cluster.recover("p0")
    cluster.run_for_seconds(1)
    apps[0] = Counter()
    handles[0] = cluster.service("p0").join("g", apps[0])
    assert cluster.run_until(lambda: converged(handles, 3), timeout_us=40 * SECOND)
    cluster.run_for_seconds(5)
    cluster.check_invariants()
    assert apps[0].total == apps[1].total == apps[2].total
