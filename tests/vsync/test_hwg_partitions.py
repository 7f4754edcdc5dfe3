"""Partition behaviour of the HWG substrate: splits, merges, crashes."""

from tests.helpers import RecordingListener, converged, make_group, run_until

from repro.sim import SECOND
from repro.vsync import GroupAddressing, ProtocolStack
from repro.vsync.messages import StabilityAck


def split(env, endpoints, listeners, sides):
    """Partition and wait until each side has its own full view."""
    env.network.set_partitions(sides)
    by_node = {e.node: e for e in endpoints}
    for side in sides:
        eps = [by_node[n] for n in side if n in by_node]
        assert run_until(env, lambda eps=eps, k=len(eps): converged(eps, k), timeout_s=15)


def test_partition_forms_concurrent_views(env):
    stacks, endpoints, listeners = make_group(env, 4)
    assert run_until(env, lambda: converged(endpoints, 4))
    split(env, endpoints, listeners, [["p0", "p1"], ["p2", "p3"]])
    left = endpoints[0].current_view
    right = endpoints[2].current_view
    assert left.view_id != right.view_id
    assert set(left.members) == {"p0", "p1"}
    assert set(right.members) == {"p2", "p3"}


def test_both_sides_keep_delivering_during_partition(env):
    stacks, endpoints, listeners = make_group(env, 4)
    assert run_until(env, lambda: converged(endpoints, 4))
    split(env, endpoints, listeners, [["p0", "p1"], ["p2", "p3"]])
    endpoints[0].send("left")
    endpoints[3].send("right")
    env.sim.run_until(env.sim.now + 1 * SECOND)
    assert ("p0", "left") in listeners[1].data
    assert ("p3", "right") in listeners[2].data
    assert ("p0", "left") not in listeners[2].data


def test_heal_merges_views_with_genealogy(env):
    stacks, endpoints, listeners = make_group(env, 4)
    assert run_until(env, lambda: converged(endpoints, 4))
    split(env, endpoints, listeners, [["p0", "p1"], ["p2", "p3"]])
    left_id = endpoints[0].current_view.view_id
    right_id = endpoints[2].current_view.view_id
    env.network.heal()
    assert run_until(env, lambda: converged(endpoints, 4), timeout_s=20)
    merged = endpoints[0].current_view
    assert left_id in merged.parents
    assert right_id in merged.parents


def test_merged_view_has_union_membership(env):
    stacks, endpoints, listeners = make_group(env, 5)
    assert run_until(env, lambda: converged(endpoints, 5), timeout_s=15)
    split(env, endpoints, listeners, [["p0", "p1", "p2"], ["p3", "p4"]])
    env.network.heal()
    assert run_until(env, lambda: converged(endpoints, 5), timeout_s=25)
    assert set(endpoints[0].current_view.members) == {"p0", "p1", "p2", "p3", "p4"}


def test_three_way_partition_and_heal(env):
    stacks, endpoints, listeners = make_group(env, 6)
    assert run_until(env, lambda: converged(endpoints, 6), timeout_s=15)
    split(
        env, endpoints, listeners,
        [["p0", "p1"], ["p2", "p3"], ["p4", "p5"]],
    )
    ids = {e.current_view.view_id for e in endpoints}
    assert len(ids) == 3
    env.network.heal()
    assert run_until(env, lambda: converged(endpoints, 6), timeout_s=40)


def test_coordinator_crash_promotes_next_member(env):
    stacks, endpoints, listeners = make_group(env, 4)
    assert run_until(env, lambda: converged(endpoints, 4))
    coordinator = endpoints[0].current_view.coordinator
    index = int(coordinator[1:])
    env.failures.crash_now(coordinator)
    survivors = [e for e in endpoints if e.node != coordinator]
    assert run_until(env, lambda: converged(survivors, 3), timeout_s=15)
    assert coordinator not in survivors[0].current_view.members


def test_member_crash_shrinks_view(env):
    stacks, endpoints, listeners = make_group(env, 4)
    assert run_until(env, lambda: converged(endpoints, 4))
    victim = endpoints[0].current_view.members[-1]  # most junior member
    env.failures.crash_now(victim)
    survivors = [e for e in endpoints if e.node != victim]
    assert run_until(env, lambda: converged(survivors, 3), timeout_s=15)


def test_messages_in_flight_at_partition_do_not_split_brains(env):
    stacks, endpoints, listeners = make_group(env, 4)
    assert run_until(env, lambda: converged(endpoints, 4))
    endpoints[0].send("last-gasp")
    env.network.set_partitions([["p0", "p1"], ["p2", "p3"]])
    assert run_until(env, lambda: converged(endpoints[:2], 2), timeout_s=15)
    assert run_until(env, lambda: converged(endpoints[2:], 2), timeout_s=15)
    # Within each surviving branch, delivery is consistent.
    assert listeners[0].data == listeners[1].data
    assert listeners[2].data == listeners[3].data


def test_repeated_split_heal_cycles(env):
    stacks, endpoints, listeners = make_group(env, 4)
    assert run_until(env, lambda: converged(endpoints, 4))
    for _ in range(3):
        split(env, endpoints, listeners, [["p0", "p1"], ["p2", "p3"]])
        env.network.heal()
        assert run_until(env, lambda: converged(endpoints, 4), timeout_s=30)


def test_virtual_partition_short_lived(env):
    """A partition that heals before suspicion must cause no view change."""
    stacks, endpoints, listeners = make_group(env, 4)
    assert run_until(env, lambda: converged(endpoints, 4))
    stable_view = endpoints[0].current_view.view_id
    env.network.set_partitions([["p0", "p1"], ["p2", "p3"]])
    env.sim.run_until(env.sim.now + 100_000)  # well under the FD timeout
    env.network.heal()
    env.sim.run_until(env.sim.now + 2 * SECOND)
    assert all(e.current_view.view_id == stable_view for e in endpoints)


def test_crash_during_partition_then_heal(env):
    stacks, endpoints, listeners = make_group(env, 4)
    assert run_until(env, lambda: converged(endpoints, 4))
    env.network.set_partitions([["p0", "p1"], ["p2", "p3"]])
    assert run_until(env, lambda: converged(endpoints[:2], 2), timeout_s=15)
    env.failures.crash_now("p3")
    assert run_until(env, lambda: converged(endpoints[2:3], 1), timeout_s=15)
    env.network.heal()
    survivors = endpoints[:3]
    assert run_until(env, lambda: converged(survivors, 3), timeout_s=30)


def test_merge_request_is_not_parked_behind_pre_partition_segments(env):
    """After a heal the merge handshake costs round trips, not a backoff.

    p4 is the senior member, so before the cut everyone reports to it;
    the four that end up on p0's side send it stability reports just as
    the cut falls and keep retransmitting them into the partition.  p0
    then leads the merge, and its MergeRequest shares a FIFO channel with
    the segments p4 never got.  (Data is no test of this: a ``Publish``
    is a raw datagram, and the sequencer's ``Ordered`` acknowledges it.)
    """
    addressing = GroupAddressing()
    stacks = [ProtocolStack(env, f"p{i}", addressing) for i in range(8)]
    endpoints = [s.endpoint("g", RecordingListener(s.node)) for s in stacks]
    endpoints[4].join()
    assert run_until(env, lambda: endpoints[4].current_view is not None)
    for endpoint in endpoints:
        endpoint.join()
    assert run_until(env, lambda: converged(endpoints, 8), timeout_s=20)
    assert endpoints[0].current_view.coordinator == "p4"

    env.network.set_partitions([["p0", "p1", "p2", "p3"], ["p4", "p5", "p6", "p7"]])
    old_view = endpoints[0].current_view.view_id
    for endpoint in endpoints[:4]:
        endpoint.reliable_send(
            "p4",
            StabilityAck(
                group="g", view_id=old_view, member=endpoint.node,
                delivered_upto=endpoint.channel.delivered_upto,
            ),
        )
    for endpoint in endpoints:
        endpoint.send(f"cut-{endpoint.node}")
    env.sim.run_until(env.sim.now + 3 * SECOND)
    assert converged(endpoints[:4], 4) and converged(endpoints[4:], 4)
    assert stacks[0].transport._peer("p4").unacked, "nothing in flight across the cut"

    asked_at = {}
    waits = []

    def on_record(record):
        fields = record.fields
        if record.event == "round_start":
            for node in fields["merges"]:
                asked_at[node] = record.time
        elif record.event == "merge_accept":
            waits.append(record.time - asked_at[fields["node"]])

    env.tracer.subscribe(on_record, categories=["hwg"])
    env.network.heal()
    assert run_until(env, lambda: converged(endpoints, 8), timeout_s=20)
    assert waits and max(waits) < 10_000, waits
