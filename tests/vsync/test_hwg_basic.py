"""Integration tests for HWG endpoints on a live simulated network."""

from tests.helpers import RecordingListener, converged, make_group, run_until

from repro.sim import SECOND
from repro.vsync import EndpointState, GroupAddressing, ProtocolStack


def test_single_join_founds_singleton_view(env):
    stacks, endpoints, listeners = make_group(env, 1)
    env.sim.run_until(1 * SECOND)
    view = endpoints[0].current_view
    assert view is not None
    assert view.members == ("p0",)
    assert view.parents == ()
    assert listeners[0].views[0] is view


def test_two_joiners_converge(env):
    stacks, endpoints, _ = make_group(env, 2)
    assert run_until(env, lambda: converged(endpoints, 2))


def test_five_joiners_converge(env):
    stacks, endpoints, _ = make_group(env, 5)
    assert run_until(env, lambda: converged(endpoints, 5), timeout_s=15)


def test_staggered_join(env):
    stacks, endpoints, _ = make_group(env, 2)
    assert run_until(env, lambda: converged(endpoints, 2))
    late_stack = ProtocolStack(env, "late", stacks[0].addressing)
    late_listener = RecordingListener("late")
    late = late_stack.endpoint("g", late_listener)
    late.join()
    assert run_until(env, lambda: converged(endpoints + [late], 3))
    # Existing members observed the join as a view change, not a reset.
    assert endpoints[0].current_view.parents != ()


def test_all_members_deliver_same_ordered_sequence(env):
    stacks, endpoints, listeners = make_group(env, 4)
    assert run_until(env, lambda: converged(endpoints, 4))
    endpoints[0].send("a")
    endpoints[1].send("b")
    endpoints[2].send("c")
    env.sim.run_until(env.sim.now + 2 * SECOND)
    sequences = [tuple(l.data) for l in listeners]
    assert all(len(s) == 3 for s in sequences)
    assert len(set(sequences)) == 1  # identical order everywhere


def test_sender_receives_own_messages(env):
    stacks, endpoints, listeners = make_group(env, 3)
    assert run_until(env, lambda: converged(endpoints, 3))
    endpoints[0].send("self-delivery")
    env.sim.run_until(env.sim.now + 1 * SECOND)
    assert ("p0", "self-delivery") in listeners[0].data


def test_send_before_join_completes_is_buffered(env):
    """Sends while joining are queued and delivered in the first view.

    The first view may predate other joiners (virtual synchrony: a
    message belongs to the view it is sent in), so the guarantee is
    delivery at the sender's own first view membership — not at members
    that only arrive later.
    """
    stacks, endpoints, listeners = make_group(env, 2)
    endpoints[0].send("early")  # both still joining
    assert run_until(env, lambda: converged(endpoints, 2))
    env.sim.run_until(env.sim.now + 1 * SECOND)
    assert ("p0", "early") in listeners[0].data


def test_send_while_idle_raises(env):
    addressing = GroupAddressing()
    stack = ProtocolStack(env, "p0", addressing)
    endpoint = stack.endpoint("g")
    try:
        endpoint.send("x")
        raised = False
    except RuntimeError:
        raised = True
    assert raised


def test_leave_shrinks_view(env):
    stacks, endpoints, listeners = make_group(env, 3)
    assert run_until(env, lambda: converged(endpoints, 3))
    endpoints[2].leave()
    assert run_until(env, lambda: converged(endpoints[:2], 2))
    assert run_until(env, lambda: listeners[2].lefts == 1)
    assert endpoints[2].state is EndpointState.IDLE
    assert "p2" not in endpoints[0].current_view.members


def test_coordinator_leave_hands_over(env):
    stacks, endpoints, listeners = make_group(env, 3)
    assert run_until(env, lambda: converged(endpoints, 3))
    coordinator = endpoints[0].current_view.coordinator
    index = int(coordinator[1:])
    endpoints[index].leave()
    survivors = [e for i, e in enumerate(endpoints) if i != index]
    assert run_until(env, lambda: converged(survivors, 2))
    assert survivors[0].current_view.coordinator != coordinator


def test_last_member_leave_dissolves_group(env):
    stacks, endpoints, listeners = make_group(env, 1)
    env.sim.run_until(1 * SECOND)
    endpoints[0].leave()
    env.sim.run_until(env.sim.now + 1 * SECOND)
    assert endpoints[0].state is EndpointState.IDLE
    assert listeners[0].lefts == 1


def test_stop_upcall_raised_during_view_change(env):
    stacks, endpoints, listeners = make_group(env, 3)
    assert run_until(env, lambda: converged(endpoints, 3))
    stops_before = listeners[0].stops
    late_stack = ProtocolStack(env, "late", stacks[0].addressing)
    late = late_stack.endpoint("g", RecordingListener("late"))
    late.join()
    assert run_until(env, lambda: converged(endpoints + [late], 4))
    assert listeners[0].stops > stops_before


def test_rejoin_after_leave(env):
    stacks, endpoints, listeners = make_group(env, 2)
    assert run_until(env, lambda: converged(endpoints, 2))
    endpoints[1].leave()
    assert run_until(env, lambda: listeners[1].lefts == 1)
    endpoints[1].join()
    assert run_until(env, lambda: converged(endpoints, 2))


def test_force_refresh_installs_identity_view(env):
    stacks, endpoints, _ = make_group(env, 3)
    assert run_until(env, lambda: converged(endpoints, 3))
    old = endpoints[0].current_view
    coord = old.coordinator
    ep = next(e for e in endpoints if e.node == coord)
    ep.force_refresh()
    assert run_until(
        env,
        lambda: all(
            e.current_view is not None and e.current_view.view_id != old.view_id
            for e in endpoints
        ),
    )
    new = endpoints[0].current_view
    assert set(new.members) == set(old.members)
    assert old.view_id in new.parents


def test_views_installed_counter(env):
    stacks, endpoints, _ = make_group(env, 2)
    assert run_until(env, lambda: converged(endpoints, 2))
    assert endpoints[0].views_installed >= 1


def test_leaving_member_that_installs_a_merged_view_completes_its_leave(env):
    """p3 starts leaving just as its side's coordinator agrees to a merge:
    the merged view installs at p3 before any round takes the leave.  It
    must stay LEAVING through that install and finish leaving after it."""
    stacks, endpoints, listeners = make_group(env, 4)
    assert run_until(env, lambda: converged(endpoints, 4))
    env.network.set_partitions([["p0", "p1"], ["p2", "p3"]])
    assert run_until(env, lambda: converged(endpoints[:2], 2), timeout_s=15)
    assert run_until(env, lambda: converged(endpoints[2:], 2), timeout_s=15)
    right = endpoints[2].current_view
    leaver = next(e for e in endpoints[2:] if e.node != right.coordinator)
    states_at_merge = []

    def on_record(record):
        if record.event == "merge_accept" and record.fields["node"] == right.coordinator:
            leaver.leave()

    def on_view(group, view, _on_view=leaver.listener.on_view):
        if len(view.members) == 4:
            states_at_merge.append(leaver.state)
        _on_view(group, view)

    leaver.listener.on_view = on_view
    env.tracer.subscribe(on_record, categories=["hwg"])
    env.network.heal()
    survivors = [e for e in endpoints if e is not leaver]
    assert run_until(env, lambda: converged(survivors, 3), timeout_s=20)
    assert states_at_merge == [EndpointState.LEAVING]
    assert run_until(env, lambda: leaver.listener.lefts == 1)
    assert leaver.state is EndpointState.IDLE


def test_coordinator_whose_own_leave_is_in_the_round_finishes_leaving(env):
    """The coordinator asks to leave while it runs a refresh round: the
    refreshed view installs with it still LEAVING, the next round takes
    its leave, and it ends IDLE holding no round."""
    stacks, endpoints, listeners = make_group(env, 3)
    assert run_until(env, lambda: converged(endpoints, 3))
    coordinator = next(
        e for e in endpoints if e.node == endpoints[0].current_view.coordinator
    )
    coordinator.force_refresh()
    assert coordinator.vcm.round is not None
    coordinator.leave()
    survivors = [e for e in endpoints if e is not coordinator]
    assert run_until(env, lambda: converged(survivors, 2))
    assert coordinator.state is EndpointState.IDLE
    assert coordinator.vcm.round is None
    assert listeners[endpoints.index(coordinator)].lefts == 1
