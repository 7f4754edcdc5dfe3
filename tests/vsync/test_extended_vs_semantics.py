"""Extended-virtual-synchrony semantics: what partitions may do to messages.

These tests document (and pin down) the *allowed* weaker behaviours of a
partitionable group layer — the cases where classic virtual synchrony
cannot hold and extended VS defines what happens instead.
"""

from tests.helpers import converged, make_group, run_until

from repro.sim import SECOND


def test_message_may_deliver_on_one_side_only(env):
    """A message racing a partition may reach only the sequencer's side —
    but each side's members agree among themselves."""
    stacks, endpoints, listeners = make_group(env, 4)
    assert run_until(env, lambda: converged(endpoints, 4))
    sequencer = endpoints[0].current_view.coordinator
    sequencer_side = ["p0", "p1"] if sequencer in ("p0", "p1") else ["p2", "p3"]
    other_side = [n for n in ("p0", "p1", "p2", "p3") if n not in sequencer_side]
    # Send from the sequencer side and partition immediately.
    sender = next(e for e in endpoints if e.node == sequencer)
    sender.send("racer")
    env.network.set_partitions([sequencer_side, other_side])
    assert run_until(
        env,
        lambda: converged([e for e in endpoints if e.node in sequencer_side], 2)
        and converged([e for e in endpoints if e.node in other_side], 2),
        timeout_s=20,
    )
    env.sim.run_until(env.sim.now + 2 * SECOND)
    by_node = {l.node: [p for _, p in l.data] for l in listeners}
    for side in (sequencer_side, other_side):
        # Intra-side agreement is mandatory.
        assert by_node[side[0]] == by_node[side[1]], side
    # The sequencer side definitely has it; the other side may not.
    assert "racer" in by_node[sequencer_side[0]]


def test_no_duplicates_across_heal(env):
    """Whatever a partition did, a heal never duplicates deliveries."""
    stacks, endpoints, listeners = make_group(env, 4)
    assert run_until(env, lambda: converged(endpoints, 4))
    for i in range(5):
        endpoints[i % 4].send(("pre", i))
    env.network.set_partitions([["p0", "p1"], ["p2", "p3"]])
    env.sim.run_until(env.sim.now + 1 * SECOND)
    endpoints[0].send(("left", 0))
    endpoints[2].send(("right", 0))
    assert run_until(env, lambda: converged(endpoints[:2], 2), timeout_s=20)
    assert run_until(env, lambda: converged(endpoints[2:], 2), timeout_s=20)
    env.network.heal()
    assert run_until(env, lambda: converged(endpoints, 4), timeout_s=30)
    for i in range(5):
        endpoints[i % 4].send(("post", i))
    env.sim.run_until(env.sim.now + 3 * SECOND)
    for listener in listeners:
        payloads = [p for _, p in listener.data]
        assert len(payloads) == len(set(payloads)), (
            f"duplicates at {listener.node}: {payloads}"
        )
        # Everyone got the 5 post-heal messages.
        assert sum(1 for p in payloads if p[0] == "post") == 5


def test_sender_pending_resend_after_heal(env):
    """A message frozen out by a partition-era view change is re-published
    in the sender's next view rather than lost (as long as the sender
    survives in that lineage)."""
    stacks, endpoints, listeners = make_group(env, 4)
    assert run_until(env, lambda: converged(endpoints, 4))
    # Cut p3 off alone; the survivors reconfigure.
    env.network.set_partitions([["p0", "p1", "p2"], ["p3"]])
    assert run_until(env, lambda: converged(endpoints[:3], 3), timeout_s=20)
    # p0 sends in the 3-member view; p3 obviously misses it.
    endpoints[0].send("survivor-news")
    env.sim.run_until(env.sim.now + 1 * SECOND)
    assert ("p0", "survivor-news") in listeners[1].data
    assert ("p0", "survivor-news") not in listeners[3].data
    env.network.heal()
    assert run_until(env, lambda: converged(endpoints, 4), timeout_s=30)
    # Post-heal messages reach everyone, including p3.
    endpoints[0].send("after-heal")
    env.sim.run_until(env.sim.now + 2 * SECOND)
    assert ("p0", "after-heal") in listeners[3].data
