"""A ``Publish`` is one raw datagram; the sequencer's ``Ordered`` acknowledges it.

Full-stack checks on the fabric: what a non-sequencer send costs on the
wire, how a lost ``Publish`` is recovered, that sends issued just before
a leave still reach every survivor, and that the re-publish timer dies
with the channel a crash or a leave abandons.
"""

import pytest

from tests.helpers import converged, make_group, run_until

from repro.sim import SECOND, LinkModel, SimRuntime
from repro.sim.transport import _Segment
from repro.vsync.messages import Heartbeat, InstallView, Ordered, Presence, Publish


def non_sequencer(endpoints):
    coordinator = endpoints[0].current_view.coordinator
    return next(e for e in endpoints if e.node != coordinator)


def test_non_sequencer_send_is_one_publish_and_one_ordered_multicast(env):
    stacks, endpoints, listeners = make_group(env, 4)
    assert run_until(env, lambda: converged(endpoints, 4))
    env.sim.run_until(env.sim.now + 2 * SECOND)  # let set-up traffic drain
    sender = non_sequencer(endpoints)
    datagrams = []
    real_send, real_multicast = env.network.send, env.network.multicast

    def send(src, dst, payload, size=256):
        datagrams.append(payload)
        return real_send(src, dst, payload, size)

    def multicast(src, dsts, payload, size=256):
        datagrams.append(payload)
        return real_multicast(src, dsts, payload, size)

    env.network.send, env.network.multicast = send, multicast
    sender.send("x")
    env.sim.run_until(env.sim.now + 10_000)
    data = [m for m in datagrams if not isinstance(m, (Heartbeat, Presence))]
    assert [type(m) for m in data] == [Publish, Ordered]
    assert not any(isinstance(m, _Segment) for m in datagrams)
    assert all(listener.data == [(sender.node, "x")] for listener in listeners)


def test_lost_publish_is_republished_with_backoff_and_delivered_once(env):
    """Every Publish is dropped for 150 ms: the sender re-publishes at
    20 / 60 / 140 ms, the first copy after the loss gets through, and
    every member delivers the message once."""
    stacks, endpoints, listeners = make_group(env, 4)
    assert run_until(env, lambda: converged(endpoints, 4))
    sender = non_sequencer(endpoints)
    start = env.sim.now
    publishes = []
    real_send = env.network.send

    def send(src, dst, payload, size=256):
        if isinstance(payload, Publish):
            publishes.append(env.sim.now - start)
            if env.sim.now - start < 150_000:
                return False
        return real_send(src, dst, payload, size)

    env.network.send = send
    sender.send("lost")
    env.sim.run_until(start + SECOND)
    assert publishes == [0, 20_000, 60_000, 140_000, 300_000]
    for listener in listeners:
        assert listener.data == [(sender.node, "lost")]
    assert not sender.channel.pending and sender.channel._republish_timer is None


def test_sends_before_a_leave_reach_every_survivor():
    """A burst of three sends, then ``leave()``, on a 4-process HWG at
    100 Mbps: the leave's flush must not overtake the burst."""
    for seed in range(100):
        env = SimRuntime.create(seed=seed, link=LinkModel(bandwidth_bps=100_000_000))
        stacks, endpoints, listeners = make_group(env, 4)
        assert run_until(env, lambda: converged(endpoints, 4)), seed
        view = endpoints[0].current_view
        leaver = next(e for e in endpoints if e.node == view.members[-1])
        for k in range(3):
            leaver.send(("burst", k))
        leaver.leave()
        survivors = [e for e in endpoints if e is not leaver]
        assert run_until(env, lambda: converged(survivors, 3)), seed
        burst = [(leaver.node, ("burst", k)) for k in range(3)]
        for endpoint, listener in zip(endpoints, listeners):
            if endpoint is not leaver:
                assert listener.data == burst, (seed, endpoint.node, listener.data)


@pytest.mark.parametrize("fate", ["lost", "late"])
def test_a_leave_does_not_overtake_the_leavers_last_publish(fate):
    """The first copy of the leaver's last ``Publish`` is lost, or arrives
    5 ms late, just before ``leave()``.  The reliable ``LeaveRequest`` must
    not reach the coordinator ahead of it: the leave's flush would freeze
    the channel with that message unordered, and no survivor would ever
    deliver it."""
    for seed in range(10):
        env = SimRuntime.create(seed=seed)
        stacks, endpoints, listeners = make_group(env, 4)
        assert run_until(env, lambda: converged(endpoints, 4)), seed
        leaver = non_sequencer(endpoints)
        held = []
        real_send = env.network.send

        def send(src, dst, payload, size=256):
            if isinstance(payload, Publish) and payload.sender_seq == 3 and not held:
                held.append(payload)
                if fate == "late":
                    env.scheduler.schedule(5_000, lambda: real_send(src, dst, payload, size))
                return False
            return real_send(src, dst, payload, size)

        env.network.send = send
        for k in range(3):
            leaver.send(("burst", k))
        leaver.leave()
        survivors = [e for e in endpoints if e is not leaver]
        assert run_until(env, lambda: converged(survivors, 3)), seed
        assert held and listeners[endpoints.index(leaver)].lefts == 1, seed
        burst = [(leaver.node, ("burst", k)) for k in range(3)]
        for endpoint, listener in zip(endpoints, listeners):
            if endpoint is not leaver:
                assert listener.data == burst, (fate, seed, endpoint.node, listener.data)


def test_republish_timer_does_not_outlive_a_crash(env):
    """A sender that crashes with a publish outstanding sends no copy of it
    from its next life."""
    stacks, endpoints, listeners = make_group(env, 4)
    assert run_until(env, lambda: converged(endpoints, 4))
    sender = non_sequencer(endpoints)
    start = env.sim.now
    publishes = []
    real_send = env.network.send

    def send(src, dst, payload, size=256):
        if isinstance(payload, Publish):
            publishes.append(env.sim.now - start)
            return False
        return real_send(src, dst, payload, size)

    env.network.send = send
    sender.send("x")
    env.sim.run_until(start + 30_000)
    env.failures.crash_now(sender.node)
    env.sim.run_until(start + 50_000)
    env.failures.recover_now(sender.node)
    env.sim.run_until(start + 3 * SECOND)
    assert publishes == [0, 20_000]


def test_republish_timer_does_not_outlive_a_leave(env):
    """A leave released before any flush froze the channel (an
    ``InstallView`` without a view) stops the abandoned channel's timer."""
    stacks, endpoints, listeners = make_group(env, 4)
    assert run_until(env, lambda: converged(endpoints, 4))
    sender = non_sequencer(endpoints)
    start = env.sim.now
    publishes = []
    real_send = env.network.send

    def send(src, dst, payload, size=256):
        if isinstance(payload, Publish) and src == sender.node:
            publishes.append(env.sim.now - start)
            return False
        return real_send(src, dst, payload, size)

    env.network.send = send
    sender.send("x")
    sender.leave()
    coordinator = sender.current_view.coordinator
    sender.apply_install(coordinator, InstallView(group="g", view=None, round_no=0))
    assert listeners[endpoints.index(sender)].lefts == 1
    env.sim.run_until(start + 3 * SECOND)
    assert publishes == [0]
