"""FailureFeed edge cases: idempotent transitions, exact hook counts,
crash racing a heal, and in-flight message drops."""

import pytest

from repro.sim import Process


class Counter(Process):
    def __init__(self, env, node):
        super().__init__(env, node)
        self.received = []
        self.crashes = 0
        self.recoveries = 0

    def on_message(self, src, msg, size):
        self.received.append((src, msg))

    def on_crash(self):
        self.crashes += 1

    def on_recover(self):
        self.recoveries += 1


def test_crash_of_crashed_node_is_a_noop(env):
    a = Counter(env, "a")
    env.failures.crash_now("a")
    env.failures.crash_now("a")
    assert a.crashes == 1
    assert a.crashed
    assert not env.network.is_alive("a")


def test_recovery_of_live_node_is_a_noop(env):
    a = Counter(env, "a")
    env.failures.recover_now("a")
    assert a.recoveries == 0
    assert env.network.is_alive("a")
    env.failures.crash_now("a")
    env.failures.recover_now("a")
    env.failures.recover_now("a")
    assert a.crashes == 1
    assert a.recoveries == 1


def test_scheduled_duplicate_transitions_fire_hooks_once(env):
    a = Counter(env, "a")
    env.sim.schedule_at(100, env.failures.crash_now, "a")
    env.sim.schedule_at(200, env.failures.crash_now, "a")
    env.sim.schedule_at(300, env.failures.recover_now, "a")
    env.sim.schedule_at(400, env.failures.recover_now, "a")
    env.sim.run()
    assert a.crashes == 1
    assert a.recoveries == 1


def test_unknown_node_still_raises(env):
    with pytest.raises(KeyError, match="ghost"):
        env.failures.crash_now("ghost")
    with pytest.raises(KeyError, match="ghost"):
        env.failures.recover_now("ghost")


def test_duplicate_crash_emits_no_duplicate_trace_event(env):
    Counter(env, "a")
    env.failures.crash_now("a")
    env.failures.crash_now("a")
    crashes = [
        r for r in env.tracer.records
        if r.category == "network" and r.event == "crash"
    ]
    assert len(crashes) == 1


def test_crash_on_the_tick_of_a_heal(env):
    """A node crashing at the very tick the network heals: the heal must
    not resurrect it, and its hooks fire exactly once."""
    a, b = Counter(env, "a"), Counter(env, "b")
    env.network.set_partitions([["a"], ["b"]])
    heal_time = 1_000
    env.sim.schedule_at(heal_time, env.network.heal)
    env.sim.schedule_at(heal_time, env.failures.crash_now, "a")
    env.sim.run()
    assert a.crashes == 1 and a.recoveries == 0
    assert not env.network.is_alive("a")
    assert env.network.is_alive("b")
    # Healed for live nodes, but 'a' stays dark.
    b.send("a", "hello")
    env.sim.run()
    assert a.received == []


def test_in_flight_messages_to_crashing_node_are_dropped(env):
    a, b = Counter(env, "a"), Counter(env, "b")
    b.send("a", "doomed")           # latency makes delivery strictly later
    env.failures.crash_now("a")
    env.sim.run()
    assert a.received == []
    env.failures.recover_now("a")
    b.send("a", "fresh")
    env.sim.run()
    assert a.received == [("b", "fresh")]


def test_in_flight_messages_from_crashing_node_are_dropped(env):
    a, b = Counter(env, "a"), Counter(env, "b")
    a.send("b", "doomed")
    env.failures.crash_now("a")
    env.sim.run()
    assert b.received == []
