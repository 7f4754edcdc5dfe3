"""Tests for the Process actor base class."""

import pytest

from repro.runtime.rng import RngRegistry
from repro.sim import Process, SimRuntime


class Echo(Process):
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


def test_send_between_processes(env):
    a, b = Echo(env, "a"), Echo(env, "b")
    a.send("b", "hi")
    env.sim.run()
    assert b.received == [("a", "hi")]


def test_multicast(env):
    a, b, c = Echo(env, "a"), Echo(env, "b"), Echo(env, "c")
    a.multicast(["b", "c"], "all")
    env.sim.run()
    assert b.received == [("a", "all")]
    assert c.received == [("a", "all")]


def test_timer_fires(env):
    a = Echo(env, "a")
    fired = []
    a.set_timer(100, lambda: fired.append(env.sim.now))
    env.sim.run()
    assert fired == [100]


def test_crash_cancels_timers(env):
    a = Echo(env, "a")
    fired = []
    a.set_timer(100, lambda: fired.append(True))
    env.failures.crash_now("a")
    env.sim.run()
    assert fired == []
    assert a.crashes == 1


def test_crashed_process_ignores_messages(env):
    a, b = Echo(env, "a"), Echo(env, "b")
    env.failures.crash_now("b")
    a.send("b", "x")
    env.sim.run()
    assert b.received == []


def test_crashed_process_cannot_send(env):
    a, b = Echo(env, "a"), Echo(env, "b")
    env.failures.crash_now("a")
    assert a.send("b", "x") is False
    env.sim.run()
    assert b.received == []


def test_recovery_hook_and_messaging(env):
    a, b = Echo(env, "a"), Echo(env, "b")
    env.failures.crash_now("b")
    env.failures.recover_now("b")
    assert b.recoveries == 1
    a.send("b", "again")
    env.sim.run()
    assert b.received == [("a", "again")]


def test_periodic_timer_repeats(env):
    a = Echo(env, "a")
    ticks = []
    a.set_periodic(1000, lambda: ticks.append(env.sim.now))
    env.sim.run_until(5500)
    assert len(ticks) == 5


def test_periodic_stops_on_crash(env):
    a = Echo(env, "a")
    ticks = []
    a.set_periodic(1000, lambda: ticks.append(True))
    env.sim.run_until(2500)
    env.failures.crash_now("a")
    env.sim.run_until(10_000)
    assert len(ticks) == 2


def test_periodic_jitter_stays_within_bounds(env):
    a = Echo(env, "a")
    ticks = []
    a.set_periodic(1000, lambda: ticks.append(env.sim.now), jitter_stream="test")
    env.sim.run_until(20_000)
    gaps = [b - t for t, b in zip(ticks, ticks[1:])]
    assert all(1000 <= g <= 1100 for g in gaps)


# The periodic jitter is drawn with CPython's ``_randbelow`` rejection loop
# over ``getrandbits`` instead of ``randint``.  That is only replay-
# transparent if it consumes exactly the stream ``randint(0, w)`` would, with
# ``w = max(1, period // 10)``: the draws are checked against a twin
# generator, draw for draw, and the two generators must end in the same
# state (as ``tests/sim/test_network.py`` checks the fabric's jitter).

PERIODIC_TICKS = 2_000


@pytest.mark.parametrize("period, width", [(5, 1), (20, 2), (100, 10), (400, 40), (1000, 100)])
def test_periodic_jitter_consumes_the_randint_stream(period, width):
    env = SimRuntime.create(seed=11)
    a = Echo(env, "a")
    ticks = []
    a.set_periodic(period, lambda: ticks.append(env.sim.now), jitter_stream="twin")
    while len(ticks) < PERIODIC_TICKS:
        env.sim.step()
    twin = RngRegistry(11).stream("twin")
    assert max(1, period // 10) == width
    expected = [twin.randint(0, width) for _ in range(PERIODIC_TICKS)]
    jitters = [b - t - period for t, b in zip([0] + ticks, ticks)]
    assert jitters == expected
    twin.randint(0, width)  # the last tick has drawn its successor's jitter
    assert env.rng.stream("twin").getstate() == twin.getstate()


def test_scheduled_failure_events(env):
    a = Echo(env, "a")
    env.failures.crash_at(500, "a").recover_at(900, "a")
    env.sim.run_until(600)
    assert a.crashed
    env.sim.run_until(1000)
    assert not a.crashed


def test_periodic_rearming_keeps_the_timer_list_bounded(env):
    a = Echo(env, "a")
    a.set_periodic(10, lambda: None)
    env.sim.run_until(10 * 1000)  # 1000 re-arms, and no set_timer call
    assert len(a._timers) <= 257
    assert sum(t.pending for t in a._timers) == 1


def test_idle_cluster_timer_lists_stay_bounded():
    from repro.workloads import Cluster

    cluster = Cluster(3, seed=3, checkers=False)
    cluster.run_for_seconds(200)
    processes = list(cluster.stacks.values()) + list(cluster.name_servers.values())
    assert all(len(p._timers) <= 257 for p in processes)
    # Pruning drops only fired handles, so a crash still cancels every
    # pending one.
    stack = cluster.stack(0)
    pending = [t for t in stack._timers if t.pending]
    assert pending
    cluster.env.failures.crash_now(stack.node)
    assert not any(t.pending for t in pending)
    assert stack._timers == []


def test_runtime_views_track_the_simulation():
    env = SimRuntime.create(seed=1)
    assert env.clock is env.sim and env.scheduler is env.sim
    assert env.fabric is env.network
    seen = []
    env.scheduler.schedule(250, lambda: seen.append((env.now, env.clock.now)))
    env.sim.run_until(1000)
    assert seen == [(250, 250)]
    assert env.now == env.clock.now == env.sim.now == 1000
    env.scheduler.schedule(40, lambda: seen.append((env.now, env.clock.now)))
    env.sim.run()
    assert seen[-1] == (1040, 1040) and env.now == 1040
    env.run_for(60)
    assert env.now == env.scheduler.now == 1100
