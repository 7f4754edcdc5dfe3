"""Tests for scripted partition schedules."""

from repro.sim import PartitionSchedule, SimRuntime


def test_split_applies_at_scheduled_time(env):
    env.network.attach("a", lambda *a: None)
    env.network.attach("b", lambda *a: None)
    schedule = PartitionSchedule().split_at(1000, [["a"], ["b"]])
    schedule.apply(env.sim, env.network)
    assert env.network.reachable("a", "b")
    env.sim.run_until(1001)
    assert not env.network.reachable("a", "b")


def test_heal_applies_at_scheduled_time(env):
    env.network.attach("a", lambda *a: None)
    env.network.attach("b", lambda *a: None)
    schedule = PartitionSchedule().split_at(10, [["a"], ["b"]]).heal_at(100)
    schedule.apply(env.sim, env.network)
    env.sim.run_until(50)
    assert not env.network.reachable("a", "b")
    env.sim.run_until(150)
    assert env.network.reachable("a", "b")


def test_virtual_partition_is_split_plus_heal(env):
    env.network.attach("a", lambda *a: None)
    env.network.attach("b", lambda *a: None)
    schedule = PartitionSchedule().virtual_partition(10, 40, [["a"], ["b"]])
    assert len(schedule) == 2
    schedule.apply(env.sim, env.network)
    env.sim.run_until(30)
    assert not env.network.reachable("a", "b")
    env.sim.run_until(60)
    assert env.network.reachable("a", "b")


def test_events_apply_in_time_order_regardless_of_insertion(env):
    env.network.attach("a", lambda *a: None)
    env.network.attach("b", lambda *a: None)
    schedule = PartitionSchedule()
    schedule.heal_at(200)
    schedule.split_at(100, [["a"], ["b"]])
    schedule.apply(env.sim, env.network)
    env.sim.run_until(150)
    assert not env.network.reachable("a", "b")
    env.sim.run_until(250)
    assert env.network.reachable("a", "b")


def test_multiple_splits(env):
    for node in ("a", "b", "c"):
        env.network.attach(node, lambda *a: None)
    schedule = (
        PartitionSchedule()
        .split_at(10, [["a"], ["b", "c"]])
        .split_at(20, [["a", "b"], ["c"]])
    )
    schedule.apply(env.sim, env.network)
    env.sim.run_until(15)
    assert env.network.reachable("b", "c")
    env.sim.run_until(25)
    assert env.network.reachable("a", "b")
    assert not env.network.reachable("b", "c")
