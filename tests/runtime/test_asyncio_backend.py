"""Unit tests for the real-time asyncio backend primitives."""

import time

import pytest

from repro.runtime.asyncio_backend import AsyncioRuntime, WallClock
from repro.runtime.interfaces import MS


@pytest.fixture
def env():
    runtime = AsyncioRuntime.create(seed=1)
    yield runtime
    runtime.close()


# ----------------------------------------------------------------------
# Clock
# ----------------------------------------------------------------------
def test_wall_clock_advances_in_microseconds():
    clock = WallClock()
    first = clock.now
    time.sleep(0.01)
    assert clock.now - first >= 5 * MS


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
def test_timer_fires_after_delay(env):
    fired = []
    env.scheduler.schedule(5 * MS, lambda: fired.append(env.now))
    env.run_for(50 * MS)
    assert len(fired) == 1
    assert fired[0] >= 5 * MS


def test_timer_cancel_prevents_firing(env):
    fired = []
    handle = env.scheduler.schedule(5 * MS, lambda: fired.append(1))
    assert handle.pending
    handle.cancel()
    assert not handle.pending
    env.run_for(20 * MS)
    assert fired == []


def test_timer_pending_transitions_on_fire(env):
    handle = env.scheduler.schedule(1 * MS, lambda: None)
    assert handle.pending
    env.run_for(20 * MS)
    assert not handle.pending


def test_schedule_at_absolute_time(env):
    fired = []
    env.scheduler.schedule_at(env.now + 5 * MS, lambda: fired.append(env.now))
    env.run_for(50 * MS)
    assert len(fired) == 1


# ----------------------------------------------------------------------
# UDP fabric
# ----------------------------------------------------------------------
def _mailbox(env, node):
    inbox = []
    env.fabric.attach(node, lambda src, payload, size: inbox.append((src, payload)))
    return inbox


def test_unicast_delivery_over_udp(env):
    inbox_b = _mailbox(env, "b")
    _mailbox(env, "a")
    assert env.fabric.send("a", "b", {"n": 1}, 64)
    env.run_for(100 * MS)
    assert inbox_b == [("a", {"n": 1})]


def test_multicast_reaches_all_including_loopback(env):
    boxes = {node: _mailbox(env, node) for node in ("a", "b", "c")}
    sent = env.fabric.multicast("a", {"a", "b", "c"}, "beacon", 64)
    assert sent == 3
    env.run_for(100 * MS)
    for node in ("a", "b", "c"):
        assert boxes[node] == [("a", "beacon")]


def test_partition_drop_filter_blocks_cross_block_traffic(env, monkeypatch):
    inbox_b = _mailbox(env, "b")
    _mailbox(env, "a")
    env.fabric.set_partitions([["a"], ["b"]])
    assert not env.fabric.reachable("a", "b")
    assert not env.fabric.send("a", "b", "cut", 64)
    env.run_for(50 * MS)
    assert inbox_b == []
    env.fabric.heal()
    assert env.fabric.reachable("a", "b")
    assert env.fabric.send("a", "b", "healed", 64)
    env.run_for(100 * MS)
    assert inbox_b == [("a", "healed")]

    # A multicast datagram the kernel refuses is a per-receiver drop,
    # as it is for ``send``.
    _mailbox(env, "c")
    dropped_before = env.fabric.messages_dropped
    monkeypatch.setattr(env.fabric, "_sendto", lambda sock, data, dst: False)
    assert env.fabric.multicast("a", {"a", "b", "c"}, "beacon", 64) == 0
    assert env.fabric.messages_dropped - dropped_before == 3


def test_receive_side_filter_cuts_in_flight_datagrams(env):
    inbox_b = _mailbox(env, "b")
    _mailbox(env, "a")
    # Datagram is on the wire before the receiver installs the filter.
    assert env.fabric.send("a", "b", "late", 64)
    env.fabric.set_partitions([["a"], ["b"]])
    env.run_for(100 * MS)
    assert inbox_b == []


def test_crashed_node_neither_sends_nor_receives(env):
    inbox_b = _mailbox(env, "b")
    _mailbox(env, "a")
    env.fabric.set_alive("b", False)
    assert not env.fabric.is_alive("b")
    assert not env.fabric.send("a", "b", "x", 64)
    env.fabric.set_alive("b", True)
    assert env.fabric.send("a", "b", "y", 64)
    env.run_for(100 * MS)
    assert inbox_b == [("a", "y")]


def test_detach_releases_the_node(env):
    _mailbox(env, "a")
    assert env.fabric.has_node("a")
    env.fabric.detach("a")
    assert not env.fabric.has_node("a")
    assert "a" not in env.fabric.nodes


# ----------------------------------------------------------------------
# Failure feed
# ----------------------------------------------------------------------
def test_failure_feed_fires_hooks_once_per_transition(env):
    _mailbox(env, "a")
    transitions = []
    env.failures.on_transition("a", transitions.append)
    env.failures.crash_now("a")
    env.failures.crash_now("a")  # no-op: already crashed
    env.failures.recover_now("a")
    assert transitions == [True, False]
    assert env.fabric.is_alive("a")
