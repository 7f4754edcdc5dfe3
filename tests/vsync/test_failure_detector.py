"""Tests for the shared heartbeat failure detector."""

from repro.vsync.failure_detector import FailureDetector
from repro.vsync.messages import Heartbeat


class Harness:
    """Two failure detectors wired through the simulated network."""

    def __init__(self, env, nodes=("a", "b")):
        self.env = env
        self.fds = {}
        self.events = []
        for node in nodes:
            fd = FailureDetector(
                env,
                node,
                send_multicast=lambda peers, msg, size, n=node: env.network.multicast(
                    n, peers, msg, msg.size_bytes()
                ),
                timeout_us=200_000,
            )
            fd.subscribe(lambda peer, suspected, n=node: self.events.append((n, peer, suspected)))
            self.fds[node] = fd
            env.network.attach(node, self._receiver(node))

    def _receiver(self, node):
        def deliver(src, payload, size):
            if isinstance(payload, Heartbeat):
                self.fds[node].on_heartbeat(src)

        return deliver

    def drive(self, duration_us, tick_us=50_000):
        end = self.env.sim.now + duration_us
        while self.env.sim.now < end:
            for fd in self.fds.values():
                fd.tick_heartbeat()
                fd.tick_check()
            self.env.sim.run_until(self.env.sim.now + tick_us)


def test_no_suspicion_while_heartbeats_flow(env):
    h = Harness(env)
    h.fds["a"].monitor("b")
    h.fds["b"].monitor("a")
    h.drive(1_000_000)
    assert not h.fds["a"].is_suspected("b")
    assert not h.fds["b"].is_suspected("a")


def test_suspicion_after_partition(env):
    h = Harness(env)
    h.fds["a"].monitor("b")
    h.fds["b"].monitor("a")
    h.drive(300_000)
    env.network.set_partitions([["a"], ["b"]])
    h.drive(500_000)
    assert h.fds["a"].is_suspected("b")
    assert h.fds["b"].is_suspected("a")
    assert ("a", "b", True) in h.events


def test_suspicion_revised_after_heal(env):
    h = Harness(env)
    h.fds["a"].monitor("b")
    h.fds["b"].monitor("a")
    env.network.set_partitions([["a"], ["b"]])
    h.drive(500_000)
    assert h.fds["a"].is_suspected("b")
    env.network.heal()
    h.drive(500_000)
    assert not h.fds["a"].is_suspected("b")
    assert ("a", "b", False) in h.events


def test_monitor_is_refcounted(env):
    h = Harness(env)
    fd = h.fds["a"]
    fd.monitor("b")
    fd.monitor("b")
    fd.unmonitor("b")
    assert "b" in fd.monitored_peers()
    fd.unmonitor("b")
    assert "b" not in fd.monitored_peers()


def test_unmonitored_peer_never_suspected(env):
    h = Harness(env)
    env.network.set_partitions([["a"], ["b"]])
    h.drive(1_000_000)
    assert not h.fds["a"].is_suspected("b")


def test_self_is_never_monitored(env):
    h = Harness(env)
    h.fds["a"].monitor("a")
    assert "a" not in h.fds["a"].monitored_peers()


def test_any_traffic_counts_as_liveness(env):
    h = Harness(env)
    fd = h.fds["a"]
    fd.monitor("b")
    env.network.set_partitions([["a"], ["b"]])
    h.drive(500_000)
    assert fd.is_suspected("b")
    fd.on_heartbeat("b")  # e.g. a data message arrived
    assert not fd.is_suspected("b")


def test_grace_period_on_fresh_monitor(env):
    h = Harness(env)
    env.sim.run_until(10_000_000)  # long silence beforehand
    h.fds["a"].monitor("b")
    h.fds["a"].tick_check()
    assert not h.fds["a"].is_suspected("b")


def test_reset_clears_everything(env):
    h = Harness(env)
    fd = h.fds["a"]
    fd.monitor("b")
    env.network.set_partitions([["a"], ["b"]])
    h.drive(500_000)
    fd.reset()
    assert fd.monitored_peers() == set()
    assert fd.suspected_peers() == set()


def test_unmonitor_underflow_is_harmless(env):
    h = Harness(env)
    fd = h.fds["a"]
    fd.unmonitor("b")  # never monitored
    fd.monitor("b")
    fd.unmonitor("b")
    fd.unmonitor("b")  # one drop too many
    assert "b" not in fd.monitored_peers()
    # The extra drop must not leave a negative refcount behind: the next
    # monitor starts a fresh count of one, which one unmonitor releases.
    fd.monitor("b")
    assert "b" in fd.monitored_peers()
    fd.unmonitor("b")
    assert "b" not in fd.monitored_peers()


def test_unmonitor_while_suspected_clears_suspicion_exactly_once(env):
    h = Harness(env)
    fd = h.fds["a"]
    fd.monitor("b")
    env.network.set_partitions([["a"], ["b"]])
    h.drive(500_000)
    assert fd.is_suspected("b")
    before = list(h.events)
    fd.unmonitor("b")
    assert not fd.is_suspected("b")
    assert fd.suspected_peers() == set()
    # No further notifications: the clear is silent (the caller asked to
    # stop watching) and later checks never resurrect the stale entry.
    h.drive(500_000)
    assert h.events == before
    assert not fd.is_suspected("b")


def test_remonitor_after_same_tick_unmonitor_gets_fresh_grace(env):
    h = Harness(env)
    fd = h.fds["a"]
    fd.monitor("b")
    env.network.set_partitions([["a"], ["b"]])
    h.drive(500_000)
    assert fd.is_suspected("b")
    # Drop and re-add within the same tick (endpoint churn does this when
    # a group reforms): the new registration starts with a fresh grace
    # window instead of inheriting the stale last-heard time.
    fd.unmonitor("b")
    fd.monitor("b")
    fd.tick_check()
    assert not fd.is_suspected("b")
    # Grace is a window, not immunity: continued silence re-suspects.
    h.drive(500_000)
    assert fd.is_suspected("b")
