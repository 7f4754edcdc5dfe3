"""Tests for the SWIM-style gossip failure detector (zoned topology).

The harness wires several :class:`GossipFailureDetector` instances
through the simulated network, dispatching the three gossip message
kinds the way the vsync stack does.  All target selection is rendezvous
hashing — no RNG draws — so every assertion here is deterministic.
"""

from repro.vsync.failure_detector import (
    GossipFailureDetector,
    gossip_fanout,
    rendezvous_pick,
)
from repro.vsync.messages import LivenessDigest, ProbePing, ProbeRequest


class GossipHarness:
    """N gossip detectors sharing one simulated network."""

    def __init__(self, env, nodes, timeout_us=200_000, probe_timeout_us=100_000):
        self.env = env
        self.nodes = list(nodes)
        self.fds = {}
        self.events = []
        for node in self.nodes:
            fd = GossipFailureDetector(
                env,
                node,
                send_multicast=lambda peers, msg, size, n=node: env.network.multicast(
                    n, peers, msg, size
                ),
                timeout_us=timeout_us,
                probe_timeout_us=probe_timeout_us,
            )
            fd.subscribe(
                lambda peer, suspected, n=node: self.events.append(
                    (n, peer, suspected)
                )
            )
            self.fds[node] = fd
            env.network.attach(node, self._receiver(node))

    def _receiver(self, node):
        def deliver(src, payload, size):
            fd = self.fds[node]
            if isinstance(payload, LivenessDigest):
                fd.on_digest(src, payload)
            elif isinstance(payload, ProbeRequest):
                fd.on_probe_request(src, payload)
            elif isinstance(payload, ProbePing):
                fd.on_probe_ping(src, payload)

        return deliver

    def substrate(self, members=None):
        members = set(members if members is not None else self.nodes)
        for node in self.nodes:
            self.fds[node].set_substrate(members)

    def drive(self, duration_us, tick_us=50_000, skip=()):
        end = self.env.sim.now + duration_us
        while self.env.sim.now < end:
            for node, fd in self.fds.items():
                if node in skip:
                    continue
                fd.tick_heartbeat()
                fd.tick_check()
            self.env.sim.run_until(self.env.sim.now + tick_us)


# ----------------------------------------------------------------------
# Pure helpers
# ----------------------------------------------------------------------
def test_gossip_fanout_is_log_bounded():
    assert gossip_fanout(0) == 0
    assert gossip_fanout(1) == 1
    assert gossip_fanout(2) == 2
    assert gossip_fanout(4) == 2
    assert gossip_fanout(16) == 4
    assert gossip_fanout(256) == 8
    assert gossip_fanout(1024) == 10


def test_rendezvous_pick_is_deterministic_and_salt_sensitive():
    candidates = {f"p{i}" for i in range(20)}
    first = rendezvous_pick("salt|1", candidates, 4)
    again = rendezvous_pick("salt|1", candidates, 4)
    other = rendezvous_pick("salt|2", candidates, 4)
    assert first == again
    assert len(first) == 4
    assert set(first) <= candidates
    assert first != other  # different salt rotates the choice
    everyone = rendezvous_pick("salt|1", candidates, 99)
    assert everyone == sorted(candidates)


# ----------------------------------------------------------------------
# Protocol behaviour
# ----------------------------------------------------------------------
def test_no_suspicion_while_gossip_flows(env):
    h = GossipHarness(env, [f"p{i}" for i in range(6)])
    h.substrate()
    h.drive(1_000_000)
    for fd in h.fds.values():
        assert fd.suspected_peers() == set()


def test_gossip_round_targets_log_fanout_not_everyone(env):
    nodes = [f"p{i}" for i in range(16)]
    h = GossipHarness(env, nodes)
    h.substrate()
    sent = []
    fd = h.fds["p0"]
    fd._send_multicast = lambda peers, msg, size: sent.append(set(peers))
    fd.tick_heartbeat()
    assert len(sent) == 1
    # 15 live substrate peers -> ceil(log2(15)) = 4 targets, not 15.
    assert len(sent[0]) == gossip_fanout(15) == 4
    assert "p0" not in sent[0]


def test_silent_peer_is_probed_before_suspected(env):
    nodes = [f"p{i}" for i in range(5)]
    h = GossipHarness(env, nodes)
    h.substrate()
    h.drive(200_000)
    env.failures.crash_now("p4")
    watcher = h.fds["p0"]
    probes_before = watcher.probes_sent
    # Relayed rows about the dead peer can restart the staleness clock
    # once (peers gossip the last counter they saw), so drive tick by
    # tick until the entry actually goes stale and a probe opens.
    for _ in range(40):
        h.drive(50_000, skip=("p4",))
        if watcher.probes_sent > probes_before:
            break
    assert watcher.probes_sent > probes_before
    # The probe window is still open: no suspicion yet.
    assert not watcher.is_suspected("p4")
    # After the probe expires with no answer, suspicion lands.
    h.drive(400_000, skip=("p4",))
    assert watcher.is_suspected("p4")
    assert ("p0", "p4", True) in h.events


def test_suspicion_spreads_transitively_through_digests(env):
    # p0 and p3 never exchange gossip directly (fan-out 2 of a 4-node
    # substrate can miss pairs), yet every live node converges on
    # suspecting the crashed peer because digests carry suspicion rows.
    nodes = [f"p{i}" for i in range(8)]
    h = GossipHarness(env, nodes)
    h.substrate()
    h.drive(200_000)
    env.failures.crash_now("p7")
    h.drive(1_500_000, skip=("p7",))
    for node in nodes[:-1]:
        assert h.fds[node].is_suspected("p7"), node


def test_recovered_peer_is_unsuspected_via_gossip(env):
    nodes = [f"p{i}" for i in range(5)]
    h = GossipHarness(env, nodes)
    h.substrate()
    env.failures.crash_now("p4")
    h.drive(1_000_000, skip=("p4",))
    assert h.fds["p0"].is_suspected("p4")
    env.failures.recover_now("p4")
    h.drive(1_000_000)
    assert not h.fds["p0"].is_suspected("p4")
    assert ("p0", "p4", False) in h.events


def test_refutation_bumps_counter_on_self_suspicion(env):
    h = GossipHarness(env, ["a", "b"])
    h.substrate()
    fd = h.fds["a"]
    before = fd._counter
    slander = LivenessDigest(
        group="_fd",
        sender="b",
        round_no=9,
        entries=(("a", fd.incarnation, before + 5, True),),
    )
    fd.on_digest("b", slander)
    # The refuting counter outruns the slandered version, so the next
    # digest we gossip is provably fresher than the suspicion row.
    assert fd._counter > before + 5


def test_out_of_scope_digest_rows_are_pruned(env):
    h = GossipHarness(env, ["a", "b"])
    h.fds["a"].set_substrate({"a", "b"})
    rows = tuple((f"z{i}", 0, 3, False) for i in range(50))
    gossip = LivenessDigest(group="_fd", sender="b", round_no=1, entries=rows)
    h.fds["a"].on_digest("b", gossip)
    # None of the 50 out-of-zone peers got a liveness row: tracked state
    # stays O(zone + monitored), the zoned topology's whole point.
    assert h.fds["a"].tracked_peer_count() == 1  # just b


def test_monitored_cross_zone_peer_is_gossiped_directly(env):
    h = GossipHarness(env, ["a", "b", "x"])
    h.fds["a"].set_substrate({"a", "b"})
    h.fds["a"].monitor("x")  # cross-zone view member
    sent = []
    h.fds["a"]._send_multicast = lambda peers, msg, size: sent.append(set(peers))
    h.fds["a"].tick_heartbeat()
    assert any("x" in peers for peers in sent)


def test_unmonitor_keeps_substrate_rows(env):
    h = GossipHarness(env, ["a", "b", "x"])
    h.fds["a"].set_substrate({"a", "b"})
    fd = h.fds["a"]
    fd.monitor("b")
    fd.monitor("x")
    assert fd.tracked_peer_count() == 2
    fd.unmonitor("b")
    fd.unmonitor("x")
    # b stays tracked (it is substrate); x is dropped outright.
    assert fd.tracked_peer_count() == 1
    assert "x" not in fd._table


def test_stale_incarnation_rows_lose_to_fresher_versions(env):
    h = GossipHarness(env, ["a", "b", "c"])
    h.fds["a"].set_substrate({"a", "b", "c"})
    fd = h.fds["a"]
    fresh = LivenessDigest(
        group="_fd", sender="b", round_no=1, entries=(("c", 2, 10, False),)
    )
    fd.on_digest("b", fresh)
    state = fd._table["c"]
    assert state.version() == (2, 10)
    stale = LivenessDigest(
        group="_fd", sender="b", round_no=2, entries=(("c", 1, 99, True),)
    )
    fd.on_digest("b", stale)
    assert fd._table["c"].version() == (2, 10)  # older incarnation lost
    assert not fd._table["c"].suspect
