"""Membership-layer scale harness: flat vs zoned at 64..1024 nodes.

The full LWG stack tops out around a few dozen simulated processes per
affordable bench second; the scalability question the zoned topology
answers — *what does failure detection cost at 1k nodes?* — lives one
layer down.  This harness builds populations of bare failure detectors
(the flat :class:`~repro.vsync.failure_detector.FailureDetector` or the
zoned :class:`~repro.vsync.failure_detector.GossipFailureDetector`
seeded exactly the way :class:`~repro.vsync.zones.ZoneAgent` seeds it)
and measures the membership substrate alone, in two modes:

* :func:`fd_census` — no network at all.  Sends are counted, not
  delivered, which prices the *per-period message volume* and the
  *tracked-peer state* at any ``n`` in milliseconds: the flat topology's
  O(n²) datagrams/period against zoned's O(n·log(n/z) + relay pairs).
* :func:`fd_dynamics` — the real simulated fabric.  Nodes tick on
  timers, a partition splits the population in half, heals, and the
  harness measures how long suspicions take to clear — the
  heal-convergence figure — plus delivered-message throughput.

Both modes are deterministic from their seed: gossip target selection
is rendezvous hashing (no RNG draws) and the dynamics mode draws all
jitter from the environment's stream-split registry.

Used by ``benchmarks/bench_scalability.py`` (the node-axis sweep) and
the ``membership.fd_scale`` suite workload gated in CI.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set

from ..sim import MS, SECOND, SimRuntime
from ..sim.network import LinkModel
from ..vsync.failure_detector import FailureDetector, GossipFailureDetector
from ..vsync.messages import LivenessDigest, ProbePing, ProbeRequest
from ..vsync.stack import VsyncConfig
from ..vsync.zones import ZoneDirectory, ZoneMap

#: The stack's own detector timers (the probe timeout is the gossip
#: detector's default).
_VSYNC = VsyncConfig()


def _node_ids(n: int) -> List[str]:
    return [f"p{i}" for i in range(n)]


def _build_flat(env, nodes, send_for):
    detectors = {}
    for node in nodes:
        fd = FailureDetector(
            env,
            node,
            send_multicast=send_for(node),
            timeout_us=_VSYNC.fd_timeout_us,
        )
        detectors[node] = fd
    peers = set(nodes)
    for node, fd in detectors.items():
        for peer in peers:
            fd.monitor(peer)
    return detectors, None


def _build_zoned(env, nodes, send_for, num_zones):
    directory = ZoneDirectory(ZoneMap(num_zones))
    detectors = {}
    for node in nodes:
        directory.register(node)
        detectors[node] = GossipFailureDetector(
            env,
            node,
            send_multicast=send_for(node),
            timeout_us=_VSYNC.fd_timeout_us,
        )
    for node, fd in detectors.items():
        zone = directory.zone_of(node)
        fd.set_substrate(set(directory.members(zone)) - {node})
        # Relay wiring, exactly as ZoneAgent._update_relay_links does it.
        extras: Set[str] = set()
        if node in directory.relays(zone):
            for other in directory.zones():
                if other != zone:
                    extras.update(directory.relays(other))
        fd.set_extras(extras)
    return detectors, directory


def fd_census(
    seed: int,
    n: int,
    topology: str,
    num_zones: int = 0,
    periods: int = 3,
) -> Dict[str, Any]:
    """Per-period FD message volume and tracked state, networkless.

    Every node runs ``periods`` heartbeat rounds against a counting send
    callback.  ``datagrams`` weights each multicast by its fan-out (the
    fabric schedules one delivery per destination), ``sends`` counts the
    multicast calls themselves.
    """
    env = SimRuntime.create(seed=seed, keep_trace=False)
    nodes = _node_ids(n)
    counters = {"datagrams": 0, "sends": 0}

    def send_for(node):
        def send(peers, msg, size):
            counters["sends"] += 1
            counters["datagrams"] += len(peers)

        return send

    if topology == "zoned":
        detectors, _ = _build_zoned(env, nodes, send_for, num_zones or 4)
    else:
        detectors, _ = _build_flat(env, nodes, send_for)
    for _ in range(periods):
        for node in nodes:
            detectors[node].tick_heartbeat()
    if topology == "zoned":
        tracked = [fd.tracked_peer_count() for fd in detectors.values()]
    else:
        tracked = [len(fd.monitored_peers()) for fd in detectors.values()]
    return {
        "n": n,
        "topology": topology,
        "datagrams_per_period": counters["datagrams"] // periods,
        "sends_per_period": counters["sends"] // periods,
        "tracked_peers_max": max(tracked),
        "tracked_peers_avg": round(sum(tracked) / len(tracked), 1),
    }


class _Population:
    """Detectors wired through the real simulated fabric, on timers."""

    def __init__(self, seed: int, n: int, topology: str, num_zones: int):
        # A point-to-point link model: at hundreds of nodes the default
        # shared-medium serialization would swamp the measurement with
        # queueing artifacts that say nothing about the FD protocols.
        self.env = SimRuntime.create(
            seed=seed, keep_trace=False, shared_medium=False,
            link=LinkModel(),
        )
        self.nodes = _node_ids(n)
        self.topology = topology

        def send_for(node):
            def send(peers, msg, size):
                self.env.network.multicast(node, peers, msg, size)

            return send

        if topology == "zoned":
            self.detectors, self.directory = _build_zoned(
                self.env, self.nodes, send_for, num_zones or 4
            )
        else:
            self.detectors, self.directory = _build_flat(
                self.env, self.nodes, send_for
            )
        for node in self.nodes:
            self.env.network.attach(node, self._receiver(node))
        # One staggered driver per node: ticking all n detectors from a
        # single event would synchronize every gossip round unrealistically.
        for index, node in enumerate(self.nodes):
            offset = (index * 7919) % _VSYNC.heartbeat_period_us
            self.env.sim.schedule(offset, self._ticker(node))

    def _ticker(self, node):
        def tick():
            fd = self.detectors[node]
            if self.env.network.is_alive(node):
                fd.tick_heartbeat()
                fd.tick_check()
            self.env.sim.schedule(_VSYNC.heartbeat_period_us, tick)

        return tick

    def _receiver(self, node):
        def deliver(src, payload, size):
            fd = self.detectors[node]
            if isinstance(payload, LivenessDigest):
                fd.on_digest(src, payload)
            elif isinstance(payload, ProbeRequest):
                fd.on_probe_request(src, payload)
            elif isinstance(payload, ProbePing):
                fd.on_probe_ping(src, payload)
            else:
                fd.on_heartbeat(src)

        return deliver

    def run_for(self, duration_us: int) -> None:
        self.env.sim.run_until(self.env.sim.now + duration_us)

    def suspicion_pairs(self) -> int:
        """Live-suspects-live pairs (the count heal must drive to zero)."""
        alive = {n for n in self.nodes if self.env.network.is_alive(n)}
        return sum(
            len(self.detectors[node].suspected_peers() & alive)
            for node in alive
        )


def fd_dynamics(
    seed: int,
    n: int,
    topology: str,
    num_zones: int = 0,
    measure_heal: bool = True,
    heal_timeout_us: int = 30 * SECOND,
) -> Dict[str, Any]:
    """Partition/heal dynamics on the real fabric at population ``n``.

    Returns delivered-message and FD-round counts for throughput, and —
    when ``measure_heal`` — the sim time from the heal until no live
    node suspects another live node (the heal-convergence figure; the
    flat topology at n=1024 is deliberately priced by the caller as
    census-only, since its O(n²) fabric load is the wall this PR moves).
    """
    population = _Population(seed, n, topology, num_zones)
    env = population.env
    population.run_for(2 * SECOND)  # settle: everyone seen everyone
    baseline_suspicions = population.suspicion_pairs()
    half = n // 2
    heal_convergence_us = -1
    if measure_heal:
        env.network.set_partitions(
            [population.nodes[:half], population.nodes[half:]]
        )
        population.run_for(2 * SECOND)  # long past timeout: cut detected
        env.network.heal()
        healed_at = env.sim.now
        deadline = healed_at + heal_timeout_us
        while env.sim.now < deadline:
            if population.suspicion_pairs() == 0:
                heal_convergence_us = env.sim.now - healed_at
                break
            population.run_for(50 * MS)
    return {
        "n": n,
        "topology": topology,
        "messages_delivered": env.network.messages_delivered,
        "messages_sent": env.network.messages_sent,
        "sim_time_us": env.sim.now,
        "baseline_suspicions": baseline_suspicions,
        "heal_convergence_us": heal_convergence_us,
    }
