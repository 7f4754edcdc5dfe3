"""Hot-path cost of the simulated network fabric.

Not a paper figure — this pins down the per-delivery cost of
:meth:`Network.multicast` and :meth:`Network.send` after the fan-out
rewrite:

* the per-call ``sorted(dsts)`` is memoized per distinct destination
  set (protocol layers multicast to the same view membership over and
  over);
* each delivery is one handle-free heap entry that fires
  ``Network._deliver`` directly (no closure, no ``EventHandle``);
* the per-destination loop inlines the reachability check and the
  delivery-time model with hoisted attribute lookups.

Wall-clock here is a trend line; what the tests assert is the exact
delivery count of each workload.

Run with::

    pytest benchmarks/bench_fabric.py --benchmark-only -s
"""

from __future__ import annotations

from repro.runtime.rng import RngRegistry
from repro.sim import MS, Simulation
from repro.sim.network import LinkModel, Network

from conftest import SEED

FANOUT_NODES = 24
FANOUT_ROUNDS = 1500
STORM_PAIRS = 8
STORM_MESSAGES = 12_000


def multicast_fanout_workload(seed: int, nodes: int, rounds: int) -> Network:
    """One sender multicasts to the same wide destination set repeatedly.

    This is the LWG stack's dominant fabric call shape: ``Ordered`` /
    beacon traffic to a stable view membership.
    """
    sim = Simulation()
    net = Network(
        sim, RngRegistry(seed), link=LinkModel(jitter_us=0), shared_medium=False
    )
    sink = lambda src, payload, size: None  # noqa: E731
    names = [f"n{i}" for i in range(nodes)]
    for name in names:
        net.attach(name, sink)
    dsts = set(names[1:])

    def blast() -> None:
        if net.messages_sent < rounds:
            net.multicast("n0", dsts, payload="m", size=256)
            sim.schedule(MS, blast)

    sim.schedule(0, blast)
    sim.run()
    return net


def unicast_storm_workload(seed: int, pairs: int, messages: int) -> Network:
    """Point-to-point sends round-robining over several node pairs."""
    sim = Simulation()
    net = Network(
        sim, RngRegistry(seed), link=LinkModel(jitter_us=0), shared_medium=False
    )
    sink = lambda src, payload, size: None  # noqa: E731
    for i in range(pairs):
        net.attach(f"a{i}", sink)
        net.attach(f"b{i}", sink)

    sent = [0]

    def blast() -> None:
        if sent[0] < messages:
            i = sent[0] % pairs
            net.send(f"a{i}", f"b{i}", payload="m", size=256)
            sent[0] += 1
            sim.schedule(100, blast)

    sim.schedule(0, blast)
    sim.run()
    return net


def test_multicast_fanout(benchmark):
    """One sender multicasting to a fixed 23-receiver set, every ms."""

    def run():
        return multicast_fanout_workload(
            SEED, nodes=FANOUT_NODES, rounds=FANOUT_ROUNDS
        )

    net = benchmark(run)
    expected = FANOUT_ROUNDS * (FANOUT_NODES - 1)
    assert net.messages_delivered == expected
    assert net.deliveries_scheduled == expected
    print(f"\ndeliveries: {net.messages_delivered}")


def test_unicast_storm(benchmark):
    """Disjoint node pairs exchanging unicast messages back and forth."""

    def run():
        return unicast_storm_workload(
            SEED, pairs=STORM_PAIRS, messages=STORM_MESSAGES
        )

    net = benchmark(run)
    assert net.messages_delivered == STORM_MESSAGES
    print(f"\ndeliveries: {net.messages_delivered}")
