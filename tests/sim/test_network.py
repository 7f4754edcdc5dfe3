"""Tests for the partitionable network model."""

import pytest

from repro.sim import LinkModel, Network, RngRegistry, Simulation


def make_net(seed=0, **link_kwargs):
    sim = Simulation()
    link = LinkModel(jitter_us=0, **link_kwargs)
    net = Network(sim, RngRegistry(seed), link=link)
    return sim, net


def attach(net, *nodes):
    inboxes = {}
    for node in nodes:
        inboxes[node] = []
        net.attach(node, lambda src, p, s, n=node: inboxes[n].append((src, p)))
    return inboxes


def test_unicast_delivery():
    sim, net = make_net()
    boxes = attach(net, "a", "b")
    assert net.send("a", "b", "hello") is True
    sim.run()
    assert boxes["b"] == [("a", "hello")]


def test_delivery_is_delayed_by_latency():
    sim, net = make_net()
    attach(net, "a", "b")
    net.send("a", "b", "x", size=100)
    sim.run()
    assert sim.now >= net.link.latency_us


def test_multicast_reaches_all_destinations():
    sim, net = make_net()
    boxes = attach(net, "a", "b", "c", "d")
    count = net.multicast("a", ["b", "c", "d"], "m")
    sim.run()
    assert count == 3
    for node in ("b", "c", "d"):
        assert boxes[node] == [("a", "m")]


def test_multicast_loopback_delivers_to_self():
    sim, net = make_net()
    boxes = attach(net, "a", "b")
    net.multicast("a", ["a", "b"], "m")
    sim.run()
    assert boxes["a"] == [("a", "m")]
    assert boxes["b"] == [("a", "m")]


def test_partition_blocks_cross_traffic():
    sim, net = make_net()
    boxes = attach(net, "a", "b")
    net.set_partitions([["a"], ["b"]])
    assert net.send("a", "b", "x") is False
    sim.run()
    assert boxes["b"] == []


def test_partition_allows_intra_block_traffic():
    sim, net = make_net()
    boxes = attach(net, "a", "b", "c")
    net.set_partitions([["a", "b"], ["c"]])
    net.send("a", "b", "x")
    sim.run()
    assert boxes["b"] == [("a", "x")]
    # A second split replaces the first rather than refining it.
    net.set_partitions([["a"], ["b", "c"]])
    assert net.reachable("b", "c")
    assert not net.reachable("a", "b")


def test_heal_restores_connectivity():
    sim, net = make_net()
    boxes = attach(net, "a", "b")
    net.set_partitions([["a"], ["b"]])
    net.heal()
    net.send("a", "b", "x")
    sim.run()
    assert boxes["b"] == [("a", "x")]


def test_partition_cuts_in_flight_messages():
    sim, net = make_net()
    boxes = attach(net, "a", "b")
    net.send("a", "b", "x")
    # Partition strikes while the message is still in flight.
    net.set_partitions([["a"], ["b"]])
    sim.run()
    assert boxes["b"] == []
    assert net.messages_dropped == 1


def test_crashed_node_cannot_send_or_receive():
    sim, net = make_net()
    boxes = attach(net, "a", "b")
    net.set_alive("b", False)
    assert net.send("a", "b", "x") is False
    net.set_alive("b", True)
    net.set_alive("a", False)
    assert net.send("a", "b", "x") is False
    sim.run()
    assert boxes["b"] == []


def test_crash_drops_in_flight_messages():
    sim, net = make_net()
    boxes = attach(net, "a", "b")
    net.send("a", "b", "x")
    net.set_alive("b", False)
    sim.run()
    assert boxes["b"] == []


def test_recovery_allows_new_messages():
    sim, net = make_net()
    boxes = attach(net, "a", "b")
    net.set_alive("b", False)
    net.set_alive("b", True)
    net.send("a", "b", "x")
    sim.run()
    assert boxes["b"] == [("a", "x")]


def test_loss_probability_drops_messages():
    sim, net = make_net(loss_probability=1.0)
    boxes = attach(net, "a", "b")
    net.send("a", "b", "x")
    sim.run()
    assert boxes["b"] == []
    assert net.messages_dropped == 1


def test_serialization_delay_scales_with_size():
    link = LinkModel(bandwidth_bps=1_000_000, per_message_overhead_bytes=0)
    assert link.serialization_us(1000) == 8 * link.serialization_us(125)


def test_one_medium_serializes_transmissions():
    sim, net = make_net(bandwidth_bps=1_000_000)
    boxes = attach(net, "a", "b", "c")
    arrival_times = []
    net.detach("b")
    net.attach("b", lambda s, p, z: arrival_times.append(sim.now))
    for _ in range(5):
        net.send("a", "b", "x", size=1000)
    sim.run()
    gaps = [b - a for a, b in zip(arrival_times, arrival_times[1:])]
    serialization = net.link.serialization_us(1000)
    # Back-to-back sends queue on the medium: inter-arrival ~ serialization.
    assert all(gap >= serialization - net.link.rx_cost_us for gap in gaps)


def test_counters_track_traffic():
    sim, net = make_net()
    attach(net, "a", "b")
    net.send("a", "b", "x", size=100)
    sim.run()
    assert net.messages_sent == 1
    assert net.messages_delivered == 1
    assert net.bytes_sent == 100


# -- jitter draws ------------------------------------------------------------
# The fabric draws jitter with CPython's ``_randbelow`` rejection loop over
# ``getrandbits`` instead of calling ``randint``.  That is only replay-
# transparent if it consumes exactly the stream ``randint(0, w)`` would:
# both delivery paths are checked against a twin generator, draw for draw,
# and the two generators must end in the same state.  Width 0 draws nothing
# at all (no jitter, no RNG call), as it always did.

JITTER_WIDTHS = [0, 1, 2, 63, 64, 65, 100, 1000]
JITTER_DRAWS = 10_000
JITTER_SIZE = 100


def _jitter_net(width):
    sim = Simulation()
    link = LinkModel(jitter_us=width, rx_cost_us=0)
    net = Network(sim, RngRegistry(7), link=link)
    twin = RngRegistry(7).stream("network")
    expected = [twin.randint(0, width) if width else 0 for _ in range(JITTER_DRAWS)]
    return sim, net, twin, expected


def _base_arrival(sim, net):
    # The medium is idle after ``sim.run()``: transmission starts now.
    return sim.now + net.link.serialization_us(JITTER_SIZE) + net.link.latency_us


@pytest.mark.parametrize("width", JITTER_WIDTHS)
def test_unicast_jitter_consumes_the_randint_stream(width):
    sim, net, twin, expected = _jitter_net(width)
    jitters = []
    net.attach("a", lambda src, p, s: None)
    net.attach("b", lambda src, base, s: jitters.append(sim.now - base))
    for _ in range(JITTER_DRAWS):
        net.send("a", "b", _base_arrival(sim, net), JITTER_SIZE)
        sim.run()
    assert jitters == expected
    assert net._rng.getstate() == twin.getstate()


@pytest.mark.parametrize("width", JITTER_WIDTHS)
def test_multicast_jitter_consumes_the_randint_stream(width):
    sim, net, twin, expected = _jitter_net(width)
    dsts = [f"d{i:03}" for i in range(100)]
    arrived = {}
    net.attach("src", lambda src, p, s: None)
    for dst in dsts:
        net.attach(dst, lambda src, base, s, dst=dst: arrived.__setitem__(dst, sim.now - base))
    jitters = []
    for _ in range(JITTER_DRAWS // len(dsts)):
        arrived.clear()
        net.multicast("src", set(dsts), _base_arrival(sim, net), JITTER_SIZE)
        sim.run()
        jitters.extend(arrived[dst] for dst in dsts)  # draws go in sorted order
    assert jitters == expected
    assert net._rng.getstate() == twin.getstate()
