"""The fabric rules both backends share: nodes, liveness, partitions.

Every test here runs once over the simulated ``Network`` and once over
the real-socket ``UdpFabric``: a partition or a crash must look the same
to the stack on either.  Delivery itself (jitter, serialization,
sockets) is each backend's own and is tested in ``tests/sim`` and
``test_asyncio_backend.py``.
"""

import pytest

from repro.runtime.asyncio_backend import AsyncioRuntime
from repro.sim.process import SimRuntime


def make_env(backend):
    return SimRuntime.create(seed=1) if backend == "sim" else AsyncioRuntime.create(seed=1)


@pytest.fixture(params=["sim", "udp"])
def fabric(request):
    env = make_env(request.param)
    for node in ("a", "b", "c"):
        env.fabric.attach(node, lambda src, payload, size: None)
    yield env.fabric
    if request.param == "udp":
        env.close()


def test_unlisted_nodes_join_block_zero(fabric):
    fabric.set_partitions([["b"], ["c"]])
    assert fabric.reachable("a", "b")
    assert not fabric.reachable("a", "c")
    assert fabric.partition_blocks() == [frozenset({"a", "b"}), frozenset({"c"})]


def test_node_in_two_blocks_raises(fabric):
    with pytest.raises(ValueError, match="two partition blocks"):
        fabric.set_partitions([["a"], ["a", "b"]])
    assert fabric.partition_blocks() == [frozenset({"a", "b", "c"})]


def test_partition_heal_and_blocks(fabric):
    fabric.set_partitions([["a"], ["b", "c"]])
    assert fabric.partition_blocks() == [frozenset({"a"}), frozenset({"b", "c"})]
    assert fabric.reachable("b", "c")
    assert not fabric.reachable("a", "b")
    assert fabric.send("a", "b", "cut", 64) is False
    # A second split replaces the first rather than refining it.
    fabric.set_partitions([["a", "b"], ["c"]])
    assert fabric.reachable("a", "b")
    assert not fabric.reachable("b", "c")
    fabric.heal()
    assert fabric.partition_blocks() == [frozenset({"a", "b", "c"})]
    assert fabric.reachable("a", "c")


def test_crash_recover_and_unknown_node(fabric):
    fabric.set_alive("b", False)
    assert not fabric.is_alive("b") and fabric.has_node("b")
    assert not fabric.reachable("a", "b")
    assert fabric.send("a", "b", "x", 64) is False
    assert fabric.send("b", "a", "x", 64) is False
    fabric.set_alive("b", True)
    assert fabric.reachable("a", "b")
    with pytest.raises(KeyError):
        fabric.set_alive("ghost", False)
    assert not fabric.is_alive("ghost") and not fabric.has_node("ghost")


def test_split_counts_drops_per_receiver(fabric):
    # Multicast from a to everyone across a | b,c: the loopback copy goes
    # out, b and c count as one drop each.
    fabric.set_partitions([["a"], ["b", "c"]])
    assert fabric.multicast("a", {"a", "b", "c"}, "beacon", 64) == 1
    assert fabric.messages_sent == 1
    assert fabric.messages_dropped == 2


def test_both_fabrics_write_the_same_network_records():
    histories = []
    for backend in ("sim", "udp"):
        env = make_env(backend)
        for node in ("a", "b", "c"):
            env.fabric.attach(node, lambda src, payload, size: None)
        env.fabric.set_partitions([["a"], ["b", "c"]])
        env.fabric.set_alive("c", False)
        env.fabric.set_partitions([["c", "a"]])
        env.fabric.set_alive("c", True)
        env.fabric.heal()
        histories.append(
            [(r.event, r.fields) for r in env.tracer.records if r.category == "network"]
        )
        if backend == "udp":
            env.close()
    assert histories[0] == histories[1]
    assert [event for event, _ in histories[0]] == [
        "partition", "crash", "partition", "recover", "heal"
    ]
    assert histories[0][2][1] == {"blocks": [["a", "b", "c"]]}
