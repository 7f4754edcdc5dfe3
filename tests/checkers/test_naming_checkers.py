"""Unit tests for the naming-service checkers: genealogy-ordered GC and
replica convergence at quiesce (on fake clusters with real databases)."""

from dataclasses import replace

import pytest

from repro.checkers import (
    CheckerSuite,
    GenealogyGcChecker,
    InvariantViolation,
    NamingConvergenceChecker,
)
from repro.naming.database import NamingDatabase
from repro.naming.records import MappingRecord
from repro.runtime.trace import Tracer
from repro.vsync.view import ViewId


def rig(checker):
    suite = CheckerSuite()
    suite.add(checker)
    tracer = Tracer(clock=lambda: 0)
    suite.attach(tracer)
    return tracer


def edge(tracer, child, *parents, server="ns0"):
    tracer.emit("naming", "genealogy_edge",
                server=server, child=child, parents=list(parents))


def gc(tracer, view, witness, server="ns0", lwg="lwg:a"):
    tracer.emit("naming", "record_gc",
                server=server, lwg=lwg, view=view, witness=witness)


# ----------------------------------------------------------------------
# GenealogyGcChecker
# ----------------------------------------------------------------------
def test_collecting_an_ancestor_passes():
    tracer = rig(GenealogyGcChecker())
    edge(tracer, "p0#2", "p0#1")
    gc(tracer, view="p0#1", witness="p0#2")


def test_transitive_ancestry_passes():
    tracer = rig(GenealogyGcChecker())
    edge(tracer, "p0#2", "p0#1")
    edge(tracer, "p0#3", "p0#2")
    gc(tracer, view="p0#1", witness="p0#3")


def test_merge_views_have_multiple_parents():
    tracer = rig(GenealogyGcChecker())
    edge(tracer, "p0#9", "p0#1", "p5#1")  # Figure-5 merge of two branches
    gc(tracer, view="p5#1", witness="p0#9")


def test_collecting_a_concurrent_view_fails():
    tracer = rig(GenealogyGcChecker())
    edge(tracer, "p0#2", "p0#1")
    edge(tracer, "p5#2", "p0#1")  # sibling branch: concurrent with p0#2
    with pytest.raises(InvariantViolation, match="genealogy-ordered GC"):
        gc(tracer, view="p0#2", witness="p5#2")


def test_collecting_with_an_unknown_witness_fails():
    tracer = rig(GenealogyGcChecker())
    with pytest.raises(InvariantViolation, match="genealogy-ordered GC"):
        gc(tracer, view="p0#1", witness="p9#9")


def test_a_view_cannot_witness_its_own_collection():
    tracer = rig(GenealogyGcChecker())
    edge(tracer, "p0#2", "p0#1")
    with pytest.raises(InvariantViolation, match="genealogy-ordered GC"):
        gc(tracer, view="p0#2", witness="p0#2")


# ----------------------------------------------------------------------
# NamingConvergenceChecker (at quiesce, against a fake cluster)
# ----------------------------------------------------------------------
class FakeNetwork:
    def __init__(self, down=()):
        self._down = set(down)

    def is_alive(self, node):
        return node not in self._down


class FakeEnv:
    def __init__(self, down=()):
        self.fabric = FakeNetwork(down)


class FakeServer:
    def __init__(self, node):
        self.node = node
        self.db = NamingDatabase()


class FakeCluster:
    def __init__(self, servers, down=()):
        self.env = FakeEnv(down)
        self.services = {}
        self.name_servers = {server.node: server for server in servers}


def record_of(coord, seq, hwg, version=1, lwg="lwg:a"):
    return MappingRecord(
        lwg=lwg, lwg_view=ViewId(coord, seq), lwg_members=(coord,),
        hwg=hwg, hwg_view=ViewId("h", 1), version=version, writer=coord,
    )


def quiesce(cluster):
    suite = CheckerSuite()
    suite.add(NamingConvergenceChecker())
    suite.check_quiescent(cluster)


def test_identical_replicas_pass():
    ns0, ns1 = FakeServer("ns0"), FakeServer("ns1")
    for server in (ns0, ns1):
        server.db.apply(record_of("p0", 1, "hwg:x"))
    quiesce(FakeCluster([ns0, ns1]))


def test_divergent_replicas_fail():
    ns0, ns1 = FakeServer("ns0"), FakeServer("ns1")
    ns0.db.apply(record_of("p0", 1, "hwg:x"))
    ns1.db.apply(record_of("p0", 1, "hwg:x"))
    ns1.db.apply(record_of("p9", 4, "hwg:y", lwg="lwg:b"))  # ns0 never saw it
    with pytest.raises(InvariantViolation, match="replica agreement"):
        quiesce(FakeCluster([ns0, ns1]))


def test_unreconciled_multiple_mappings_fail():
    ns0 = FakeServer("ns0")
    # Two live concurrent views of one LWG on different HWGs: the
    # Section-6 pipeline should have collapsed these before quiesce.
    ns0.db.apply(record_of("p0", 1, "hwg:x"))
    ns0.db.apply(record_of("p5", 1, "hwg:y"))
    assert ns0.db.conflicts()
    with pytest.raises(InvariantViolation, match="mappings reconciled"):
        quiesce(FakeCluster([ns0]))


def test_dead_servers_are_exempt():
    ns0, ns1 = FakeServer("ns0"), FakeServer("ns1")
    ns0.db.apply(record_of("p0", 1, "hwg:x"))
    ns1.db.apply(record_of("p9", 4, "hwg:y", lwg="lwg:b"))  # ns1 is down
    quiesce(FakeCluster([ns0, ns1], down={"ns1"}))


def test_no_live_server_leaves_nothing_to_compare():
    ns0 = FakeServer("ns0")
    ns0.db.apply(record_of("p0", 1, "hwg:x"))
    ns0.db.apply(record_of("p5", 1, "hwg:y"))  # a conflict, but ns0 is down
    quiesce(FakeCluster([ns0], down={"ns0"}))


def test_equal_live_records_with_diverging_tombstones_fail():
    ns0, ns1 = FakeServer("ns0"), FakeServer("ns1")
    for server in (ns0, ns1):
        server.db.apply(record_of("p0", 1, "hwg:x"))
    # Only ns1 holds the tombstone of a destroyed LWG: the live tables
    # agree, the stores do not.
    ns1.db.apply(replace(record_of("p9", 4, "hwg:y", lwg="lwg:b"), deleted=True))
    with pytest.raises(InvariantViolation, match="byte-identical replicas"):
        quiesce(FakeCluster([ns0, ns1]))
