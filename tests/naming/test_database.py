"""Tests for the naming database: LWW, genealogy GC, conflicts."""

import pytest

from tests.helpers import CountingParents

from repro.naming import MappingRecord, NamingDatabase
from repro.naming.messages import PushUpdate
from repro.vsync.view import ViewId
from repro.workloads import Cluster


def rec(lwg, view, hwg, version=1, writer="w", members=("m0", "m1"), deleted=False,
        hwg_view=None):
    return MappingRecord(
        lwg=lwg,
        lwg_view=view,
        lwg_members=members,
        hwg=hwg,
        hwg_view=hwg_view or ViewId("h", 1),
        version=version,
        writer=writer,
        deleted=deleted,
    )


def test_apply_inserts_record():
    db = NamingDatabase()
    assert db.apply(rec("lwg:a", ViewId("p0", 1), "hwg:1"))
    assert len(db) == 1


def test_apply_lww_by_version():
    db = NamingDatabase()
    view = ViewId("p0", 1)
    db.apply(rec("lwg:a", view, "hwg:1", version=2))
    assert not db.apply(rec("lwg:a", view, "hwg:OLD", version=1))
    assert db.apply(rec("lwg:a", view, "hwg:NEW", version=3))
    assert db.live_records("lwg:a")[0].hwg == "hwg:NEW"


def test_apply_lww_tie_broken_by_writer():
    db = NamingDatabase()
    view = ViewId("p0", 1)
    db.apply(rec("lwg:a", view, "hwg:1", version=1, writer="a"))
    assert db.apply(rec("lwg:a", view, "hwg:2", version=1, writer="b"))
    assert not db.apply(rec("lwg:a", view, "hwg:3", version=1, writer="a"))


def test_concurrent_views_coexist():
    """Table 3: the merged database holds both partitions' mappings."""
    db = NamingDatabase()
    db.apply(rec("lwg:a", ViewId("p0", 1), "hwg:1"))
    db.apply(rec("lwg:a", ViewId("p5", 1), "hwg:2"))
    assert len(db.live_records("lwg:a")) == 2


def test_gc_removes_ancestor_mappings():
    """Table 4 stage 4: registering the merged view deletes its parents."""
    db = NamingDatabase()
    left, right = ViewId("p0", 1), ViewId("p5", 1)
    merged = ViewId("p0", 2)
    db.apply(rec("lwg:a", left, "hwg:1"))
    db.apply(rec("lwg:a", right, "hwg:2"))
    db.apply(rec("lwg:a", merged, "hwg:2", version=2), parents=[left, right])
    records = db.live_records("lwg:a")
    assert len(records) == 1
    assert records[0].lwg_view == merged


def test_gc_is_transitive():
    db = NamingDatabase()
    v1, v2, v3 = ViewId("p", 1), ViewId("p", 2), ViewId("p", 3)
    db.apply(rec("lwg:a", v1, "hwg:1"))
    db.apply(rec("lwg:a", v3, "hwg:1", version=3), parents=[v2])
    # v2's ancestry arrives later (e.g. via gossip): v1 <- v2.
    db.absorb_genealogy({v2: (v1,)})
    assert db.garbage_collect() == 1
    assert [r.lwg_view for r in db.live_records("lwg:a")] == [v3]


def test_gc_does_not_cross_lwgs():
    db = NamingDatabase()
    v1, v2 = ViewId("p", 1), ViewId("p", 2)
    db.apply(rec("lwg:a", v1, "hwg:1"))
    db.apply(rec("lwg:b", v2, "hwg:1"), parents=[v1])
    # v1 is an ancestor of v2, but they belong to different LWGs.
    assert len(db.live_records("lwg:a")) == 1


def test_conflicts_require_different_hwgs():
    db = NamingDatabase()
    db.apply(rec("lwg:a", ViewId("p0", 1), "hwg:1"))
    db.apply(rec("lwg:a", ViewId("p5", 1), "hwg:1"))  # same HWG: no conflict
    assert db.conflicts() == {}
    db.apply(rec("lwg:a", ViewId("p9", 1), "hwg:2"))
    assert "lwg:a" in db.conflicts()


def test_deleted_records_are_not_live():
    db = NamingDatabase()
    view = ViewId("p0", 1)
    db.apply(rec("lwg:a", view, "hwg:1", version=1))
    db.apply(rec("lwg:a", view, "hwg:1", version=2, deleted=True))
    assert db.live_records("lwg:a") == []
    assert db.lwgs() == set()


def test_digest_and_missing_records():
    db1, db2 = NamingDatabase(), NamingDatabase()
    r1 = rec("lwg:a", ViewId("p0", 1), "hwg:1", version=1)
    r2 = rec("lwg:b", ViewId("p1", 1), "hwg:2", version=1)
    db1.apply(r1)
    db1.apply(r2)
    db2.apply(r1)
    missing = db1.records_missing_from(db2.digest())
    assert missing == [r2]


def test_missing_records_include_newer_versions():
    db1, db2 = NamingDatabase(), NamingDatabase()
    view = ViewId("p0", 1)
    db1.apply(rec("lwg:a", view, "hwg:NEW", version=5))
    db2.apply(rec("lwg:a", view, "hwg:OLD", version=1))
    missing = db1.records_missing_from(db2.digest())
    assert len(missing) == 1 and missing[0].hwg == "hwg:NEW"


def test_live_records_sorted_deterministically():
    db = NamingDatabase()
    db.apply(rec("lwg:a", ViewId("z", 1), "hwg:2"))
    db.apply(rec("lwg:a", ViewId("a", 1), "hwg:1"))
    records = db.live_records("lwg:a")
    assert records[0].lwg_view == ViewId("a", 1)


def test_snapshot_lists_everything_including_tombstones():
    db = NamingDatabase()
    db.apply(rec("lwg:a", ViewId("p", 1), "hwg:1", deleted=True))
    assert len(db.snapshot()) == 1
    assert db.live_records("lwg:a") == []


def test_content_hash_independent_of_insertion_order():
    db1, db2 = NamingDatabase(), NamingDatabase()
    a = rec("lwg:a", ViewId("p0", 1), "hwg:1")
    b = rec("lwg:b", ViewId("p1", 1), "hwg:2")
    db1.apply(a)
    db1.apply(b)
    db2.apply(b)
    db2.apply(a)
    assert db1.content_hash() == db2.content_hash()


def test_content_hash_changes_on_every_mutation_path():
    db = NamingDatabase()
    empty = db.content_hash()
    v1, v2 = ViewId("p", 1), ViewId("p", 2)
    db.apply(rec("lwg:a", v1, "hwg:1"))
    after_apply = db.content_hash()
    assert after_apply != empty
    # Genealogy-only knowledge is content too: a replica that knows the
    # ancestry differs from one that does not, even with equal records.
    db.absorb_genealogy({v2: (v1,)})
    after_edges = db.content_hash()
    assert after_edges != after_apply
    # GC triggered by a later record flows through apply(); a bare
    # garbage_collect() that removes something must also invalidate.
    db.apply(rec("lwg:a", v2, "hwg:2", version=2))
    assert db.garbage_collect() == 0  # apply already collected v1
    assert db.content_hash() not in (empty, after_apply, after_edges)


def test_content_hash_distinguishes_tombstones():
    live, dead = NamingDatabase(), NamingDatabase()
    view = ViewId("p", 1)
    live.apply(rec("lwg:a", view, "hwg:1"))
    dead.apply(rec("lwg:a", view, "hwg:1", deleted=True))
    assert live.content_hash() != dead.content_hash()


def test_content_hash_is_cached_until_mutation():
    db = NamingDatabase()
    db.apply(rec("lwg:a", ViewId("p", 1), "hwg:1"))
    assert db.content_hash() is db.content_hash()  # cache hit, same object
    assert not db.apply(rec("lwg:a", ViewId("p", 1), "hwg:OLD", version=0))
    # A rejected stale write leaves the content (and its hash) alone.
    assert db.content_hash() == db.content_hash()


def test_lww_losing_record_with_new_genealogy_still_collects():
    """Regression: GC must run when a rejected record carried new edges.

    A replica already holds the merged view's mapping at a high version
    plus a stale pre-merge mapping whose ancestry it does not know yet.
    An older copy of the merged record arrives (loses last-writer-wins)
    but carries the merge genealogy.  The edges are new knowledge that
    obsoletes the pre-merge record; before the fix apply() returned
    False without collecting, so the stale mapping lingered until an
    unrelated mutation of the same LWG.
    """
    db = NamingDatabase()
    old, merged = ViewId("p0", 1), ViewId("p0", 2)
    db.apply(rec("lwg:a", old, "hwg:1"))
    db.apply(rec("lwg:a", merged, "hwg:2", version=5))
    assert len(db.live_records("lwg:a")) == 2  # ancestry unknown yet
    losing = rec("lwg:a", merged, "hwg:STALE", version=2)
    assert not db.apply(losing, parents=[old])
    records = db.live_records("lwg:a")
    assert [r.lwg_view for r in records] == [merged]
    assert records[0].hwg == "hwg:2"  # the losing copy itself was rejected


def test_lww_losing_record_without_genealogy_skips_gc_scan():
    db = NamingDatabase()
    view = ViewId("p0", 1)
    db.apply(rec("lwg:a", view, "hwg:1", version=3))
    before = db.content_hash()
    assert not db.apply(rec("lwg:a", view, "hwg:OLD", version=1))
    assert db.content_hash() == before


# ----------------------------------------------------------------------
# Ageing: GC cost follows the records at stake, not the history behind them
# ----------------------------------------------------------------------
def split_after_history(lwgs, length):
    """Each LWG: a chain of ``length`` views, then two concurrent mapped heads."""
    db = NamingDatabase()
    for index in range(lwgs):
        lwg = f"lwg:{index:02d}"
        history = [ViewId(f"h{index}", seq) for seq in range(length)]
        db.absorb_genealogy(
            {child: (parent,) for parent, child in zip(history, history[1:])}
        )
        for side, hwg in (("a", "hwg:1"), ("b", "hwg:2")):
            db.apply(rec(lwg, ViewId(f"{side}{index}", 1), hwg), parents=[history[-1]])
    db.genealogy._parents = CountingParents(db.genealogy._parents)
    return db


def gc_lookups(lwgs, length, target):
    db = split_after_history(lwgs, length)
    assert db.garbage_collect(target) == 0
    assert len(db.conflicts()) == lwgs
    return db.genealogy._parents.lookups


def test_gc_of_concurrent_heads_does_not_walk_their_history():
    assert gc_lookups(1, 10, "lwg:00") == gc_lookups(1, 1000, "lwg:00")


def test_full_gc_sweep_does_not_walk_any_history():
    assert gc_lookups(32, 10, None) == gc_lookups(32, 1000, None)


def test_gc_still_finds_a_distant_ancestor():
    db = split_after_history(1, 200)
    db.apply(rec("lwg:00", ViewId("h0", 0), "hwg:0"))  # the root, mapped late
    assert [r.lwg_view for r in db.live_records("lwg:00")] == [
        ViewId("a0", 1),
        ViewId("b0", 1),
    ]


# ----------------------------------------------------------------------
# Hostile input: a cyclic genealogy off the wire
# ----------------------------------------------------------------------
def test_push_update_closing_a_genealogy_cycle_is_absorbed():
    cluster = Cluster(num_processes=1, seed=7, num_name_servers=1)
    server = cluster.name_servers["ns0"]
    v1, v2, v3, v4 = (ViewId("p", seq) for seq in (1, 2, 3, 4))
    server.on_message(
        "evil",
        PushUpdate(
            sender="evil",
            records=(rec("lwg:a", v1, "hwg:1"), rec("lwg:a", v3, "hwg:2")),
            genealogy={v2: (v1,), v3: (v2,), v1: (v3,)},
        ),
        0,
    )
    db = server.db
    assert db.genealogy._cyclic
    # On a cycle each view is the other's ancestor: the plain walk
    # collects both, exactly as it did before there was a level index.
    assert db.live_records("lwg:a") == []
    # Later decisions still follow the plain walk over the whole map.
    server.on_message(
        "evil",
        PushUpdate(
            sender="evil",
            records=(rec("lwg:b", v2, "hwg:1"), rec("lwg:b", v4, "hwg:2", version=2)),
            genealogy={v4: (v1,)},
        ),
        0,
    )
    assert [r.lwg_view for r in db.live_records("lwg:b")] == [v4]
    assert db.verify_integrity() == []
    assert cluster.checkers.violations == []


def integrity_bed():
    """Two LWGs, one holding two live views on different HWGs, and two
    genealogy edges; every digest cache filled."""
    db = NamingDatabase()
    db.apply(rec("lwg:a", ViewId("p0", 2), "hwg:1"), parents=(ViewId("p0", 1),))
    db.apply(rec("lwg:a", ViewId("p5", 1), "hwg:2"))
    db.apply(rec("lwg:b", ViewId("p1", 3), "hwg:1"), parents=(ViewId("p1", 2),))
    db.content_hash()
    assert db.verify_integrity() == []
    return db


A2, B3 = ("lwg:a", ViewId("p0", 2)), ("lwg:b", ViewId("p1", 3))


@pytest.mark.parametrize(
    "damage, problems",
    [
        (lambda db: db._records.__setitem__(A2, db._records[B3]),
         ["record stored under wrong key"]),
        (lambda db: db._by_lwg["lwg:b"].discard(B3), ["per-lwg index missing key"]),
        (lambda db: db._by_lwg.__setitem__("lwg:z", set()), ["empty index bucket for lwg:z"]),
        (lambda db: db._by_lwg["lwg:b"].add(("lwg:b", ViewId("p9", 9))), ["index orphan"]),
        (lambda db: db._by_lwg["lwg:b"].add(A2), ["index bucket mismatch"]),
        (lambda db: db._contested.clear(),
         ["conflict candidates diverge", "conflicts() diverges from brute-force scan"]),
        (lambda db: db._edge_children.reverse(), ["cached edge order is not the sorted"]),
        (lambda db: db._edge_digest.__setitem__(ViewId("p0", 2), b"stale"),
         ["cached digest bytes stale", "genealogy digest diverges from its chained"]),
        (lambda db: setattr(db, "_genealogy_hash", "0" * 64), ["cached genealogy digest is stale"]),
        (lambda db: setattr(db, "_content_hash", "0" * 64), ["cached content hash is stale"]),
    ],
)
def test_verify_integrity_names_each_kind_of_damage(damage, problems):
    db = integrity_bed()
    damage(db)
    found = db.verify_integrity()
    for problem in problems:
        assert any(problem in line for line in found), (problem, found)
