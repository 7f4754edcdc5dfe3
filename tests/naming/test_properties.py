"""Property-based tests of the naming database's replication semantics.

The reconciliation design rests on three algebraic properties of the
store: applying records is *commutative* (any delivery order converges),
*idempotent* (retries are free) and *monotone under gossip* (push-pull
exchanges always converge replicas to the same state).  Hypothesis
drives them with random record batches.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.naming import MappingRecord, NamingDatabase, absorb, databases_consistent
from repro.naming.reconciliation import genealogy_to_send, records_to_send
from repro.vsync.view import ViewId

lwg_ids = st.sampled_from(["lwg:a", "lwg:b", "lwg:c"])
writers = st.sampled_from(["p0", "p1", "p2"])
hwgs = st.sampled_from(["hwg:x", "hwg:y", "hwg:z"])


@st.composite
def records(draw):
    lwg = draw(lwg_ids)
    writer = draw(writers)
    seq = draw(st.integers(min_value=1, max_value=4))
    return MappingRecord(
        lwg=lwg,
        lwg_view=ViewId(writer, seq),
        lwg_members=(writer,),
        hwg=draw(hwgs),
        hwg_view=ViewId("h", draw(st.integers(min_value=1, max_value=3))),
        version=draw(st.integers(min_value=1, max_value=5)),
        writer=writer,
        deleted=draw(st.booleans()),
    )


record_batches = st.lists(records(), min_size=0, max_size=12)


@settings(max_examples=60, deadline=None)
@given(batch=record_batches, order_seed=st.randoms(use_true_random=False))
def test_apply_order_does_not_matter(batch, order_seed):
    forward = NamingDatabase()
    shuffled_db = NamingDatabase()
    for record in batch:
        forward.apply(record)
    shuffled = list(batch)
    order_seed.shuffle(shuffled)
    for record in shuffled:
        shuffled_db.apply(record)
    assert forward.snapshot() == shuffled_db.snapshot()


@settings(max_examples=60, deadline=None)
@given(batch=record_batches)
def test_apply_is_idempotent(batch):
    once = NamingDatabase()
    twice = NamingDatabase()
    for record in batch:
        once.apply(record)
    for record in batch + batch:
        twice.apply(record)
    assert once.snapshot() == twice.snapshot()


def push_pull(a: NamingDatabase, b: NamingDatabase) -> None:
    absorb(a, records_to_send(b, a.digest()), genealogy_to_send(b, a.genealogy_edges()))
    absorb(b, records_to_send(a, b.digest()), genealogy_to_send(a, b.genealogy_edges()))


@settings(max_examples=40, deadline=None)
@given(batch_a=record_batches, batch_b=record_batches)
def test_push_pull_converges_two_replicas(batch_a, batch_b):
    a, b = NamingDatabase(), NamingDatabase()
    for record in batch_a:
        a.apply(record)
    for record in batch_b:
        b.apply(record)
    push_pull(a, b)
    assert databases_consistent([a, b])


@settings(max_examples=25, deadline=None)
@given(
    batches=st.lists(record_batches, min_size=3, max_size=3),
    pair_order=st.permutations([(0, 1), (1, 2), (0, 2)]),
)
def test_gossip_rounds_converge_three_replicas(batches, pair_order):
    replicas = [NamingDatabase() for _ in range(3)]
    for replica, batch in zip(replicas, batches):
        for record in batch:
            replica.apply(record)
    # Two sweeps over all pairs always suffice for 3 replicas.
    for _ in range(2):
        for i, j in pair_order:
            push_pull(replicas[i], replicas[j])
    assert databases_consistent(replicas)


@settings(max_examples=40, deadline=None)
@given(batch=record_batches)
def test_gc_never_removes_maximal_views(batch):
    """GC only ever removes records whose view has a recorded descendant."""
    db = NamingDatabase()
    for record in batch:
        db.apply(record)
    # Link every view of each lwg into a chain ordered by (writer, seq)
    views_by_lwg = {}
    for record in db.snapshot():
        views_by_lwg.setdefault(record.lwg, []).append(record.lwg_view)
    for lwg, views in views_by_lwg.items():
        ordered = sorted(set(views))
        for parent, child in zip(ordered, ordered[1:]):
            db.absorb_genealogy({child: (parent,)})
    db.garbage_collect()
    for lwg, views in views_by_lwg.items():
        keys = [k for k in (r.key for r in db.snapshot()) if k[0] == lwg]
        if views:
            assert (lwg, max(set(views))) in keys  # the maximum survives


# ----------------------------------------------------------------------
# Incremental queries equal their from-scratch definitions
# ----------------------------------------------------------------------
view_ids = st.builds(ViewId, coordinator=writers, seq=st.integers(min_value=1, max_value=4))
parent_lists = st.lists(view_ids, max_size=2, unique=True)
mutations = st.lists(
    st.one_of(
        st.tuples(st.just("apply"), records(), parent_lists),
        st.tuples(st.just("absorb"), st.dictionaries(view_ids, parent_lists, max_size=3)),
    ),
    max_size=16,
)


def brute_live_records(db, lwg):
    return sorted(
        (r for r in db.snapshot() if r.lwg == lwg and not r.deleted),
        key=lambda r: (r.lwg_view, r.hwg_view),
    )


def brute_conflicts(db):
    out = {}
    for lwg in sorted({r.lwg for r in db.snapshot()}):
        live = brute_live_records(db, lwg)
        if len({r.hwg for r in live}) > 1:
            out[lwg] = live
    return out


def reference_content_hash(db):
    """``content_hash`` as defined before any of it was cached per edge."""
    genealogy = hashlib.sha256()
    edges = db.genealogy.edges()
    for child in sorted(edges):
        genealogy.update(repr((child, edges[child])).encode())
    hasher = hashlib.sha256(db.merkle.root_hash().encode("ascii"))
    hasher.update(b"|")
    hasher.update(genealogy.hexdigest().encode("ascii"))
    return hasher.hexdigest()


def assert_queries_match_definitions(db):
    assert db.conflicts() == brute_conflicts(db)
    assert list(db.conflicts()) == sorted(db.conflicts())
    for lwg in ["lwg:a", "lwg:b", "lwg:c"]:
        assert db.live_records(lwg) == brute_live_records(db, lwg)
    assert db.content_hash() == reference_content_hash(db)
    assert db.verify_integrity() == []


def mutate(db, step):
    if step[0] == "apply":
        db.apply(step[1], step[2])
    else:
        absorb(db, (), {c: tuple(p) for c, p in step[1].items()})


@settings(max_examples=80, deadline=None)
@given(sequence=mutations, clone_at=st.integers(0, 16))
def test_conflicts_and_hashes_equal_their_definitions_after_every_mutation(
    sequence, clone_at
):
    db = NamingDatabase()
    clone = None
    for index, step in enumerate(sequence):
        if index == clone_at:
            clone = db.clone()
        mutate(db, step)
        assert_queries_match_definitions(db)
    if clone is not None:
        # The clone shares no derived state with the original: replaying
        # the tail into it lands on the same database.
        assert_queries_match_definitions(clone)
        for step in sequence[clone_at:]:
            mutate(clone, step)
        assert_queries_match_definitions(clone)
        assert clone.content_hash() == db.content_hash()
        assert clone.snapshot() == db.snapshot()


def test_lwg_dropping_to_one_key_through_gc_leaves_the_conflict_candidates():
    db = NamingDatabase()
    left, right, merged = ViewId("p0", 1), ViewId("p1", 1), ViewId("p0", 2)

    def mapping(view, hwg):
        return MappingRecord(
            lwg="lwg:a", lwg_view=view, lwg_members=("p0",), hwg=hwg,
            hwg_view=ViewId("h", 1), version=1, writer="p0",
        )

    db.apply(mapping(left, "hwg:x"))
    db.apply(mapping(right, "hwg:y"))
    assert list(db.conflicts()) == ["lwg:a"]
    db.apply(mapping(merged, "hwg:x"), parents=(left,))
    assert list(db.conflicts()) == ["lwg:a"]  # right is still concurrent
    absorb(db, (), {merged: (right,)})
    assert db.conflicts() == {}
    assert [r.lwg_view for r in db.live_records("lwg:a")] == [merged]
    assert_queries_match_definitions(db)
