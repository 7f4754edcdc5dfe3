"""Property tests: persist -> load is the identity on database content.

Whatever mutation sequence a replica lives through — interleaved record
applies (with or without genealogy parents), bulk edge absorption and
snapshot compactions at arbitrary points — reloading its durable state
must reproduce the exact content hash and Merkle root.  This is the
contract the whole recovery path rests on: a restarted node's Merkle
descent against its peers starts from precisely the state it had
persisted.
"""

import hashlib
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.naming import (
    CORRUPTION_MODES,
    DurableStore,
    MappingRecord,
    MemoryStorage,
    NamingDatabase,
    inject_corruption,
    shard_of_lwg,
)
from repro.naming.persistence import encode_record
from repro.vsync.view import ViewId

lwg_ids = st.sampled_from(["lwg:a", "lwg:b", "lwg:c"])
writers = st.sampled_from(["p0", "p1", "p2"])
hwgs = st.sampled_from(["hwg:x", "hwg:y"])
view_ids = st.builds(
    ViewId,
    coordinator=writers,
    seq=st.integers(min_value=1, max_value=6),
)


@st.composite
def apply_ops(draw):
    writer = draw(writers)
    record = MappingRecord(
        lwg=draw(lwg_ids),
        lwg_view=ViewId(writer, draw(st.integers(min_value=1, max_value=6))),
        lwg_members=(writer,),
        hwg=draw(hwgs),
        hwg_view=ViewId("h", draw(st.integers(min_value=1, max_value=3))),
        version=draw(st.integers(min_value=1, max_value=8)),
        writer=writer,
        deleted=draw(st.booleans()),
    )
    parents = draw(st.lists(view_ids, max_size=2, unique=True))
    return ("apply", record, tuple(parents))


@st.composite
def edge_ops(draw):
    edges = draw(
        st.dictionaries(view_ids, st.lists(view_ids, max_size=2, unique=True), max_size=3)
    )
    return ("edges", {c: tuple(p) for c, p in edges.items()}, None)


ops = st.lists(
    st.one_of(apply_ops(), edge_ops(), st.just(("compact", None, None))),
    max_size=20,
)


def run_ops(store, db, sequence):
    for kind, payload, parents in sequence:
        if kind == "apply":
            db.apply(payload, parents)
        elif kind == "edges":
            if payload:
                db.absorb_genealogy(payload)
                db.garbage_collect()
        elif kind == "compact":
            store.write_snapshot(db)


@settings(max_examples=80, deadline=None)
@given(sequence=ops)
def test_persist_load_preserves_content_hash_and_merkle_root(sequence):
    store = DurableStore(MemoryStorage(), snapshot_every=5)
    db = NamingDatabase()
    store.attach(db)
    run_ops(store, db, sequence)
    # load() ends with a full GC sweep; compare against the live
    # database's own fully-collected fixed point.
    db.garbage_collect()
    reloaded = store.load().db
    assert reloaded.content_hash() == db.content_hash()
    assert reloaded.merkle.root_hash() == db.merkle.root_hash()
    assert reloaded.verify_integrity() == []


@settings(max_examples=40, deadline=None)
@given(sequence=ops)
def test_load_is_idempotent_and_read_only(sequence):
    store = DurableStore(MemoryStorage(), snapshot_every=5)
    db = NamingDatabase()
    store.attach(db)
    run_ops(store, db, sequence)
    first = store.load().db
    second = store.load().db
    assert first.content_hash() == second.content_hash()
    assert [r for r in first.snapshot()] == [r for r in second.snapshot()]


@settings(max_examples=40, deadline=None)
@given(sequence=ops)
def test_serialized_bytes_are_canonical(sequence):
    """Two replicas applying the same mutations persist identical bytes."""
    blobs = []
    for _ in range(2):
        store = DurableStore(MemoryStorage(), snapshot_every=1000)
        db = NamingDatabase()
        store.attach(db)
        run_ops(store, db, sequence)
        store.write_snapshot(db)
        blobs.append(store.storage.read("snapshot"))
    assert blobs[0] == blobs[1]


def reference_snapshot_bytes(db):
    """The snapshot area as one ``json.dumps`` of the whole body.

    This is the definition; ``write_snapshot`` assembles the same bytes
    from the database's cached per-edge fragments.
    """
    shards = {}
    for record in db.snapshot():
        shards.setdefault(shard_of_lwg(record.lwg), []).append(encode_record(record))
    edges = sorted(
        [[child.coordinator, child.seq], [[p.coordinator, p.seq] for p in parents]]
        for child, parents in db.genealogy_edges().items()
    )
    body = json.dumps(
        {"shards": shards, "edges": edges}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    header = f"LWGSNAP1 {hashlib.sha256(body).hexdigest()}\n".encode("ascii")
    return header + body


class SnapshotCheckingStore(DurableStore):
    """Compares every snapshot with the reference at the moment it is written
    (compaction fires from inside ``apply``, before that apply's GC)."""

    def write_snapshot(self, db):
        super().write_snapshot(db)
        assert self.storage.read("snapshot") == reference_snapshot_bytes(db)


@settings(max_examples=80, deadline=None)
@given(
    sequence=ops,
    mode=st.sampled_from((None,) + CORRUPTION_MODES),
    corruption_seed=st.integers(min_value=0, max_value=1 << 16),
)
def test_snapshot_bytes_equal_the_whole_body_encoding(sequence, mode, corruption_seed):
    store = SnapshotCheckingStore(MemoryStorage(), snapshot_every=5)
    db = NamingDatabase()
    store.attach(db)
    run_ops(store, db, sequence)
    store.write_snapshot(db)
    if mode is not None:
        inject_corruption(store, mode, random.Random(corruption_seed), db)
    # Whatever load() salvages is a database like any other: its own
    # snapshot is byte-identical to the reference too, and reloads to it.
    reloaded = store.load().db
    second = SnapshotCheckingStore(MemoryStorage())
    second.write_snapshot(reloaded)
    assert second.load().db.content_hash() == reloaded.content_hash()
