"""Durable store unit tests: round-trips, corruption salvage, node meta."""

import pytest

from repro.naming import (
    CORRUPTION_MODES,
    DurableStore,
    MappingRecord,
    MemoryStorage,
    NamingDatabase,
    inject_corruption,
)
from repro.naming.persistence import (
    AREA_LOG,
    AREA_SNAPSHOT,
    AREA_SNAPSHOT_OLD,
    decode_record,
    encode_record,
)
from repro.vsync.view import ViewId

import random


def record(lwg="lwg:a", coord="p0", seq=1, hwg="hwg:x", version=1, deleted=False):
    return MappingRecord(
        lwg=lwg,
        lwg_view=ViewId(coord, seq),
        lwg_members=(coord, "p9"),
        hwg=hwg,
        hwg_view=ViewId("h", 1),
        version=version,
        writer=coord,
        deleted=deleted,
    )


def attached_store(**kwargs):
    store = DurableStore(MemoryStorage(), **kwargs)
    db = NamingDatabase()
    store.attach(db)
    return store, db


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
def test_record_codec_round_trips():
    original = record(deleted=True, version=7)
    assert decode_record(encode_record(original)) == original


# ----------------------------------------------------------------------
# Log + snapshot round-trips
# ----------------------------------------------------------------------
def test_empty_store_loads_empty_clean():
    store = DurableStore(MemoryStorage())
    assert not store.has_state()
    result = store.load()
    assert result.clean
    assert len(result.db) == 0


def test_log_replay_restores_records_and_genealogy():
    store, db = attached_store()
    parent, child = ViewId("p0", 1), ViewId("p0", 2)
    db.apply(record(seq=1))
    db.apply(record(seq=2, version=2), (parent,))
    assert store.has_state()
    result = store.load()
    assert result.clean
    assert result.log_entries == 2
    # Genealogy replay lets GC collect the superseded record, exactly
    # as the live database did.
    assert result.db.content_hash() == db.content_hash()
    assert ("lwg:a", child) in {r.key for r in result.db.snapshot()}


def test_snapshot_compaction_preserves_content_and_clears_log():
    store, db = attached_store(snapshot_every=4)
    for seq in range(1, 10):
        db.apply(record(coord="p1", seq=seq, version=seq))
    assert store.snapshots_written >= 1
    assert store.log_entries < 4
    result = store.load()
    assert result.clean and result.snapshot_used
    assert result.db.content_hash() == db.content_hash()


def test_absorb_genealogy_is_journaled():
    store, db = attached_store()
    db.apply(record(seq=1))
    db.apply(record(seq=2, version=2))
    db.absorb_genealogy({ViewId("p0", 2): (ViewId("p0", 1),)})
    db.garbage_collect()  # what reconciliation.absorb does after edges land
    reloaded = store.load().db
    assert reloaded.content_hash() == db.content_hash()
    assert len(reloaded) == 1  # the parent got collected on both sides


def test_second_store_over_the_same_storage_round_trips():
    storage = MemoryStorage()
    store = DurableStore(storage)
    db = NamingDatabase()
    store.attach(db)
    db.apply(record())
    store.write_snapshot(db)
    db.apply(record(seq=2, version=2))
    # A second store over the same bytes reads what the first one wrote.
    reborn = DurableStore(storage)
    assert reborn.has_state()
    result = reborn.load()
    assert result.clean
    assert result.db.content_hash() == db.content_hash()


# ----------------------------------------------------------------------
# Corruption: every mode is salvageable and detected
# ----------------------------------------------------------------------
def populated_store(entries=6):
    store, db = attached_store()
    for seq in range(1, entries + 1):
        db.apply(record(coord="p2", seq=seq, version=seq))
    return store, db


def test_truncated_log_detected_and_prefix_salvaged():
    store, db = populated_store()
    detail = inject_corruption(store, "truncated_log", random.Random(1), db=db)
    assert "truncated" in detail
    result = store.load()
    assert result.log_truncated or result.quarantined
    assert not result.clean
    assert result.log_entries < 6


def test_bit_flip_quarantines_one_line():
    store, db = populated_store()
    detail = inject_corruption(store, "bit_flip", random.Random(2), db=db)
    assert "flip@" in detail
    result = store.load()
    assert not result.clean
    # At most the framing of one entry is lost; the rest replays.
    assert result.quarantined + result.log_entries + int(result.log_truncated) >= 6


def test_stale_snapshot_rolls_back_to_previous_generation():
    store, db = attached_store()
    db.apply(record(seq=1))
    store.write_snapshot(db)
    db.apply(record(seq=2, version=2), (ViewId("p0", 1),))
    store.write_snapshot(db)
    assert store.storage.read(AREA_SNAPSHOT_OLD)
    inject_corruption(store, "stale_snapshot", random.Random(3), db=db)
    result = store.load()
    assert result.clean  # rollback is *silent* data loss, not dirt
    assert result.db.content_hash() != db.content_hash()
    assert ("lwg:a", ViewId("p0", 1)) in {r.key for r in result.db.snapshot()}


def test_orphan_mapping_plants_well_formed_ghost():
    store, db = populated_store()
    detail = inject_corruption(store, "orphan_mapping", random.Random(4), db=db)
    assert detail.startswith("orphan:")
    result = store.load()
    assert result.clean  # the ghost is syntactically legitimate
    assert any(r.lwg == "lwg:orphan" for r in result.db.snapshot())


@pytest.mark.parametrize("mode", CORRUPTION_MODES)
def test_every_mode_still_loads_without_raising(mode):
    store, db = populated_store()
    store.write_snapshot(db)
    db.apply(record(coord="p2", seq=20, version=20))
    inject_corruption(store, mode, random.Random(5), db=db)
    result = store.load()  # must never raise, whatever the damage
    assert result.db.verify_integrity() == []


def test_corruption_is_deterministic_under_equal_rng():
    outcomes = []
    for _ in range(2):
        store, db = populated_store()
        inject_corruption(store, "bit_flip", random.Random(42), db=db)
        outcomes.append(
            (store.storage.read(AREA_LOG), store.storage.read(AREA_SNAPSHOT))
        )
    assert outcomes[0] == outcomes[1]


def test_unknown_mode_rejected():
    store, _ = populated_store()
    with pytest.raises(ValueError, match="unknown corruption mode"):
        inject_corruption(store, "gamma_ray", random.Random(0))


# ----------------------------------------------------------------------
# Node meta: incarnation, view-seq, view history
# ----------------------------------------------------------------------
def test_incarnation_bumps_monotonically():
    store = DurableStore(MemoryStorage())
    assert store.incarnation() == 0
    assert store.bump_incarnation() == 1
    assert store.bump_incarnation() == 2
    # A surviving volatile counter ratchets the floor.
    assert store.bump_incarnation(at_least=10) == 11
    assert store.incarnation() == 11


def test_incarnation_survives_meta_corruption():
    store = DurableStore(MemoryStorage())
    store.bump_incarnation()
    store.storage.write("meta", b"\x00 garbage")
    reborn = DurableStore(store.storage)
    # Durable value is lost, but the volatile floor still forces progress.
    assert reborn.bump_incarnation(at_least=1) == 2


def test_view_seq_persists_and_never_regresses():
    store = DurableStore(MemoryStorage())
    store.persist_view_seq(5)
    store.persist_view_seq(3)  # must not regress
    assert DurableStore(store.storage).view_seq() == 5


def test_view_history_is_bounded_and_ordered():
    from repro.naming.persistence import VIEW_HISTORY_LIMIT

    store = DurableStore(MemoryStorage())
    for seq in range(1, VIEW_HISTORY_LIMIT + 10):
        store.record_view("g", ViewId("p0", seq), incarnation=1)
    history = store.view_history()
    assert len(history) == VIEW_HISTORY_LIMIT
    assert history[-1][1] == ViewId("p0", VIEW_HISTORY_LIMIT + 9)
