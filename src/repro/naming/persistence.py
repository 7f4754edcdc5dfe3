"""Durable node state: snapshot + append-only log + node metadata.

Every scenario used to start from a clean boot; this module gives a node
a *disk* so it can crash mid-history and come back with its naming
database and its vsync identity intact — or detectably corrupted, which
the self-healing machinery then repairs (ROADMAP: "self-healing from
arbitrary state").  Three durable areas per node:

``snapshot``
    A checksummed full serialization of the
    :class:`~repro.naming.database.NamingDatabase` (records + genealogy
    edges).  Rewritten on compaction; the previous generation is kept in
    ``snapshot.old`` so fuzzing can force a *stale* snapshot.
``log``
    An append-only journal of every mutation since the snapshot, one
    CRC-framed canonical-JSON line per entry.  Entries are self-checking:
    a bit flip quarantines exactly one line, a torn tail is detected as
    truncation, and replay stops losing nothing else.
``meta``
    Small per-node vsync state — transport incarnation, the view-id
    sequence counter, and a bounded installed-view history — so a
    restarted node *bumps* its incarnation instead of reusing its old
    one, and never re-mints a ``ViewId`` from a previous life.

Corruption is a first-class input, not an error: :func:`inject_corruption`
implements the fuzzer's ``corrupt_state`` modes (truncated log, stale
snapshot, bit-flipped record, orphaned mapping) against the same byte
areas :meth:`DurableStore.load` reads back.  Whatever ``load`` salvages,
anti-entropy (PROTOCOLS.md §16) reconciles with the surviving replicas —
the recovery path *is* the reconciliation path.

Determinism: all serialization is canonical (sorted keys, sorted record
order), so identical databases persist to identical bytes on any
interpreter hash seed — a requirement for replayable fuzz schedules that
corrupt specific byte offsets.
"""

from __future__ import annotations

import hashlib
import json
import random
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..vsync.view import ViewId
from .database import NamingDatabase
from .records import (
    MappingRecord,
    canonical_json,
    decode_view_id,
    encode_edge,
    encode_view_id,
)
from .sharding import shard_of_lwg

#: Snapshot header magic; the space-separated sha256 of the body follows.
SNAPSHOT_MAGIC = "LWGSNAP1"

#: Durable area names.
AREA_SNAPSHOT = "snapshot"
AREA_SNAPSHOT_OLD = "snapshot.old"
AREA_LOG = "log"
AREA_META = "meta"

#: Append-only-log compaction threshold (entries since last snapshot).
DEFAULT_SNAPSHOT_EVERY = 64

#: Installed-view history entries retained in node meta.
VIEW_HISTORY_LIMIT = 64

#: The fuzzer's corruption modes (``corrupt_state`` step grammar).
CORRUPTION_MODES = (
    "truncated_log",
    "stale_snapshot",
    "bit_flip",
    "orphan_mapping",
)


# ----------------------------------------------------------------------
# Codec: canonical JSON forms for records (view ids and genealogy edges
# have theirs in ``records``, shared with the database's edge cache)
# ----------------------------------------------------------------------
def encode_record(record: MappingRecord) -> Dict[str, Any]:
    return {
        "lwg": record.lwg,
        "lv": encode_view_id(record.lwg_view),
        "lm": list(record.lwg_members),
        "hwg": record.hwg,
        "hv": encode_view_id(record.hwg_view),
        "ver": record.version,
        "w": record.writer,
        "del": record.deleted,
    }


def decode_record(data: Dict[str, Any]) -> MappingRecord:
    return MappingRecord(
        lwg=str(data["lwg"]),
        lwg_view=decode_view_id(data["lv"]),
        lwg_members=tuple(str(m) for m in data["lm"]),
        hwg=str(data["hwg"]),
        hwg_view=decode_view_id(data["hv"]),
        version=int(data["ver"]),
        writer=str(data["w"]),
        deleted=bool(data["del"]),
    )


def _frame(obj: Any) -> bytes:
    """One log line: ``crc32hex<space>json\\n`` (self-checking)."""
    body = canonical_json(obj)
    return f"{zlib.crc32(body):08x} ".encode("ascii") + body + b"\n"


def _unframe(line: bytes) -> Optional[Any]:
    """Decode one framed line; None if the checksum or syntax fails."""
    try:
        crc_hex, body = line.split(b" ", 1)
        if int(crc_hex, 16) != zlib.crc32(body):
            return None
        return json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None


# ----------------------------------------------------------------------
# Storage backends
# ----------------------------------------------------------------------
class MemoryStorage:
    """Byte-area storage living in process memory.

    This models the node's disk inside the deterministic simulator:
    :class:`~repro.sim.process.Process` objects survive a simulated
    crash, so bytes written here persist across crash/recover while the
    *volatile* protocol state is wiped and rebuilt from them.
    """

    def __init__(self) -> None:
        self._areas: Dict[str, bytes] = {}

    def read(self, area: str) -> bytes:
        return self._areas.get(area, b"")

    def write(self, area: str, data: bytes) -> None:
        if data:
            self._areas[area] = bytes(data)
        else:
            self._areas.pop(area, None)

    def append(self, area: str, data: bytes) -> None:
        self._areas[area] = self._areas.get(area, b"") + bytes(data)


class FileStorage:
    """Byte-area storage backed by files in a directory.

    The real-deployment counterpart of :class:`MemoryStorage`: an
    asyncio-backend node pointed at the same directory across OS-process
    restarts recovers through the identical
    :meth:`DurableStore.load` path the simulator exercises.
    """

    def __init__(self, directory: Path | str):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, area: str) -> Path:
        return self.directory / area

    def read(self, area: str) -> bytes:
        try:
            return self._path(area).read_bytes()
        except FileNotFoundError:
            return b""

    def write(self, area: str, data: bytes) -> None:
        if data:
            self._path(area).write_bytes(data)
        else:
            try:
                self._path(area).unlink()
            except FileNotFoundError:
                pass

    def append(self, area: str, data: bytes) -> None:
        with open(self._path(area), "ab") as handle:
            handle.write(data)


# ----------------------------------------------------------------------
# Load result
# ----------------------------------------------------------------------
@dataclass
class LoadResult:
    """What :meth:`DurableStore.load` salvaged from the durable areas."""

    db: NamingDatabase
    #: True if a valid snapshot seeded the database.
    snapshot_used: bool = False
    #: True if the snapshot existed but failed its checksum.
    snapshot_rejected: bool = False
    #: Log entries replayed successfully.
    log_entries: int = 0
    #: Whole log lines dropped for checksum/decode failure.
    quarantined: int = 0
    #: True if the log ended in a torn (unterminated) line.
    log_truncated: bool = False
    #: Records skipped because their shard is not in the caller's
    #: ``owned`` scope (valid bytes, deliberately not loaded — a shard
    #: hand-off or a stray foreign write, never damage).
    filtered: int = 0

    @property
    def clean(self) -> bool:
        return not (self.snapshot_rejected or self.quarantined or self.log_truncated)

    def describe(self) -> str:
        flags = []
        if self.snapshot_used:
            flags.append("snapshot")
        if self.snapshot_rejected:
            flags.append("snapshot-rejected")
        if self.quarantined:
            flags.append(f"quarantined={self.quarantined}")
        if self.log_truncated:
            flags.append("log-truncated")
        if self.filtered:
            flags.append(f"filtered={self.filtered}")
        return (
            f"records={len(self.db)} log_entries={self.log_entries} "
            f"{' '.join(flags) or 'clean'}"
        )


# ----------------------------------------------------------------------
# The durable store
# ----------------------------------------------------------------------
class DurableStore:
    """One node's durable state: naming snapshot + log, and vsync meta.

    The store is *passive*: it never touches a live database except
    through the two hook slots :meth:`attach` fills
    (``NamingDatabase.on_applied`` / ``on_edges``), and :meth:`load`
    always builds a **fresh** database through the normal mutation
    funnel — which is what rebuilds the Merkle tree, the per-LWG index
    and the genealogy from bytes.
    """

    def __init__(self, storage: Any = None, snapshot_every: int = DEFAULT_SNAPSHOT_EVERY):
        self.storage = storage if storage is not None else MemoryStorage()
        self.snapshot_every = snapshot_every
        #: Entries appended since the last snapshot write.
        self.log_entries = 0
        self.snapshots_written = 0
        self.entries_appended = 0
        self._meta_cache: Optional[Dict[str, Any]] = None
        self._attached: Optional[NamingDatabase] = None

    def has_state(self) -> bool:
        """True if any durable area holds bytes (i.e. this is a restart)."""
        return any(
            self.storage.read(area)
            for area in (AREA_SNAPSHOT, AREA_LOG, AREA_META)
        )

    # ------------------------------------------------------------------
    # Naming database: persist hooks
    # ------------------------------------------------------------------
    def attach(self, db: NamingDatabase) -> None:
        """Wire ``db``'s persistence hooks so every mutation is journaled."""
        self._attached = db
        db.on_applied = self._on_applied
        db.on_edges = self._on_edges

    def _on_applied(self, record: MappingRecord, parents: Tuple[ViewId, ...]) -> None:
        self._append(
            {
                "k": "rec",
                "s": shard_of_lwg(record.lwg),
                "r": encode_record(record),
                "p": [encode_view_id(p) for p in parents],
            }
        )

    def _on_edges(self, edges: Dict[ViewId, Tuple[ViewId, ...]]) -> None:
        self._append(
            {
                "k": "edges",
                "e": sorted(encode_edge(c, parents) for c, parents in edges.items()),
            }
        )

    def _append(self, entry: Dict[str, Any]) -> None:
        self.storage.append(AREA_LOG, _frame(entry))
        self.log_entries += 1
        self.entries_appended += 1
        if self.log_entries >= self.snapshot_every and self._attached is not None:
            self.write_snapshot(self._attached)

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def write_snapshot(self, db: NamingDatabase) -> None:
        """Serialize ``db`` fully, retire the old snapshot, clear the log.

        Records are grouped by shard so a scoped :meth:`load` can skip
        whole foreign shard groups; genealogy edges stay global (GC
        needs the full ancestry regardless of which shards are loaded).
        """
        shards: Dict[str, List[Dict[str, Any]]] = {}
        for record in db.snapshot():
            shards.setdefault(shard_of_lwg(record.lwg), []).append(
                encode_record(record)
            )
        # Byte-for-byte ``canonical_json({"edges": [...], "shards":
        # shards})``, with the edge list taken from the database's
        # per-edge fragments instead of re-encoding all of history.
        body = b"".join(
            (
                b'{"edges":[',
                b",".join(db.genealogy_edge_fragments()),
                b'],"shards":',
                canonical_json(shards),
                b"}",
            )
        )
        digest = hashlib.sha256(body).hexdigest()
        data = f"{SNAPSHOT_MAGIC} {digest}\n".encode("ascii") + body
        previous = self.storage.read(AREA_SNAPSHOT)
        if previous:
            self.storage.write(AREA_SNAPSHOT_OLD, previous)
        self.storage.write(AREA_SNAPSHOT, data)
        self.storage.write(AREA_LOG, b"")
        self.log_entries = 0
        self.snapshots_written += 1

    def _decode_snapshot(self, data: bytes) -> Optional[Dict[str, Any]]:
        try:
            header, body = data.split(b"\n", 1)
            magic, digest = header.decode("ascii").split(" ", 1)
            if magic != SNAPSHOT_MAGIC:
                return None
            if hashlib.sha256(body).hexdigest() != digest:
                return None
            parsed = json.loads(body.decode("utf-8"))
            return parsed if isinstance(parsed, dict) else None
        except (ValueError, UnicodeDecodeError):
            return None

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def load(self, owned: Optional[FrozenSet[str]] = None) -> LoadResult:
        """Rebuild a database from snapshot + log, quarantining corruption.

        Read-only with respect to the durable areas.  The returned
        database has no hooks attached; callers wire their own (and
        typically re-:meth:`attach` this store).  Replay ends with a
        full garbage-collection sweep so the result is the same
        fully-collected fixed point the live database maintains.

        ``owned`` scopes the reload to a set of shards: records of
        other shards are counted in :attr:`LoadResult.filtered` and not
        applied (a sharded server recovers only its own data), while
        genealogy — global knowledge — is always absorbed in full, so
        the reloaded database garbage-collects exactly like the live
        one did.  ``None`` loads everything.
        """
        db = NamingDatabase()
        result = LoadResult(db=db)
        snap = self.storage.read(AREA_SNAPSHOT)
        if snap:
            parsed = self._decode_snapshot(snap)
            if parsed is None:
                result.snapshot_rejected = True
            else:
                result.snapshot_used = True
                self._replay_edges(db, parsed.get("edges", ()))
                shards = parsed.get("shards")
                if shards is None:
                    # Pre-sharding snapshot layout: one flat record list.
                    groups = [("", parsed.get("records", ()))]
                else:
                    groups = sorted(shards.items())
                for shard, encoded_records in groups:
                    for encoded in encoded_records:
                        record = decode_record(encoded)
                        key = shard or shard_of_lwg(record.lwg)
                        if owned is not None and key not in owned:
                            result.filtered += 1
                            continue
                        db.apply(record)
        log = self.storage.read(AREA_LOG)
        if log:
            lines = log.split(b"\n")
            if lines and lines[-1] == b"":
                lines.pop()
            elif lines:
                # No trailing newline: the final line is a torn write.
                lines.pop()
                result.log_truncated = True
            for line in lines:
                entry = _unframe(line)
                if entry is None:
                    result.quarantined += 1
                    continue
                self._replay_entry(db, entry, owned, result)
                result.log_entries += 1
        db.garbage_collect()
        return result

    def _replay_entry(
        self,
        db: NamingDatabase,
        entry: Dict[str, Any],
        owned: Optional[FrozenSet[str]],
        result: LoadResult,
    ) -> None:
        kind = entry.get("k")
        if kind == "rec":
            record = decode_record(entry["r"])
            parents = tuple(decode_view_id(p) for p in entry.get("p", ()))
            shard = entry.get("s") or shard_of_lwg(record.lwg)
            if owned is not None and shard not in owned:
                # Foreign shard: keep the ancestry (global), drop the
                # record — mirroring what the live replica stored.
                result.filtered += 1
                if parents:
                    db.absorb_genealogy({record.lwg_view: parents})
                    db.garbage_collect()
                return
            db.apply(record, parents)
        elif kind == "edges":
            self._replay_edges(db, entry.get("e", ()))
            # Mirrors reconciliation.absorb: fresh genealogy knowledge
            # can obsolete records of any LWG, so sweep everything.
            db.garbage_collect()
        # Unknown kinds are skipped: forward compatibility over failure.

    @staticmethod
    def _replay_edges(db: NamingDatabase, encoded_edges: Any) -> None:
        edges = {
            decode_view_id(child): tuple(decode_view_id(p) for p in parents)
            for child, parents in encoded_edges
        }
        if edges:
            db.absorb_genealogy(edges)

    # ------------------------------------------------------------------
    # Node meta: incarnation, view-seq, installed-view history
    # ------------------------------------------------------------------
    def load_meta(self) -> Dict[str, Any]:
        """The node-meta dict ({} if absent or corrupt)."""
        if self._meta_cache is not None:
            return dict(self._meta_cache)
        raw = self.storage.read(AREA_META)
        meta: Dict[str, Any] = {}
        if raw:
            parsed = _unframe(raw.rstrip(b"\n"))
            if isinstance(parsed, dict):
                meta = parsed
        self._meta_cache = dict(meta)
        return meta

    def save_meta(self, meta: Dict[str, Any]) -> None:
        self._meta_cache = dict(meta)
        self.storage.write(AREA_META, _frame(meta))

    def bump_incarnation(self, at_least: int = 0) -> int:
        """Advance and persist the node incarnation; returns the new value.

        Monotonic against both the durable value and ``at_least`` (the
        caller's surviving volatile counter), so even a corrupted meta
        area can never hand out a stale incarnation.
        """
        meta = self.load_meta()
        new = max(int(meta.get("incarnation", 0)), at_least) + 1
        meta["incarnation"] = new
        self.save_meta(meta)
        return new

    def incarnation(self) -> int:
        return int(self.load_meta().get("incarnation", 0))

    def persist_view_seq(self, view_seq: int) -> None:
        meta = self.load_meta()
        if int(meta.get("view_seq", 0)) < view_seq:
            meta["view_seq"] = view_seq
            self.save_meta(meta)

    def view_seq(self) -> int:
        return int(self.load_meta().get("view_seq", 0))

    def record_view(self, group: str, view_id: ViewId, incarnation: int) -> None:
        """Append one installed view to the bounded per-node history."""
        meta = self.load_meta()
        history = list(meta.get("views", ()))
        history.append([group, encode_view_id(view_id), incarnation])
        meta["views"] = history[-VIEW_HISTORY_LIMIT:]
        self.save_meta(meta)

    def view_history(self) -> List[Tuple[str, ViewId, int]]:
        out: List[Tuple[str, ViewId, int]] = []
        for entry in self.load_meta().get("views", ()):
            try:
                group, encoded, incarnation = entry
                out.append((str(group), decode_view_id(encoded), int(incarnation)))
            except (TypeError, ValueError):
                continue
        return out


# ----------------------------------------------------------------------
# Corruption injection (the fuzzer's ``corrupt_state`` modes)
# ----------------------------------------------------------------------
def inject_corruption(
    store: DurableStore,
    mode: str,
    rng: random.Random,
    db: Optional[NamingDatabase] = None,
) -> str:
    """Corrupt ``store``'s durable areas; returns a detail string.

    All randomness comes from ``rng`` over deterministic byte contents,
    so a replayed schedule corrupts the exact same bytes.  ``db`` (the
    pre-crash live database, when available) lets ``orphan_mapping``
    fabricate a plausible ghost record.
    """
    if mode == "truncated_log":
        log = store.storage.read(AREA_LOG)
        if not log:
            # Nothing journaled: chop the snapshot tail instead, which
            # the loader rejects wholesale (worst-case blank reboot).
            snap = store.storage.read(AREA_SNAPSHOT)
            if not snap:
                return "empty-store"
            keep = rng.randint(0, max(0, len(snap) - 1))
            store.storage.write(AREA_SNAPSHOT, snap[:keep])
            return f"snapshot-truncated@{keep}"
        keep = rng.randint(0, len(log) - 1)
        store.storage.write(AREA_LOG, log[:keep])
        return f"log-truncated@{keep}"
    if mode == "stale_snapshot":
        old = store.storage.read(AREA_SNAPSHOT_OLD)
        if old:
            store.storage.write(AREA_SNAPSHOT, old)
            store.storage.write(AREA_LOG, b"")
            store.log_entries = 0
            return "snapshot-rolled-back"
        store.storage.write(AREA_SNAPSHOT, b"")
        store.storage.write(AREA_LOG, b"")
        store.log_entries = 0
        return "state-dropped"
    if mode == "bit_flip":
        for area in (AREA_LOG, AREA_SNAPSHOT):
            data = store.storage.read(area)
            if not data:
                continue
            offset = rng.randrange(len(data))
            bit = rng.randrange(8)
            flipped = bytes(
                [data[offset] ^ (1 << bit)]
            )
            store.storage.write(area, data[:offset] + flipped + data[offset + 1:])
            return f"{area}-flip@{offset}.{bit}"
        return "empty-store"
    if mode == "orphan_mapping":
        # Plant a mapping for an LWG no process has ever registered — an
        # orphan.  It is deliberately *well-formed*: a new record key
        # plus a new genealogy child, exactly the shape of legitimate
        # remote knowledge, so the replication machinery must carry it
        # everywhere and converge byte-identically with it absorbed.
        # (Fabricating a new parent edge for an *existing* child would
        # instead be knowledge the exchange protocol can never ship —
        # live operation mints a view's parent set once, immutably, so
        # partial parent-sets are unreachable state, not corruption.)
        ghost_view = ViewId(coordinator="ghost", seq=rng.randint(1, 1 << 20))
        parent_view = ViewId(coordinator="ghost", seq=0)
        orphan = MappingRecord(
            lwg="lwg:orphan",
            lwg_view=ghost_view,
            lwg_members=("ghost",),
            hwg="hwg-ghost",
            hwg_view=ghost_view,
            version=1,
            writer="ghost",
        )
        store.storage.append(
            AREA_LOG,
            _frame(
                {
                    "k": "rec",
                    "r": encode_record(orphan),
                    "p": [encode_view_id(parent_view)],
                }
            ),
        )
        store.log_entries += 1
        return f"orphan:{orphan.lwg}@{ghost_view}"
    raise ValueError(f"unknown corruption mode {mode!r} (want one of {CORRUPTION_MODES})")
