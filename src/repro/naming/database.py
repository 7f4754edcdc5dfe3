"""The per-server naming database.

Stores :class:`~repro.naming.records.MappingRecord` entries keyed by
``(lwg, lwg_view)`` plus the LWG-view genealogy DAG.  All mutation paths
funnel through :meth:`apply` (last-writer-wins per key) followed by
:meth:`garbage_collect` — a record is obsolete once its LWG view is a
strict ancestor of another *recorded* view of the same LWG, which is how
the paper discards stale mappings after merges ("the naming service
must be aware of the partial order of views").

Derived structures ride the same mutation funnel, each a pure function
of the records and edges (:meth:`NamingDatabase.verify_integrity`
recomputes them all):

* a per-LWG key index, so GC and live-record queries touch only the
  records of one group instead of scanning the whole store, and beside
  it the set of LWGs with two or more keys — the only ones GC or
  ``conflicts()`` ever need to look at;
* a :class:`~repro.naming.merkle.MerklePrefixTree` over the record
  keyspace, which anti-entropy uses to localize divergence without
  shipping a flat full-database digest;
* per genealogy edge, the bytes it contributes to the genealogy digest,
  encoded once when the edge is learned.

``content_hash`` is derived from the Merkle root plus a genealogy
digest, so it stays O(1) to read between mutations while still covering
records, tombstones and ancestry knowledge byte-for-byte.
"""

from __future__ import annotations

import hashlib
from bisect import insort
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..vsync.view import ViewGenealogy, ViewId
from .merkle import MerklePrefixTree
from .records import LwgId, MappingRecord, RecordKey


class NamingDatabase:
    """One replica's record store with genealogy-driven GC."""

    def __init__(self) -> None:
        self._records: Dict[RecordKey, MappingRecord] = {}
        #: lwg -> keys of every stored record of that group.
        self._by_lwg: Dict[LwgId, Set[RecordKey]] = {}
        #: LWGs holding at least two stored keys — the only ones GC can
        #: shrink or :meth:`conflicts` can report.
        self._contested: Set[LwgId] = set()
        self.genealogy = ViewGenealogy()
        #: Every recorded genealogy child in ``ViewId`` order, and per
        #: child its edge's digest input (``repr((child, parents))``).
        #: Refreshed by :meth:`_record_edge`.
        self._edge_children: List[ViewId] = []
        self._edge_digest: Dict[ViewId, bytes] = {}
        #: Merkle-prefix digest tree over the record keyspace, updated
        #: through the same funnel as ``content_hash``.
        self.merkle = MerklePrefixTree()
        self.applied = 0
        self.gc_removed = 0
        #: Optional observation hooks (wired by the server for tracing /
        #: invariant checking; None-safe no-ops by default).
        self.on_edge: Optional[Callable[[ViewId, Tuple[ViewId, ...]], None]] = None
        self.on_gc: Optional[Callable[[LwgId, ViewId, ViewId], None]] = None
        #: Cached :meth:`content_hash`; every mutation path clears it.
        self._content_hash: Optional[str] = None
        #: Cached digest of the genealogy edge set; cleared whenever an
        #: edge is recorded (apply parents / absorb_genealogy).
        self._genealogy_hash: Optional[str] = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply(
        self,
        record: MappingRecord,
        parents: Iterable[ViewId] = (),
    ) -> bool:
        """Insert/update ``record``; returns True if the store changed.

        ``parents`` are the parent LWG views of ``record.lwg_view``; they
        feed the genealogy so earlier mappings of the same LWG can be
        garbage-collected.
        """
        parents = tuple(parents)
        genealogy_changed = False
        if parents:
            self._record_edge(record.lwg_view, parents)
            genealogy_changed = True
            if self.on_edge is not None:
                self.on_edge(record.lwg_view, parents)
        existing = self._records.get(record.key)
        if existing is not None and not record.newer_than(existing):
            # The record lost last-writer-wins, but any genealogy it
            # carried is new knowledge that can obsolete records we
            # already hold — collect now, or stale mappings linger
            # until an unrelated mutation of the same LWG.
            if genealogy_changed:
                self.garbage_collect(record.lwg)
            return False
        self._store(record)
        self.applied += 1
        self.garbage_collect(record.lwg)
        return True

    def _record_edge(self, child: ViewId, parents: Iterable[ViewId]) -> None:
        """Feed one edge to the genealogy; re-encode its bytes if it was news."""
        if not self.genealogy.record(child, parents):
            return
        merged = self.genealogy.parents_of(child)
        if child not in self._edge_digest:
            insort(self._edge_children, child)
        self._edge_digest[child] = repr((child, merged)).encode()
        self._content_hash = None
        self._genealogy_hash = None

    def _store(self, record: MappingRecord) -> None:
        key = record.key
        self._records[key] = record
        keys = self._by_lwg.setdefault(record.lwg, set())
        keys.add(key)
        if len(keys) > 1:
            self._contested.add(record.lwg)
        self.merkle.update(key, record.order_key())
        self._content_hash = None

    def _discard(self, key: RecordKey) -> None:
        del self._records[key]
        keys = self._by_lwg[key[0]]
        keys.discard(key)
        if len(keys) < 2:
            self._contested.discard(key[0])
            if not keys:
                del self._by_lwg[key[0]]
        self.merkle.remove(key)
        self._content_hash = None

    def garbage_collect(self, lwg: Optional[LwgId] = None) -> int:
        """Drop records whose LWG view is an ancestor of a newer recorded view.

        Restricted to one LWG when given; returns the number removed.
        """
        removed = 0
        targets = [lwg] if lwg is not None else sorted(self._contested)
        for target in targets:
            keys = self._by_lwg.get(target)
            if not keys or len(keys) < 2:
                continue
            ordered = sorted(keys)
            views = [k[1] for k in ordered]
            for key in ordered:
                _, view = key
                witness = next(
                    (
                        other
                        for other in views
                        if other != view and self.genealogy.is_ancestor(view, other)
                    ),
                    None,
                )
                if witness is not None:
                    self._discard(key)
                    removed += 1
                    if self.on_gc is not None:
                        self.on_gc(target, view, witness)
        self.gc_removed += removed
        return removed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def live_records(self, lwg: LwgId) -> List[MappingRecord]:
        """Every non-deleted mapping currently stored for ``lwg``."""
        return sorted(
            (
                self._records[key]
                for key in self._by_lwg.get(lwg, ())
                if not self._records[key].deleted
            ),
            key=lambda r: (r.lwg_view, r.hwg_view),
        )

    def record_for(self, key: RecordKey) -> Optional[MappingRecord]:
        return self._records.get(key)

    def lwgs(self) -> Set[LwgId]:
        """All LWGs with at least one live record."""
        return {
            lwg
            for lwg, keys in self._by_lwg.items()
            if any(not self._records[key].deleted for key in keys)
        }

    def conflicts(self) -> Dict[LwgId, List[MappingRecord]]:
        """LWGs whose live views are mapped onto *different* HWGs.

        These are the "inconsistent mappings" of Section 5.2: concurrent
        views of one LWG in different heavy-weight groups.  Concurrent
        views co-mapped on the *same* HWG are not conflicts — they merge
        through local peer discovery without naming-service involvement.
        """
        out: Dict[LwgId, List[MappingRecord]] = {}
        # Sorted so the notifier contacts conflicting LWGs in a fixed
        # order — set iteration would leak the interpreter's hash seed
        # into the shared latency-jitter draw order and break replay.
        for lwg in sorted(self._contested):
            records = self.live_records(lwg)
            if len({r.hwg for r in records}) > 1:
                out[lwg] = records
        return out

    # ------------------------------------------------------------------
    # Replication support
    # ------------------------------------------------------------------
    def clone(self) -> "NamingDatabase":
        """Independent replica with the same contents and digest caches.

        Records are immutable, so only the containers are copied; the
        Merkle tree and hash caches carry over, making a clone far
        cheaper than re-applying every record.  Observation hooks are
        deliberately *not* copied — they belong to the server wrapping
        the original.  Used to fork replicas from a prebuilt base in
        benchmarks and tests.
        """
        out = NamingDatabase()
        out._records = dict(self._records)
        out._by_lwg = {lwg: set(keys) for lwg, keys in self._by_lwg.items()}
        out._contested = set(self._contested)
        out.genealogy = self.genealogy.clone()
        out._edge_children = list(self._edge_children)
        out._edge_digest = dict(self._edge_digest)
        out.merkle = self.merkle.clone()
        out.applied = self.applied
        out.gc_removed = self.gc_removed
        out._content_hash = self._content_hash
        out._genealogy_hash = self._genealogy_hash
        return out

    def digest(self) -> Dict[RecordKey, tuple]:
        """Flat full-database summary: key -> LWW order key.

        Kept as the reference the Merkle descent is benchmarked against
        (and for tests); the wire protocol no longer ships it.
        """
        return {k: r.order_key() for k, r in self._records.items()}

    def content_hash(self) -> str:
        """Digest-of-digests over records *and* genealogy.

        Two replicas with equal hashes hold byte-identical databases, so
        a gossip exchange between them has nothing to ship — the server
        uses this to short-circuit steady-state anti-entropy to a single
        small request/reply pair instead of a digest descent.  Derived
        from the Merkle root and a genealogy digest, both cached; every
        mutation path invalidates.
        """
        if self._content_hash is None:
            hasher = hashlib.sha256(self.merkle.root_hash().encode("ascii"))
            hasher.update(b"|")
            hasher.update(self._genealogy_digest().encode("ascii"))
            self._content_hash = hasher.hexdigest()
        return self._content_hash

    def _genealogy_digest(self) -> str:
        if self._genealogy_hash is None:
            # One hash over the concatenation equals the chained
            # per-edge ``update`` the digest is defined by.
            self._genealogy_hash = hashlib.sha256(
                b"".join(map(self._edge_digest.__getitem__, self._edge_children))
            ).hexdigest()
        return self._genealogy_hash

    def records_missing_from(self, digest: Dict[RecordKey, tuple]) -> List[MappingRecord]:
        """Records we hold that the digest lacks or holds older."""
        out = []
        for key, record in self._records.items():
            theirs = digest.get(key)
            if theirs is None or record.order_key() > theirs:
                out.append(record)
        return out

    def records_missing_under(
        self, prefix: str, digest: Dict[RecordKey, tuple]
    ) -> List[MappingRecord]:
        """Like :meth:`records_missing_from`, restricted to one subtree.

        ``digest`` is the remote replica's leaf digest for ``prefix``;
        only our records under the same prefix are candidates, so the
        cost is O(subtree), not O(database).
        """
        out = []
        for key in self.merkle.keys_under(prefix):
            record = self._records[key]
            theirs = digest.get(key)
            if theirs is None or record.order_key() > theirs:
                out.append(record)
        return out

    def leaf_digest_under(self, prefix: str) -> Dict[RecordKey, tuple]:
        """``key -> order_key`` for every record under ``prefix``."""
        return self.merkle.leaf_digest(prefix)

    def genealogy_edges(self) -> Dict[ViewId, Tuple[ViewId, ...]]:
        return self.genealogy.edges()

    def absorb_genealogy(self, edges: Dict[ViewId, Tuple[ViewId, ...]]) -> None:
        for child, parents in edges.items():
            self._record_edge(child, parents)
            if self.on_edge is not None and parents:
                self.on_edge(child, tuple(parents))

    def verify_integrity(self) -> List[str]:
        """Cross-check the derived structures against the record store.

        Returns a list of problem descriptions (empty means the database
        is internally consistent).  Used by the recovery
        checker to assert at quiesce that every live replica is not
        merely hash-equal but structurally sound: index, Merkle tree and
        digest caches all agree with the records, and the genealogy's
        level index, the conflict candidates and the per-edge digest
        bytes all agree with recomputation from the edge map.
        """
        problems: List[str] = []
        for key in sorted(self._records):
            record = self._records[key]
            if record.key != key:
                problems.append(f"record stored under wrong key {key}")
            if key not in self._by_lwg.get(record.lwg, set()):
                problems.append(f"per-lwg index missing key {key}")
        for lwg in sorted(self._by_lwg):
            keys = self._by_lwg[lwg]
            if not keys:
                problems.append(f"empty index bucket for {lwg}")
            for key in sorted(keys):
                if key not in self._records:
                    problems.append(f"index orphan {lwg} -> {key}")
                elif key[0] != lwg:
                    problems.append(f"index bucket mismatch {lwg} -> {key}")
        if problems:
            return problems  # every check below reads through the index
        expected = {key: record.order_key() for key, record in self._records.items()}
        if self.merkle.leaf_digest("") != expected:
            problems.append("merkle leaves diverge from record store")
        contested = {lwg for lwg, keys in self._by_lwg.items() if len(keys) > 1}
        if self._contested != contested:
            problems.append("conflict candidates diverge from per-lwg index")
        brute = {}
        for lwg in sorted(self._by_lwg):
            live = self.live_records(lwg)
            if len({r.hwg for r in live}) > 1:
                brute[lwg] = live
        if self.conflicts() != brute:
            problems.append("conflicts() diverges from brute-force scan")
        problems.extend(self.genealogy.verify_levels())
        edges = self.genealogy.edges()
        if self._edge_children != sorted(edges):
            problems.append("cached edge order is not the sorted child set")
        hasher = hashlib.sha256()
        for child in sorted(edges):
            fresh = repr((child, edges[child])).encode()
            hasher.update(fresh)
            if self._edge_digest.get(child) != fresh:
                problems.append(f"cached digest bytes stale for edge {child}")
        if self._genealogy_hash not in (None, hasher.hexdigest()):
            problems.append("cached genealogy digest is stale")
        self._genealogy_hash = None
        if self._genealogy_digest() != hasher.hexdigest():
            problems.append("genealogy digest diverges from its chained definition")
        cached = self._content_hash
        if cached is not None:
            self._content_hash = None
            if self.content_hash() != cached:
                problems.append("cached content hash is stale")
        return problems

    def snapshot(self) -> List[MappingRecord]:
        """Every stored record (tests / reporting)."""
        return sorted(self._records.values(), key=lambda r: (r.lwg, r.lwg_view))

    def __len__(self) -> int:
        return len(self._records)
