"""Merkle-prefix digest tree over the naming record keyspace.

PR 5's delta reconciliation still shipped a *flat* digest of the whole
database on every anti-entropy exchange — O(n) bytes per gossip round
no matter how little the replicas diverge.  Following the structured-
gossip design, this module maintains an incrementally-updated hash tree
keyed by a stable prefix of ``hash(RecordKey)``: two replicas compare
subtree digests root-down and descend only into divergent branches, so
a small divergence is localized in O(log n) rounds and O(log n) wire
bytes instead of O(n).

Layout.  Every record key is placed in the bucket named by the first
``depth`` hex characters of a seed-independent SHA-256-derived digest
of the key (Python's builtin ``hash`` is process-seeded and must never
reach the wire).  The digest leads with the key's **shard** — a hash
of the LWG name alone (:mod:`repro.naming.sharding`) — so a shard is
one depth-2 subtree and scoped descents reuse this tree as-is.  Internal nodes are hex-prefix strings (``""`` is the root); a
node's hash combines its non-empty children's hashes in fixed child
order, a bucket's hash combines its ``(key, order_key)`` leaf entries
in sorted key order.  The tree is **sparse**: empty subtrees hash to
``EMPTY_HASH`` and occupy no memory, so the structure costs O(records),
not O(16^depth).

Incrementality.  ``update``/``remove`` adjust one bucket and invalidate
only the hashes on the root path (``depth + 1`` cache pops); hashes are
recomputed lazily on query.  The tree is fed exclusively through the
:class:`~repro.naming.database.NamingDatabase` mutation funnel — the
same choke point that invalidates ``content_hash`` — so the two can
never disagree about what the replica stores.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Tuple

from .records import RecordKey
from .sharding import SHARD_PREFIX_LEN, shard_of_lwg

#: Hash of an empty subtree.  The empty string is deliberate: it is
#: falsy (``if h:`` skips empty children), cannot collide with a real
#: hex digest, and costs nothing on the wire.
EMPTY_HASH = ""

#: Hex alphabet = branching factor 16, matching the digest encoding.
_CHILD_CHARS = "0123456789abcdef"

#: Wire hashes are truncated to 64 bits — plenty for anti-entropy,
#: where a collision only delays convergence by one gossip round.
_HASH_HEX_CHARS = 16

#: Default tree depth: 16^4 = 65536 buckets keeps buckets O(1)-sized up
#: to a few hundred thousand records while the root-to-bucket path (and
#: therefore the descent) stays 4 levels deep.
DEFAULT_DEPTH = 4


def key_digest(key: RecordKey) -> str:
    """Seed-independent digest of a record key, as a hex string.

    Stable across processes, platforms and interpreter restarts: every
    replica must place every key in the same bucket or subtree
    comparison is meaningless.

    The first :data:`~repro.naming.sharding.SHARD_PREFIX_LEN` hex
    characters are a hash of the **LWG name alone** — the record's
    shard — so every view of one LWG lands in the same depth-2 subtree
    and a shard is exactly one Merkle subtree (the per-shard descent of
    PROTOCOLS.md §18 reuses this tree unchanged).  The remaining
    characters hash the full key, spreading a group's records across
    the buckets inside its shard.
    """
    lwg, view = key
    raw = f"{lwg}\x00{view.coordinator}\x00{view.seq}".encode("utf-8")
    return shard_of_lwg(lwg) + hashlib.sha256(raw).hexdigest()[SHARD_PREFIX_LEN:]


def _entry_hash(key: RecordKey, order_key: tuple) -> str:
    lwg, view = key
    raw = repr((lwg, view.coordinator, view.seq, order_key)).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()[:_HASH_HEX_CHARS]


class MerklePrefixTree:
    """Sparse, incrementally-maintained prefix hash tree of record keys.

    Leaves are ``key -> order_key`` pairs (the same last-writer-wins
    order keys the flat digest shipped); equality of two subtree hashes
    therefore implies the replicas agree on every record under that
    prefix, tombstones included.
    """

    def __init__(self, depth: int = DEFAULT_DEPTH):
        if depth < 1:
            raise ValueError("merkle tree depth must be >= 1")
        self.depth = depth
        #: key -> (bucket prefix, order_key); the authoritative leaf set.
        self._leaves: Dict[RecordKey, Tuple[str, tuple]] = {}
        #: full-depth prefix -> {key: order_key} for non-empty buckets.
        self._buckets: Dict[str, Dict[RecordKey, tuple]] = {}
        #: prefix (len 0..depth) -> number of keys under it.
        self._counts: Dict[str, int] = {}
        #: lazily-computed node hashes; popped along the root path on
        #: every mutation.
        self._hashes: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Mutation (NamingDatabase funnel only)
    # ------------------------------------------------------------------
    def update(self, key: RecordKey, order_key: tuple) -> None:
        """Insert ``key`` or replace its order key."""
        existing = self._leaves.get(key)
        if existing is not None:
            bucket_prefix, old_order = existing
            if old_order == order_key:
                return
            self._leaves[key] = (bucket_prefix, order_key)
            self._buckets[bucket_prefix][key] = order_key
            self._invalidate_path(bucket_prefix)
            return
        bucket_prefix = key_digest(key)[: self.depth]
        self._leaves[key] = (bucket_prefix, order_key)
        self._buckets.setdefault(bucket_prefix, {})[key] = order_key
        for i in range(self.depth + 1):
            prefix = bucket_prefix[:i]
            self._counts[prefix] = self._counts.get(prefix, 0) + 1
        self._invalidate_path(bucket_prefix)

    def remove(self, key: RecordKey) -> None:
        """Drop ``key``; a no-op if it is not present."""
        existing = self._leaves.pop(key, None)
        if existing is None:
            return
        bucket_prefix, _ = existing
        bucket = self._buckets[bucket_prefix]
        del bucket[key]
        if not bucket:
            del self._buckets[bucket_prefix]
        for i in range(self.depth + 1):
            prefix = bucket_prefix[:i]
            remaining = self._counts[prefix] - 1
            if remaining:
                self._counts[prefix] = remaining
            else:
                del self._counts[prefix]
        self._invalidate_path(bucket_prefix)

    def _invalidate_path(self, bucket_prefix: str) -> None:
        pop = self._hashes.pop
        for i in range(self.depth + 1):
            pop(bucket_prefix[:i], None)

    # ------------------------------------------------------------------
    # Digest queries
    # ------------------------------------------------------------------
    def root_hash(self) -> str:
        return self.node_hash("")

    def node_hash(self, prefix: str) -> str:
        """Subtree hash at ``prefix`` (:data:`EMPTY_HASH` when empty)."""
        if not self._counts.get(prefix):
            return EMPTY_HASH
        cached = self._hashes.get(prefix)
        if cached is not None:
            return cached
        hasher = hashlib.sha256()
        if len(prefix) >= self.depth:
            bucket = self._buckets[prefix]
            for key in sorted(bucket):
                hasher.update(_entry_hash(key, bucket[key]).encode("ascii"))
        else:
            for child in _CHILD_CHARS:
                child_hash = self.node_hash(prefix + child)
                if child_hash:
                    hasher.update(child.encode("ascii"))
                    hasher.update(child_hash.encode("ascii"))
        digest = hasher.hexdigest()[:_HASH_HEX_CHARS]
        self._hashes[prefix] = digest
        return digest

    def children(self, prefix: str) -> Dict[str, str]:
        """Hashes of ``prefix``'s non-empty children, keyed by child char."""
        out: Dict[str, str] = {}
        for child in _CHILD_CHARS:
            child_prefix = prefix + child
            if self._counts.get(child_prefix):
                out[child] = self.node_hash(child_prefix)
        return out

    def is_bucket(self, prefix: str) -> bool:
        return len(prefix) >= self.depth

    def keys_under(self, prefix: str) -> List[RecordKey]:
        """Every stored key whose digest starts with ``prefix`` (sorted)."""
        out: List[RecordKey] = []
        for bucket_prefix in self._buckets_under(prefix):
            out.extend(self._buckets[bucket_prefix])
        out.sort()
        return out

    def leaf_digest(self, prefix: str) -> Dict[RecordKey, tuple]:
        """``key -> order_key`` for everything under ``prefix``.

        This is exactly the flat digest restricted to one subtree — the
        payload two replicas exchange once the descent has localized a
        divergence.
        """
        out: Dict[RecordKey, tuple] = {}
        for bucket_prefix in self._buckets_under(prefix):
            out.update(self._buckets[bucket_prefix])
        return out

    def _buckets_under(self, prefix: str) -> Iterator[str]:
        if len(prefix) >= self.depth:
            if prefix in self._buckets:
                yield prefix
            return
        stack = [prefix]
        while stack:
            current = stack.pop()
            if len(current) == self.depth:
                yield current
                continue
            for child in _CHILD_CHARS:
                child_prefix = current + child
                if self._counts.get(child_prefix):
                    stack.append(child_prefix)

    def clone(self) -> "MerklePrefixTree":
        """Independent copy, including the computed-hash cache.

        Cloning is O(records) dictionary copies — far cheaper than
        replaying the mutations — and carrying the hash cache over means
        the copy answers digest queries without recomputing subtrees the
        original already hashed (benchmarks fork many replicas from one
        prebuilt base).
        """
        out = MerklePrefixTree(self.depth)
        out._leaves = dict(self._leaves)
        out._buckets = {prefix: dict(b) for prefix, b in self._buckets.items()}
        out._counts = dict(self._counts)
        out._hashes = dict(self._hashes)
        return out

    def __len__(self) -> int:
        return len(self._leaves)

    def __contains__(self, key: RecordKey) -> bool:
        return key in self._leaves
