"""Deterministic shard map: LWG names -> shards -> replica sets.

The fully-replicated naming service tops out quickly: every server
holds every record, every accepted write is pushed to every peer, and
anti-entropy compares whole databases — all-to-all costs that grow
with the server count.  This module partitions the namespace instead.

Sharding is by **LWG name**, not by record key: every record of one
LWG (all of its views, tombstones included) lands in the same shard,
so conflict detection (`MULTIPLE-MAPPINGS`), per-LWG reads and
genealogy-driven GC each run entirely inside one replica set.  The
shard of an LWG is the first :data:`SHARD_PREFIX_LEN` hex characters
of the seed-independent SHA-256 of its name — the same prefix
:func:`~repro.naming.merkle.key_digest` puts first, so a shard *is* a
depth-:data:`SHARD_PREFIX_LEN` subtree of the Merkle prefix tree and
per-shard anti-entropy reuses the existing descent unchanged
(PROTOCOLS.md §18).

Each shard maps to a replica set of ``replication_factor`` servers by
**rendezvous (highest-random-weight) hashing** over the roster: every
server scores ``sha256(shard | server)`` and the top scorers own the
shard.  Anyone who knows the roster can compute any record's owners —
no directory service, no handoff protocol — and adding or removing one
of ``n`` servers moves only ~1/n of the shards, because the scores of
the surviving servers never change.
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..runtime.interfaces import NodeId
from .records import LwgId, RecordKey

#: Hex characters of the key digest that name a shard.  Two characters
#: give 16^2 = 256 shards — enough granularity that replica sets stay
#: balanced to a few percent at 64 servers, while each shard is exactly
#: a depth-2 subtree of the (depth-4) Merkle prefix tree.
SHARD_PREFIX_LEN = 2

#: Total shard count (16^SHARD_PREFIX_LEN).
NUM_SHARDS = 16 ** SHARD_PREFIX_LEN

#: Every shard name, in fixed lexicographic order.
ALL_SHARDS: Tuple[str, ...] = tuple(
    format(i, f"0{SHARD_PREFIX_LEN}x") for i in range(NUM_SHARDS)
)


def shard_of_lwg(lwg: LwgId) -> str:
    """The shard an LWG name belongs to (seed-independent, roster-free)."""
    return hashlib.sha256(lwg.encode("utf-8")).hexdigest()[:SHARD_PREFIX_LEN]


def shard_of_key(key: RecordKey) -> str:
    """The shard of a record key — a function of its LWG name alone."""
    return shard_of_lwg(key[0])


def _score(shard: str, server: NodeId) -> bytes:
    return hashlib.sha256(f"{shard}|{server}".encode("utf-8")).digest()


class ShardMap:
    """Immutable shard -> replica-set assignment over a fixed roster.

    Built once per cluster from the server roster and the replication
    factor; every server and every client builds the identical map from
    the same inputs, which is what makes owners computable everywhere
    without coordination.  ``replication_factor >= len(servers)`` is
    full replication: every server owns every shard, each shard's
    owners are the roster in roster order (so clients rotate the roster
    as given), and the anti-entropy scope collapses to the tree root.
    """

    def __init__(self, servers: Sequence[NodeId], replication_factor: int):
        roster = list(dict.fromkeys(servers))  # dedupe, keep order
        if not roster:
            raise ValueError("shard map needs at least one server")
        if replication_factor < 1:
            raise ValueError("replication factor must be >= 1")
        self.servers: Tuple[NodeId, ...] = tuple(roster)
        self.replication_factor = replication_factor
        #: True when every server owns every shard (rf >= roster).
        self.fully_replicated = replication_factor >= len(roster)
        #: shard -> owners: the roster when fully replicated, else the
        #: highest rendezvous scores first.  Ties (a 256-bit hash
        #: collision) break on the server id so the map is total-ordered
        #: and deterministic no matter what.
        self._owners: Dict[str, Tuple[NodeId, ...]] = {}
        self._owned: Dict[NodeId, List[str]] = {s: [] for s in self.servers}
        for shard in ALL_SHARDS:
            owners = self.servers
            if not self.fully_replicated:
                ranked = sorted(
                    self.servers, key=lambda s: (_score(shard, s), s), reverse=True
                )
                owners = tuple(ranked[:replication_factor])
            self._owners[shard] = owners
            for owner in owners:
                self._owned[owner].append(shard)
        self._scope_cache: Dict[FrozenSet[NodeId], Tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    # Ownership queries
    # ------------------------------------------------------------------
    @property
    def shards(self) -> Tuple[str, ...]:
        """Every shard name, in fixed lexicographic order."""
        return ALL_SHARDS

    def owners(self, shard: str) -> Tuple[NodeId, ...]:
        """The replica set of ``shard``, in routing order."""
        return self._owners[shard]

    def owners_for_lwg(self, lwg: LwgId) -> Tuple[NodeId, ...]:
        if self.fully_replicated:
            return self.servers  # no name hash on the write path
        return self._owners[shard_of_lwg(lwg)]

    def owns(self, server: NodeId, shard: str) -> bool:
        return server in self._owners[shard]

    def owned_shards(self, server: NodeId) -> Tuple[str, ...]:
        """Every shard ``server`` replicates, in shard order."""
        return tuple(self._owned.get(server, ()))

    # ------------------------------------------------------------------
    # Pairwise scope (anti-entropy)
    # ------------------------------------------------------------------
    def scope(self, a: NodeId, b: NodeId) -> Tuple[str, ...]:
        """The Merkle prefixes two servers may reconcile over.

        The shards both own, as sorted tree prefixes — both sides
        compute the identical tuple from the roster, so the scope never
        travels on the wire.  Fully-replicated maps collapse to the
        root (``("",)``), making the descent byte-identical to the
        unsharded protocol.  An empty tuple means the pair shares no
        shard and has nothing to gossip about.
        """
        if self.fully_replicated:
            return ("",)
        pair = frozenset((a, b))
        cached = self._scope_cache.get(pair)
        if cached is None:
            mine, theirs = set(self._owned.get(a, ())), self._owned.get(b, ())
            cached = tuple(s for s in theirs if s in mine)
            self._scope_cache[pair] = cached
        return cached

    def co_replicas(self, server: NodeId) -> Tuple[NodeId, ...]:
        """Every other server sharing at least one shard with ``server``."""
        return tuple(
            peer
            for peer in self.servers
            if peer != server and self.scope(server, peer)
        )

    def __repr__(self) -> str:
        return (
            f"ShardMap(servers={len(self.servers)}, "
            f"rf={self.replication_factor}, shards={NUM_SHARDS})"
        )
