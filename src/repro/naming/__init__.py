"""Partitionable naming service (paper Section 5.2).

A weakly-consistent replicated database of view-to-view mappings
(LWG view -> HWG view) with the Table-2 client interface, eager push +
anti-entropy replication, reconciliation on partition heal, genealogy-
driven garbage collection and MULTIPLE-MAPPINGS conflict callbacks.
"""

from .callbacks import ConflictNotifier
from .client import NamingClient
from .database import NamingDatabase
from .merkle import MerklePrefixTree
from .messages import MultipleMappings, NsRequest, NsResponse
from .records import HwgId, LwgId, MappingRecord
from .reconciliation import (
    MerkleSession,
    ReconcileResult,
    SyncDelta,
    absorb,
    databases_consistent,
    databases_identical,
    merkle_exchange,
)
from .server import NameServer
from .sharding import (
    ALL_SHARDS,
    NUM_SHARDS,
    SHARD_PREFIX_LEN,
    ShardMap,
    shard_of_key,
    shard_of_lwg,
)

__all__ = [
    "ConflictNotifier",
    "NamingClient",
    "NamingDatabase",
    "MerklePrefixTree",
    "MerkleSession",
    "MultipleMappings",
    "NsRequest",
    "NsResponse",
    "HwgId",
    "LwgId",
    "MappingRecord",
    "ReconcileResult",
    "SyncDelta",
    "absorb",
    "databases_consistent",
    "databases_identical",
    "merkle_exchange",
    "NameServer",
    "ALL_SHARDS",
    "NUM_SHARDS",
    "SHARD_PREFIX_LEN",
    "ShardMap",
    "shard_of_key",
    "shard_of_lwg",
]
