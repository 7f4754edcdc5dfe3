"""Wire messages of the naming service: client RPC, anti-entropy, callbacks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..vsync.view import ProcessId, ViewId
from .records import LwgId, MappingRecord, RecordKey


@dataclass(frozen=True)
class NamingMessage:
    """Base class for all naming-service traffic."""

    def size_bytes(self) -> int:
        return 128


# ----------------------------------------------------------------------
# Client RPC (Table 2: ns.set / ns.read / ns.testset, view-augmented)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NsRequest(NamingMessage):
    """Client -> server RPC request.

    ``op`` is one of ``set``, ``read``, ``testset``, ``unset``.  For
    ``set``/``testset`` the record to (conditionally) install rides in
    ``record`` with its LWG-view parents in ``parents``; ``read`` only
    needs ``lwg``.

    ``forwarded`` marks a request relayed by a non-owner server to one
    of the LWG's shard owners (PROTOCOLS.md §18).  The owner answers
    ``client`` directly; a forwarded request is served wherever it
    lands (never re-forwarded), so relaying can not loop.
    """

    request_id: int = 0
    client: ProcessId = ""
    op: str = "read"
    lwg: LwgId = ""
    record: Optional[MappingRecord] = None
    parents: Tuple[ViewId, ...] = ()
    forwarded: bool = False


@dataclass(frozen=True)
class NsResponse(NamingMessage):
    """Server -> client RPC reply: the live records for the LWG."""

    request_id: int = 0
    server: ProcessId = ""
    records: Tuple[MappingRecord, ...] = ()

    def size_bytes(self) -> int:
        return 96 + 96 * len(self.records)


# ----------------------------------------------------------------------
# Anti-entropy between servers (Merkle-prefix descent, PROTOCOLS.md §16)
# ----------------------------------------------------------------------
def _expansion_bytes(expansions: Dict[str, Dict[str, str]]) -> int:
    # Per probed prefix: length-prefixed path + (child char, 64-bit
    # hash) per non-empty child.
    return sum(4 + len(p) + 9 * len(c) for p, c in expansions.items())


def _leaf_digest_bytes(leaf_digests: Dict[str, Dict[RecordKey, Tuple[int, str]]]) -> int:
    # 48 bytes per (key, order_key) entry — same rate the flat digest
    # was costed at, now restricted to divergent subtrees.
    return sum(4 + len(p) + 48 * len(d) for p, d in leaf_digests.items())


def _genealogy_bytes(genealogy: Dict[ViewId, Tuple[ViewId, ...]]) -> int:
    return sum(16 + 16 * len(parents) for parents in genealogy.values())


@dataclass(frozen=True)
class SyncRequest(NamingMessage):
    """Server A -> server B: open a Merkle descent.

    ``db_hash`` summarises A's whole database (records + genealogy); a
    replica holding an identical database answers with an ``in_sync``
    reply and the exchange ends after two small messages.  Otherwise
    ``expansions`` (the root's child subtree hashes) seeds the descent
    and ``genealogy_children`` opens the ancestry exchange — every
    subsequent step travels as a :class:`SyncReply` in either direction.
    """

    sender: ProcessId = ""
    sync_id: int = 0
    db_hash: str = ""
    expansions: Dict[str, Dict[str, str]] = field(default_factory=dict)
    genealogy_children: Optional[Tuple[ViewId, ...]] = None

    def size_bytes(self) -> int:
        return (
            96
            + _expansion_bytes(self.expansions)
            + 16 * len(self.genealogy_children or ())
        )


@dataclass(frozen=True)
class SyncReply(NamingMessage):
    """One step of the bounded descent, in either direction.

    When ``in_sync`` is set the databases already match and every other
    payload field is empty — the reply is just a hash acknowledgement.
    Otherwise the fields mirror
    :class:`~repro.naming.reconciliation.SyncDelta`: subtree-hash
    expansions to descend further, leaf digests for localized
    divergences, and the records/genealogy edges the receiver lacks.
    ``round_no`` bounds runaway sessions.
    """

    sender: ProcessId = ""
    sync_id: int = 0
    round_no: int = 0
    in_sync: bool = False
    expansions: Dict[str, Dict[str, str]] = field(default_factory=dict)
    leaf_digests: Dict[str, Dict[RecordKey, Tuple[int, str]]] = field(
        default_factory=dict
    )
    records: Tuple[MappingRecord, ...] = ()
    genealogy: Dict[ViewId, Tuple[ViewId, ...]] = field(default_factory=dict)
    genealogy_children: Optional[Tuple[ViewId, ...]] = None

    def size_bytes(self) -> int:
        if self.in_sync:
            return 96
        return (
            96
            + _expansion_bytes(self.expansions)
            + _leaf_digest_bytes(self.leaf_digests)
            + 96 * len(self.records)
            + _genealogy_bytes(self.genealogy)
            + 16 * len(self.genealogy_children or ())
        )


@dataclass(frozen=True)
class PushUpdate(NamingMessage):
    """Eager write propagation: server -> every reachable peer server."""

    sender: ProcessId = ""
    records: Tuple[MappingRecord, ...] = ()
    genealogy: Dict[ViewId, Tuple[ViewId, ...]] = field(default_factory=dict)

    def size_bytes(self) -> int:
        return 96 + 96 * len(self.records)


# ----------------------------------------------------------------------
# Callbacks (Section 6.1: global peer discovery)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MultipleMappings(NamingMessage):
    """Server -> LWG-view coordinators: your LWG has inconsistent mappings.

    "The message contains all the mappings stored for the LWG in the
    name server" (Section 6.1).
    """

    lwg: LwgId = ""
    records: Tuple[MappingRecord, ...] = ()
    server: ProcessId = ""

    def size_bytes(self) -> int:
        return 96 + 96 * len(self.records)
