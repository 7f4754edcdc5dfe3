"""Database reconciliation when name servers reconnect.

"When name servers become reachable by other name servers after a
network partition has been healed, a database reconciliation procedure
needs to be performed.  Mappings that are known in one view and not
known in the other view are simply propagated" (Section 5.2) — and
because records are per-``(lwg, lwg_view)`` single-writer entries,
propagation plus genealogy GC is a complete merge: truly *conflicting*
mappings (concurrent views on different HWGs) are not resolved here but
surfaced through MULTIPLE-MAPPINGS callbacks for the LWG layer to
reconcile (Section 6.2).

This module holds the pure merge arithmetic used by the server's
anti-entropy exchange, so it can be unit-tested and benchmarked without
a network.  :class:`MerkleSession` is the wire-format-agnostic engine
of the Merkle-prefix descent (PROTOCOLS.md §16): each call to
:meth:`MerkleSession.handle` consumes one incoming :class:`SyncDelta`
and produces the outgoing one, descending the two replicas' digest
trees until only the divergent leaves' records travel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..vsync.view import ViewId
from .database import NamingDatabase
from .merkle import EMPTY_HASH
from .records import LwgId, MappingRecord, RecordKey

Digest = Dict[RecordKey, Tuple[int, str]]

#: Hard ceiling on descent steps per session.  A full descent of a
#: depth-4 tree needs ~2 messages per level plus the leaf exchanges, so
#: a healthy session ends well below this; the cap only bounds damage
#: when replicas mutate heavily mid-descent (the next gossip tick
#: resumes from the — strictly closer — new state).
DEFAULT_MAX_SYNC_ROUNDS = 32


@dataclass
class ReconcileResult:
    """Outcome of absorbing a batch of remote records/genealogy."""

    applied: int = 0
    ignored: int = 0
    gc_removed: int = 0
    touched_lwgs: Set[LwgId] = field(default_factory=set)


def absorb(
    db: NamingDatabase,
    records: Iterable[MappingRecord],
    genealogy: Dict[ViewId, Tuple[ViewId, ...]],
) -> ReconcileResult:
    """Merge remote ``records`` and ``genealogy`` edges into ``db``.

    Genealogy is absorbed first so that garbage collection triggered by
    record insertion already sees the full ancestry.
    """
    result = ReconcileResult()
    db.absorb_genealogy(genealogy)
    for record in records:
        if db.apply(record):
            result.applied += 1
            result.touched_lwgs.add(record.lwg)
        else:
            result.ignored += 1
    # New genealogy can obsolete records of *any* LWG, so only an
    # edge-carrying update pays the full-database sweep; record-only
    # updates were already collected per-LWG inside ``apply``.
    if genealogy:
        result.gc_removed = db.garbage_collect()
    return result


def records_to_send(db: NamingDatabase, remote_digest: Digest) -> List[MappingRecord]:
    """Records the remote replica lacks or holds in an older version."""
    return db.records_missing_from(remote_digest)


def genealogy_to_send(
    db: NamingDatabase, remote_children: Iterable[ViewId]
) -> Dict[ViewId, Tuple[ViewId, ...]]:
    """Genealogy edges whose child view the remote replica has not seen."""
    known = set(remote_children)
    return {
        child: parents
        for child, parents in db.genealogy_edges().items()
        if child not in known
    }


# ----------------------------------------------------------------------
# Merkle-prefix descent (PROTOCOLS.md §16)
# ----------------------------------------------------------------------
@dataclass
class SyncDelta:
    """One side's contribution to one step of the descent.

    Every field is self-describing — a receiver needs no per-session
    state beyond "which leaf digests and genealogy children have I
    already sent", so steps survive reordering against session teardown
    (a fresh session can answer any step correctly, just less
    economically).

    * ``expansions`` — for each probed prefix, the sender's non-empty
      child subtree hashes (``child hex char -> hash``).
    * ``leaf_digests`` — for each divergence-localized prefix, the
      sender's ``key -> order_key`` leaf entries under it (the flat
      digest, restricted to one subtree; ``{}`` means "I hold nothing
      here — ship me everything").
    * ``records`` — full records the receiver lacks or holds older,
      computed against the receiver's previously-sent leaf digests.
    * ``genealogy`` / ``genealogy_children`` — ancestry edges for the
      receiver, and the sender's known child views so the receiver can
      compute the reverse delta (sent once per session).
    """

    expansions: Dict[str, Dict[str, str]] = field(default_factory=dict)
    leaf_digests: Dict[str, Digest] = field(default_factory=dict)
    records: Tuple[MappingRecord, ...] = ()
    genealogy: Dict[ViewId, Tuple[ViewId, ...]] = field(default_factory=dict)
    genealogy_children: Optional[Tuple[ViewId, ...]] = None

    def is_empty(self) -> bool:
        return not (
            self.expansions
            or self.leaf_digests
            or self.records
            or self.genealogy
            or self.genealogy_children is not None
        )


class MerkleSession:
    """One replica's half of a Merkle descent with one peer.

    Symmetric: both the initiator and the responder run the same
    :meth:`handle` loop; only :meth:`opener` distinguishes the caller.
    The session mutates ``db`` (via :func:`absorb`) as records arrive,
    so subtree hashes converge while the descent is still in flight.
    """

    def __init__(self, db: NamingDatabase):
        self.db = db
        #: Steps this side has processed (the server bounds this).
        self.rounds = 0
        #: Records shipped by this side over the whole session.
        self.records_sent = 0
        #: Result of the most recent absorb (for tracing/notification).
        self.last_absorb = ReconcileResult()
        self._sent_leaf: Set[str] = set()
        self._sent_children = False

    def opener(self) -> SyncDelta:
        """Round 0: probe the root's children, offer genealogy exchange."""
        self._sent_children = True
        return SyncDelta(
            expansions={"": self.db.merkle.children("")},
            genealogy_children=tuple(self.db.genealogy_edges()),
        )

    def handle(self, incoming: SyncDelta) -> Optional[SyncDelta]:
        """Consume one step; return the next step or None when done."""
        self.rounds += 1
        out = SyncDelta()
        if incoming.records or incoming.genealogy:
            self.last_absorb = absorb(self.db, incoming.records, incoming.genealogy)
        else:
            self.last_absorb = ReconcileResult()
        if incoming.genealogy_children is not None:
            out.genealogy = genealogy_to_send(self.db, incoming.genealogy_children)
            if not self._sent_children:
                mine = tuple(self.db.genealogy_edges())
                # Offering our child-view list only pays off if it can
                # elicit edges: identical lists would make the peer's
                # child-filtered delta empty, so stay silent and let an
                # in-sync exchange end at the opener.
                if set(mine) != set(incoming.genealogy_children):
                    out.genealogy_children = mine
                self._sent_children = True
        records: List[MappingRecord] = []
        for prefix in sorted(incoming.leaf_digests):
            records.extend(
                self.db.records_missing_under(prefix, incoming.leaf_digests[prefix])
            )
            if prefix not in self._sent_leaf:
                self._sent_leaf.add(prefix)
                out.leaf_digests[prefix] = self.db.leaf_digest_under(prefix)
        for parent in sorted(incoming.expansions):
            self._compare_children(parent, incoming.expansions[parent], out, records)
        if records:
            seen: Set[RecordKey] = set()
            unique = []
            for record in records:
                if record.key not in seen:
                    seen.add(record.key)
                    unique.append(record)
            out.records = tuple(unique)
            self.records_sent += len(unique)
        return None if out.is_empty() else out

    def _compare_children(
        self,
        parent: str,
        theirs: Dict[str, str],
        out: SyncDelta,
        records: List[MappingRecord],
    ) -> None:
        mine = self.db.merkle.children(parent)
        for child_char in sorted(set(theirs) | set(mine)):
            child = parent + child_char
            their_hash = theirs.get(child_char, EMPTY_HASH)
            my_hash = mine.get(child_char, EMPTY_HASH)
            if their_hash == my_hash:
                continue
            if their_hash == EMPTY_HASH:
                # The peer holds nothing under this subtree: everything
                # of ours is part of the delta, no digest needed.
                records.extend(self.db.records_missing_under(child, {}))
            elif my_hash == EMPTY_HASH or self.db.merkle.is_bucket(child):
                # Divergence localized (or one-sided): exchange leaves.
                if child not in self._sent_leaf:
                    self._sent_leaf.add(child)
                    out.leaf_digests[child] = self.db.leaf_digest_under(child)
            else:
                # Both non-empty and still internal: descend one level.
                out.expansions[child] = self.db.merkle.children(child)


def merkle_exchange(
    left: NamingDatabase,
    right: NamingDatabase,
    max_rounds: int = DEFAULT_MAX_SYNC_ROUNDS,
) -> List[Tuple[str, SyncDelta]]:
    """Run one full descent between two in-memory replicas.

    Returns the alternating step transcript as ``(direction, delta)``
    pairs (``"left"``/``"right"`` is the *sender*), so tests and
    benchmarks can weigh every step with the real wire sizes.  The
    session the server runs is exactly this loop, one network hop per
    step.
    """
    sessions = {"left": MerkleSession(left), "right": MerkleSession(right)}
    sender = "left"
    delta: Optional[SyncDelta] = sessions[sender].opener()
    transcript: List[Tuple[str, SyncDelta]] = []
    while delta is not None and len(transcript) < max_rounds:
        transcript.append((sender, delta))
        receiver = "right" if sender == "left" else "left"
        delta = sessions[receiver].handle(delta)
        sender = receiver
    return transcript


def databases_consistent(replicas: Iterable[NamingDatabase]) -> bool:
    """True if every replica stores exactly the same records (test helper)."""
    snapshots = [tuple(db.snapshot()) for db in replicas]
    return all(s == snapshots[0] for s in snapshots[1:])


def databases_identical(replicas: Iterable[NamingDatabase]) -> bool:
    """Stronger than :func:`databases_consistent`: byte-identical replicas.

    Compares full content hashes, so tombstones and genealogy knowledge
    must match too — the fixed point at which anti-entropy exchanges
    short-circuit to hash acknowledgements.
    """
    hashes = [db.content_hash() for db in replicas]
    return all(h == hashes[0] for h in hashes[1:])
