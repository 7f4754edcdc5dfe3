"""The replicated name server process.

Each :class:`NameServer` is a simulated process holding a replica of
the naming database.  Replicas are kept loosely consistent by

* **eager push** — every accepted write is immediately pushed to peer
  servers (best effort; drops across a partition), and
* **periodic anti-entropy** — a bounded Merkle-prefix descent with one
  peer per gossip tick (PROTOCOLS.md §16): replicas compare subtree
  hashes root-down and ship records only for divergent leaves, which is
  also what reconciles the databases after a partition heals (no
  special heal-detection needed: the first gossip that crosses the
  healed cut *is* the reconciliation).  Identical replicas still
  short-circuit after two messages on the root content hash.

Placement follows a :class:`~repro.naming.sharding.ShardMap`
(PROTOCOLS.md §18).  A fully replicated map — the default, and the
paper-faithful configuration — puts every record on every server:
pushes reach every peer and gossip descends the whole tree.  A map
with a smaller replication factor makes the server hold **only the
shards it owns**: pushes go to the record's shard co-owners, gossip
runs only with servers sharing at least one shard and descends only
their common subtrees (short-circuiting on the scoped hash), client
requests for foreign shards are forwarded to an owner (which answers
the client directly), and recovery reloads only owned shards from the
durable store.

After every mutation the server checks for inconsistent mappings and
fires MULTIPLE-MAPPINGS callbacks at the affected LWG-view coordinators.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..runtime.interfaces import NodeId, Runtime
from ..sim.process import Process
from .callbacks import ConflictNotifier
from .database import NamingDatabase
from .messages import (
    MultipleMappings,
    NsRequest,
    NsResponse,
    PushUpdate,
    SyncReply,
    SyncRequest,
)
from .persistence import DurableStore, LoadResult
from .reconciliation import (
    DEFAULT_MAX_SYNC_ROUNDS,
    MerkleSession,
    ReconcileResult,
    SyncDelta,
    absorb,
)
from .records import MappingRecord
from .sharding import ShardMap, shard_of_lwg


class NameServer(Process):
    """One naming-service replica."""

    def __init__(
        self,
        env: Runtime,
        node: NodeId,
        peers: Sequence[NodeId] = (),
        gossip_period_us: int = 500_000,
        renotify_period_us: int = 600_000,
        store: Optional[DurableStore] = None,
        shard_map: Optional[ShardMap] = None,
    ):
        super().__init__(env, node)
        self.peers: List[NodeId] = [p for p in peers if p != node]
        #: Namespace partition (PROTOCOLS.md §18); fully replicated over
        #: ``peers`` unless the caller passes a map.
        self.shard_map: ShardMap = shard_map or ShardMap(
            [node, *self.peers], len(self.peers) + 1
        )
        #: Shards this server replicates; None means "everything" (a map
        #: whose replication factor covers the roster).
        self.owned: Optional[FrozenSet[str]] = None
        if not self.shard_map.fully_replicated:
            self.owned = frozenset(self.shard_map.owned_shards(node))
        #: Durable snapshot+log store: the database is rebuilt from it on
        #: recovery.  In-memory unless the caller passes one.
        self.store: DurableStore = store or DurableStore()
        self._install_db(self.store.load(owned=self.owned).db)
        self.incarnation = self.store.incarnation()
        #: Anti-entropy partners: peers sharing at least one shard with
        #: us (everyone, when fully replicated).
        self._gossip_peers: List[NodeId] = [
            p for p in self.peers if self.shard_map.scope(node, p)
        ]
        self.notifier = ConflictNotifier(
            server_id=node,
            send=self._send_callback,
            clock=lambda: env.now,
            renotify_period_us=renotify_period_us,
        )
        self._gossip_index = 0
        self._sync_counter = 0
        #: Live descent sessions, keyed by ``(peer, sync_id)``.  At most
        #: one per peer: a new exchange supersedes an unfinished one.
        self._sessions: Dict[Tuple[NodeId, int], MerkleSession] = {}
        self.requests_served = 0
        self.requests_forwarded = 0
        self._forward_index = 0
        self.syncs_started = 0
        self.syncs_short_circuited = 0
        self.syncs_capped = 0
        if self._gossip_peers:
            self.set_periodic(gossip_period_us, self.gossip_tick, jitter_stream=f"ns:{node}")
        self.set_periodic(renotify_period_us, self._notifier_tick)

    # ------------------------------------------------------------------
    # Shard scope helpers
    # ------------------------------------------------------------------
    def _scope(self, peer: NodeId) -> Tuple[str, ...]:
        """The Merkle prefixes ``peer`` and we reconcile over."""
        return self.shard_map.scope(self.node, peer)

    def _accepts(self, record: MappingRecord) -> bool:
        """True if this server stores records of the record's shard."""
        return self.owned is None or shard_of_lwg(record.lwg) in self.owned

    def _session_for(self, peer: NodeId) -> MerkleSession:
        accept = None if self.owned is None else self._accepts
        return MerkleSession(self.db, scope=self._scope(peer), accept=accept)

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------
    def on_message(self, src: NodeId, msg: Any, size: int) -> None:
        if isinstance(msg, NsRequest):
            self._serve(src, msg)
        elif isinstance(msg, SyncRequest):
            self._on_sync_request(src, msg)
        elif isinstance(msg, SyncReply):
            self._on_sync_step(src, msg)
        elif isinstance(msg, PushUpdate):
            self._absorb_remote(msg.records, msg.genealogy)

    # ------------------------------------------------------------------
    # Client RPC
    # ------------------------------------------------------------------
    def _serve(self, src: NodeId, msg: NsRequest) -> None:
        if (
            self.owned is not None
            and shard_of_lwg(msg.lwg) not in self.owned
            and not msg.forwarded
        ):
            # Not ours: relay to one of the shard's owners, which will
            # answer the client directly.  Already-forwarded requests
            # are served wherever they land so relaying cannot loop.
            self._forward(msg)
            return
        self.requests_served += 1
        if msg.op == "set":
            assert msg.record is not None
            if self.db.apply(msg.record, msg.parents):
                self._push_write(msg)
        elif msg.op == "testset":
            assert msg.record is not None
            existing = self.db.live_records(msg.record.lwg)
            if not existing:
                # No live mapping known here: install the proposal.
                if self.db.apply(msg.record, msg.parents):
                    self._push_write(msg)
        elif msg.op == "unset":
            assert msg.record is not None
            if self.db.apply(msg.record, msg.parents):
                self._push_write(msg)
        elif msg.op != "read":
            raise ValueError(f"unknown naming op {msg.op!r}")
        records = tuple(self.db.live_records(msg.lwg))
        response = NsResponse(request_id=msg.request_id, server=self.node, records=records)
        # Reply straight to the requesting client — identical to ``src``
        # for direct requests, and the right recipient for forwarded ones.
        self.send(msg.client, response, response.size_bytes())
        self.notifier.check(self.db)

    def _forward(self, msg: NsRequest) -> None:
        owners = self.shard_map.owners_for_lwg(msg.lwg)
        target = owners[self._forward_index % len(owners)]
        self._forward_index += 1
        self.requests_forwarded += 1
        forwarded = replace(msg, forwarded=True)
        self.env.tracer.emit(
            "naming",
            "request_forwarded",
            server=self.node,
            owner=target,
            lwg=msg.lwg,
            op=msg.op,
        )
        self.send(target, forwarded, forwarded.size_bytes())

    def _push_write(self, msg: NsRequest) -> None:
        assert msg.record is not None
        targets = {
            owner
            for owner in self.shard_map.owners_for_lwg(msg.record.lwg)
            if owner != self.node
        }
        if not targets:
            return
        parents = {msg.record.lwg_view: tuple(msg.parents)} if msg.parents else {}
        push = PushUpdate(sender=self.node, records=(msg.record,), genealogy=parents)
        self.multicast(targets, push, push.size_bytes())

    # ------------------------------------------------------------------
    # Anti-entropy
    # ------------------------------------------------------------------
    def gossip_tick(self) -> None:
        """Open a Merkle descent with the next gossip peer (round-robin)."""
        if not self._gossip_peers:
            return
        peer = self._gossip_peers[self._gossip_index % len(self._gossip_peers)]
        self._gossip_index += 1
        # A fresh exchange supersedes any unfinished session with this
        # peer (e.g. one cut short by a partition or the round cap).
        for key in [k for k in self._sessions if k[0] == peer]:
            del self._sessions[key]
        self._sync_counter += 1
        self.syncs_started += 1
        session = self._session_for(peer)
        delta = session.opener()
        self._sessions[(peer, self._sync_counter)] = session
        request = SyncRequest(
            sender=self.node,
            sync_id=self._sync_counter,
            db_hash=self.db.scope_hash(self._scope(peer)),
            expansions=delta.expansions,
            genealogy_children=delta.genealogy_children,
        )
        self.send(peer, request, request.size_bytes())

    def _on_sync_request(self, src: NodeId, msg: SyncRequest) -> None:
        if msg.db_hash and msg.db_hash == self.db.scope_hash(self._scope(src)):
            # Identical databases over the shared scope: nothing to
            # ship in either direction.
            self.syncs_short_circuited += 1
            ack = SyncReply(sender=self.node, sync_id=msg.sync_id, in_sync=True)
            self.send(src, ack, ack.size_bytes())
            return
        for key in [k for k in self._sessions if k[0] == src and k[1] != msg.sync_id]:
            del self._sessions[key]
        session = self._session_for(src)
        self._sessions[(src, msg.sync_id)] = session
        out = session.handle(
            SyncDelta(
                expansions=msg.expansions,
                genealogy_children=msg.genealogy_children,
            )
        )
        self._note_absorb(session.last_absorb)
        if out is None:
            # Hashes differed but the opener alone resolved it (cannot
            # happen today — the opener always invites a genealogy
            # reply — but kept as a safe exit).
            del self._sessions[(src, msg.sync_id)]
            return
        self._send_step(src, msg.sync_id, 1, out)

    def _on_sync_step(self, src: NodeId, msg: SyncReply) -> None:
        if msg.in_sync:
            self._sessions.pop((src, msg.sync_id), None)
            return
        session = self._sessions.get((src, msg.sync_id))
        if session is None:
            if msg.round_no > DEFAULT_MAX_SYNC_ROUNDS:
                # Refuse to resurrect a capped/stale session forever.
                return
            # Step for a session we no longer track (superseded, or we
            # crashed mid-descent).  Every step is self-describing, so a
            # fresh session answers it correctly.
            session = self._session_for(src)
            self._sessions[(src, msg.sync_id)] = session
        out = session.handle(
            SyncDelta(
                expansions=msg.expansions,
                leaf_digests=msg.leaf_digests,
                records=msg.records,
                genealogy=msg.genealogy,
                genealogy_children=msg.genealogy_children,
            )
        )
        self._note_absorb(session.last_absorb)
        if out is None:
            # Converged: nothing left to ship from this side.
            del self._sessions[(src, msg.sync_id)]
            return
        if msg.round_no + 1 > DEFAULT_MAX_SYNC_ROUNDS:
            # Round cap: drop the session without replying; the next
            # gossip tick restarts from the (strictly closer) new state.
            self.syncs_capped += 1
            self.env.tracer.emit(
                "naming", "sync_round_cap", server=self.node, peer=src, sync_id=msg.sync_id
            )
            del self._sessions[(src, msg.sync_id)]
            return
        self._send_step(src, msg.sync_id, msg.round_no + 1, out)

    def _send_step(self, peer: NodeId, sync_id: int, round_no: int, delta: SyncDelta) -> None:
        reply = SyncReply(
            sender=self.node,
            sync_id=sync_id,
            round_no=round_no,
            expansions=delta.expansions,
            leaf_digests=delta.leaf_digests,
            records=delta.records,
            genealogy=delta.genealogy,
            genealogy_children=delta.genealogy_children,
        )
        self.send(peer, reply, reply.size_bytes())

    def on_crash(self) -> None:
        # In-flight descents die with the process; peers' stale steps
        # after recovery are answered by fresh self-describing sessions.
        self._sessions.clear()

    def on_recover(self) -> None:
        # The volatile database died with the process: rebuild it from
        # the durable areas (quarantining any corruption), bump the
        # durable incarnation so this life is distinguishable from the
        # last one, and compact to a fresh snapshot so the reloaded log
        # is not replayed twice.  Whatever the log lost, the next
        # Merkle-descent gossip re-reconciles from the peers.
        result = self.store.load(owned=self.owned)
        self._install_db(result.db)
        self.incarnation = self.store.bump_incarnation(at_least=self.incarnation)
        self.store.write_snapshot(self.db)
        self._trace_recovery(result)

    # ------------------------------------------------------------------
    # Durable state
    # ------------------------------------------------------------------
    def _install_db(self, db: NamingDatabase) -> None:
        """Adopt ``db`` as the live replica and wire every hook to it."""
        self.db = db
        db.on_edge = self._trace_edge
        db.on_gc = self._trace_gc
        self.store.attach(db)

    def _trace_recovery(self, result: LoadResult) -> None:
        self.env.tracer.emit(
            "recovery",
            "server_recovered",
            server=self.node,
            incarnation=self.incarnation,
            records=len(self.db),
            snapshot_used=result.snapshot_used,
            log_entries=result.log_entries,
            quarantined=result.quarantined,
            truncated=result.log_truncated or result.snapshot_rejected,
        )

    def _absorb_remote(self, records, genealogy) -> None:
        if self.owned is not None:
            # Drop pushes for shards we do not own (a stale or foreign
            # sender); the genealogy still merges — it is global.
            records = tuple(r for r in records if self._accepts(r))
        self._note_absorb(absorb(self.db, records, genealogy))

    def _note_absorb(self, result: ReconcileResult) -> None:
        if result.applied or result.gc_removed:
            self.env.tracer.emit(
                "naming",
                "reconciled",
                server=self.node,
                applied=result.applied,
                gc_removed=result.gc_removed,
                lwgs=sorted(result.touched_lwgs),
            )
        self.notifier.check(self.db)

    # ------------------------------------------------------------------
    # Database observation hooks (consumed by the invariant checkers)
    # ------------------------------------------------------------------
    def _trace_edge(self, child, parents) -> None:
        self.env.tracer.emit(
            "naming",
            "genealogy_edge",
            server=self.node,
            child=str(child),
            parents=[str(p) for p in parents],
        )

    def _trace_gc(self, lwg, view, witness) -> None:
        self.env.tracer.emit(
            "naming",
            "record_gc",
            server=self.node,
            lwg=lwg,
            view=str(view),
            witness=str(witness),
        )

    # ------------------------------------------------------------------
    # Callbacks
    # ------------------------------------------------------------------
    def _send_callback(self, target: NodeId, message: MultipleMappings) -> None:
        self.env.tracer.emit(
            "naming", "multiple_mappings", server=self.node, lwg=message.lwg, target=target
        )
        self.send(target, message, message.size_bytes())

    def _notifier_tick(self) -> None:
        self.notifier.check(self.db)
