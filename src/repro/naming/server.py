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

Every server holds every record, as in the paper (Section 5.2).

A server keeps nothing across a crash.  It restarts with an empty
database and catches up through the same anti-entropy that reconciles
a partition heal, while each LWG coordinator's mapping audit
re-registers its live mapping (PROTOCOLS.md §17).

After every mutation the server checks for inconsistent mappings and
fires MULTIPLE-MAPPINGS callbacks at the affected LWG-view coordinators.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

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
from .reconciliation import (
    DEFAULT_MAX_SYNC_ROUNDS,
    MerkleSession,
    ReconcileResult,
    SyncDelta,
    absorb,
)


class NameServer(Process):
    """One naming-service replica."""

    def __init__(
        self,
        env: Runtime,
        node: NodeId,
        peers: Sequence[NodeId] = (),
        gossip_period_us: int = 500_000,
        renotify_period_us: int = 600_000,
    ):
        super().__init__(env, node)
        self.peers: List[NodeId] = [p for p in peers if p != node]
        self._install_db(NamingDatabase())
        #: Lives since construction; bumped by every recovery.
        self.incarnation = 0
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
        self.syncs_started = 0
        self.syncs_short_circuited = 0
        self.syncs_capped = 0
        if self.peers:
            self.set_periodic(gossip_period_us, self.gossip_tick, jitter_stream=f"ns:{node}")
        self.set_periodic(renotify_period_us, self._notifier_tick)

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
        self.send(src, response, response.size_bytes())
        self.notifier.check(self.db)

    def _push_write(self, msg: NsRequest) -> None:
        assert msg.record is not None
        if not self.peers:
            return
        parents = {msg.record.lwg_view: tuple(msg.parents)} if msg.parents else {}
        push = PushUpdate(sender=self.node, records=(msg.record,), genealogy=parents)
        self.multicast(self.peers, push, push.size_bytes())

    # ------------------------------------------------------------------
    # Anti-entropy
    # ------------------------------------------------------------------
    def gossip_tick(self) -> None:
        """Open a Merkle descent with the next gossip peer (round-robin)."""
        peer = self.peers[self._gossip_index % len(self.peers)]
        self._gossip_index += 1
        # A fresh exchange supersedes any unfinished session with this
        # peer (e.g. one cut short by a partition or the round cap).
        for key in [k for k in self._sessions if k[0] == peer]:
            del self._sessions[key]
        self._sync_counter += 1
        self.syncs_started += 1
        session = MerkleSession(self.db)
        delta = session.opener()
        self._sessions[(peer, self._sync_counter)] = session
        request = SyncRequest(
            sender=self.node,
            sync_id=self._sync_counter,
            db_hash=self.db.content_hash(),
            expansions=delta.expansions,
            genealogy_children=delta.genealogy_children,
        )
        self.send(peer, request, request.size_bytes())

    def _on_sync_request(self, src: NodeId, msg: SyncRequest) -> None:
        if msg.db_hash and msg.db_hash == self.db.content_hash():
            # Identical databases: nothing to ship in either direction.
            self.syncs_short_circuited += 1
            ack = SyncReply(sender=self.node, sync_id=msg.sync_id, in_sync=True)
            self.send(src, ack, ack.size_bytes())
            return
        for key in [k for k in self._sessions if k[0] == src and k[1] != msg.sync_id]:
            del self._sessions[key]
        session = MerkleSession(self.db)
        self._sessions[(src, msg.sync_id)] = session
        out = session.handle(
            SyncDelta(
                expansions=msg.expansions,
                genealogy_children=msg.genealogy_children,
            )
        )
        self._note_absorb(session.last_absorb)
        # The hashes differ, so the trees or the genealogy child sets do
        # (a view's parents are fixed by its id): the opener always
        # draws a reply.
        assert out is not None
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
            session = MerkleSession(self.db)
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
        # The database died with the process.  The new life starts
        # empty: the next Merkle descent with each peer ships back every
        # record and edge this replica lacks.
        self._install_db(NamingDatabase())
        self.incarnation += 1
        self.env.tracer.emit(
            "recovery", "server_recovered", server=self.node, incarnation=self.incarnation
        )

    def _install_db(self, db: NamingDatabase) -> None:
        """Adopt ``db`` as the live replica and wire every hook to it."""
        self.db = db
        db.on_edge = self._trace_edge
        db.on_gc = self._trace_gc

    def _absorb_remote(self, records, genealogy) -> None:
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
