"""Checkers for crash recovery and self-healing from corrupted state.

These monitors consume the ``recovery`` trace events emitted by the
durable-state machinery — ``stack_recovered`` / ``server_recovered``
from the restart paths and ``store_corrupted`` from the fuzzer's
corruption injector — and, at quiesce, audit every live name server's
durable store against its in-memory replica.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..runtime.trace import TraceRecord
from .base import Checker


class RecoveryConvergenceChecker(Checker):
    """Recovered nodes converge; corrupted state heals, never spreads.

    Online invariants:

    * **Incarnation monotonicity** — every recovery event for a node
      must carry a strictly larger incarnation than the node's previous
      one.  A node that restarts *without* bumping is indistinguishable
      from its dead previous life: its stale segments, acks and
      InstallViews would be accepted as current.
    * **Corruption is always reloaded** — a ``store_corrupted`` injection
      must be followed by a recovery of that node (the fuzz step is
      atomic, so a missing reload means the recovery path silently
      skipped the corrupted store).

    At quiesce:

    * **Durable completeness** — re-loading each live server's
      snapshot+log yields a database byte-identical (content hash) to a
      fully-collected clone of the live one, and the reload is *clean*
      (any corruption was rewritten away by the post-recovery snapshot).
    * **Structural integrity** — the live database's derived structures
      (per-LWG index, Merkle tree, hash caches) agree with its records.

    Convergence of the *replicas* with each other — byte-identical
    databases, agreed views, no resurrected tombstones or dedup-floor
    regressions — is asserted by the standard naming/vsync/LWG checkers,
    which stay armed during every recovery schedule; this checker adds
    the recovery-specific obligations on top.
    """

    name = "recovery-convergence"
    categories = ("recovery",)

    def __init__(self) -> None:
        super().__init__()
        #: node -> highest incarnation observed in a recovery event.
        self._incarnations: Dict[str, int] = {}
        #: node -> (mode, injection time) of a not-yet-reloaded corruption.
        self._pending_corruption: Dict[str, Tuple[str, int]] = {}

    # ------------------------------------------------------------------
    # Online path
    # ------------------------------------------------------------------
    def on_record(self, record: TraceRecord) -> None:
        fields = record.fields
        if record.event in ("server_recovered", "stack_recovered"):
            node = fields.get("server") or fields["node"]
            incarnation = fields["incarnation"]
            previous = self._incarnations.get(node, 0)
            if incarnation <= previous:
                self.fail(
                    "incarnation bump",
                    f"{node} recovered with incarnation {incarnation}, not "
                    f"above its previous life {previous} — its stale traffic "
                    f"is indistinguishable from the new one",
                    record,
                )
            self._incarnations[node] = incarnation
            if record.event == "server_recovered":
                self._pending_corruption.pop(node, None)
        elif record.event == "store_corrupted":
            self._pending_corruption[fields["node"]] = (
                fields["mode"],
                record.time,
            )

    # ------------------------------------------------------------------
    # At-quiesce path
    # ------------------------------------------------------------------
    def at_quiesce(self, cluster) -> None:
        if self._pending_corruption:
            detail = {
                node: mode
                for node, (mode, _) in sorted(self._pending_corruption.items())
            }
            self.fail(
                "corruption reloaded",
                f"injected corruption was never loaded back: {detail}",
            )
        network = cluster.env.fabric
        for node, server in sorted(cluster.name_servers.items()):
            if not network.is_alive(node):
                continue
            problems = server.db.verify_integrity()
            if problems:
                self.fail(
                    "database integrity",
                    f"server {node} database is internally inconsistent at "
                    f"quiesce: {problems}",
                )
            # Sharded servers reload only their owned shards, exactly as
            # the recovery path does (foreign journal entries contribute
            # genealogy only — see persistence.load).
            result = server.store.load(owned=server.owned)
            if not result.clean:
                self.fail(
                    "durable state clean",
                    f"server {node} durable store is damaged at quiesce "
                    f"({result.describe()}) — recovery did not rewrite it",
                )
            # The durable fixed point must match the live one.  The live
            # database is only *incrementally* collected, so compare
            # fully-collected clones (GC is confluent: the fully-swept
            # record set is a function of applied records + genealogy).
            live = server.db.clone()
            live.garbage_collect()
            if result.db.content_hash() != live.content_hash():
                self.fail(
                    "durable completeness",
                    f"server {node} snapshot+log reloads to a different "
                    f"database than the live replica "
                    f"(durable {result.db.content_hash()[:12]} != "
                    f"live {live.content_hash()[:12]}) — a crash here would "
                    f"lose or invent state",
                )
