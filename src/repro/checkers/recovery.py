"""Checkers for crash recovery.

These monitors consume the ``recovery`` trace events the restart paths
emit (``stack_recovered`` / ``server_recovered``) and, at quiesce, audit
every live name server's database for internal consistency.
"""

from __future__ import annotations

from typing import Dict

from ..runtime.trace import TraceRecord
from .base import Checker


class RecoveryConvergenceChecker(Checker):
    """Recovered nodes are new lives with sound state.

    Online invariant:

    * **Incarnation monotonicity** — every recovery event for a node
      must carry a strictly larger incarnation than the node's previous
      one.  A node that restarts *without* bumping is indistinguishable
      from its dead previous life: its stale segments, acks and
      InstallViews would be accepted as current.

    At quiesce:

    * **Structural integrity** — each live database's derived structures
      (per-LWG index, Merkle tree, hash caches) agree with its records.
      A recovered server rebuilds all of them from what anti-entropy
      ships it.

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

    # ------------------------------------------------------------------
    # Online path
    # ------------------------------------------------------------------
    def on_record(self, record: TraceRecord) -> None:
        fields = record.fields
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

    # ------------------------------------------------------------------
    # At-quiesce path
    # ------------------------------------------------------------------
    def at_quiesce(self, cluster) -> None:
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
