"""Checkers for the replicated naming service (paper Section 5.2).

These monitors consume the ``naming`` trace events emitted by
:class:`~repro.naming.server.NameServer` (and, through its hooks,
:class:`~repro.naming.database.NamingDatabase`).
"""

from __future__ import annotations

from typing import Dict, Set

from ..runtime.trace import TraceRecord
from .base import Checker


class GenealogyGcChecker(Checker):
    """Garbage collection respects the view genealogy partial order.

    A mapping record may only be collected because its LWG view is a
    *strict ancestor* of another recorded view of the same LWG (Tables
    3-4: "the naming service must be aware of the partial order of
    views").  Collecting a view that is concurrent with — or newer than
    — its witness would discard a live mapping.

    The checker mirrors the genealogy DAG from ``genealogy_edge`` events
    (which every server emits before applying records or collecting) and
    re-validates every ``record_gc`` against it.
    """

    name = "genealogy-gc"
    categories = ("naming",)

    def __init__(self) -> None:
        super().__init__()
        self._parents: Dict[str, Set[str]] = {}

    def _is_ancestor(self, older: str, newer: str) -> bool:
        stack = list(self._parents.get(newer, ()))
        visited: Set[str] = set()
        while stack:
            current = stack.pop()
            if current == older:
                return True
            if current in visited:
                continue
            visited.add(current)
            stack.extend(self._parents.get(current, ()))
        return False

    def on_record(self, record: TraceRecord) -> None:
        fields = record.fields
        if record.event == "genealogy_edge":
            self._parents.setdefault(fields["child"], set()).update(
                fields["parents"]
            )
        elif record.event == "record_gc":
            view, witness = fields["view"], fields["witness"]
            if view == witness or not self._is_ancestor(view, witness):
                self.fail(
                    "genealogy-ordered GC",
                    f"server {fields['server']} collected the mapping of "
                    f"{fields['lwg']} view {view} citing witness {witness}, "
                    f"which is not a strict descendant",
                    record,
                )


class NamingConvergenceChecker(Checker):
    """At quiesce, the naming replicas agree and hold no conflicts.

    After reconciliation (eager push + anti-entropy across the healed
    partition), every reachable server must store the same live mapping
    per LWG, and no server may still see "inconsistent mappings" —
    concurrent views of one LWG on different HWGs (Section 5.2).
    """

    name = "naming-convergence"

    def at_quiesce(self, cluster) -> None:
        network = cluster.env.fabric
        servers = [
            server
            for node, server in sorted(cluster.name_servers.items())
            if network.is_alive(node)
        ]
        if not servers:
            return
        reference = None
        for server in servers:
            snapshot = {
                lwg: tuple(
                    (str(r.lwg_view), r.hwg) for r in server.db.live_records(lwg)
                )
                for lwg in server.db.lwgs()
            }
            if reference is None:
                reference = (server.node, snapshot)
            elif snapshot != reference[1]:
                diff = {
                    lwg: (reference[1].get(lwg), snapshot.get(lwg))
                    for lwg in set(reference[1]) | set(snapshot)
                    if reference[1].get(lwg) != snapshot.get(lwg)
                }
                self.fail(
                    "replica agreement",
                    f"naming tables diverge after reconciliation: "
                    f"{reference[0]} vs {server.node} differ on {diff}",
                )
        for server in servers:
            conflicts = server.db.conflicts()
            if conflicts:
                detail = {
                    lwg: [(str(r.lwg_view), r.hwg) for r in records]
                    for lwg, records in conflicts.items()
                }
                self.fail(
                    "mappings reconciled",
                    f"server {server.node} still holds multiple mappings at "
                    f"quiesce: {detail}",
                )
        # Delta-based anti-entropy must reach the *byte-identical* fixed
        # point (tombstones and genealogy included) — that is what lets
        # steady-state exchanges short-circuit on the database hash.
        hashes = {server.node: server.db.content_hash() for server in servers}
        if len(set(hashes.values())) > 1:
            self.fail(
                "byte-identical replicas",
                f"replica content hashes still diverge at quiesce: {hashes}",
            )
