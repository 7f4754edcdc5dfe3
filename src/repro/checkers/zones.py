"""Checker for the zoned topology (PROTOCOLS.md §20).

Consumes the ``zones`` trace category (HWG minting, presence relaying)
and, at quiesce, audits the shared :class:`~repro.vsync.zones.ZoneDirectory`
against the failure feed and every live stack's gossip detector.
On flat clusters — no zone directory, no ``zones`` events — the checker
is inert, so it can sit in the standard suite without disturbing any
pre-zoning scenario.
"""

from __future__ import annotations

from ..runtime.trace import TraceRecord
from .base import Checker


class ZoneScopeChecker(Checker):
    """Zone-scoped state stays zone-scoped.

    Online invariants (``zones`` events):

    * **Mint locality** — every HWG minted under the zoned topology
      carries the minter's own zone tag (``hwg_minted``).  A mismatch
      means a mapping decision escaped its pool.
    * **Relay forwarding shape** — a forwarded Presence names a foreign
      coordinator and at least one local target (``presence_forwarded``).

    At quiesce (zoned clusters only):

    * **Directory consistency** — every application process is
      registered; its activity bit agrees with the failure feed.
    * **Relay election** — each zone with live members elects its
      lowest-id active member as primary relay.
    * **Bounded tracking** — every live stack's gossip detector tracks
      only peers inside its scope (own zone + relay links + explicitly
      monitored peers): the O(zone) state bound the topology exists for.
    """

    name = "zone-scope"
    categories = ("zones",)

    # ------------------------------------------------------------------
    # Online path
    # ------------------------------------------------------------------
    def on_record(self, record: TraceRecord) -> None:
        fields = record.fields
        if record.event == "hwg_minted":
            from ..core.ids import hwg_zone

            tagged = hwg_zone(fields["hwg"])
            if tagged != fields["zone"]:
                self.fail(
                    "zone-mint-locality",
                    f"node {fields['node']} in zone {fields['zone']} minted "
                    f"{fields['hwg']} tagged for zone {tagged}",
                    record,
                )
        elif record.event == "presence_forwarded":
            if fields["origin"] == fields["node"]:
                self.fail(
                    "zone-relay-forwarding",
                    f"relay {fields['node']} forwarded its own beacon",
                    record,
                )
            if fields["targets"] < 1:
                self.fail(
                    "zone-relay-forwarding",
                    f"relay {fields['node']} forwarded {fields['group']} "
                    "to zero targets",
                    record,
                )

    # ------------------------------------------------------------------
    # Quiescent path
    # ------------------------------------------------------------------
    def at_quiesce(self, cluster) -> None:
        directory = getattr(cluster, "zone_directory", None)
        if directory is None:
            return
        network = cluster.env.network
        for node in cluster.process_ids:
            zone = directory.zone_of(node)
            if zone is None:
                self.fail("zone-directory", f"{node} never registered a zone")
                continue
            alive = network.is_alive(node)
            if directory.is_active(node) != alive:
                self.fail(
                    "zone-directory",
                    f"{node} activity bit {directory.is_active(node)} "
                    f"disagrees with the fabric (alive={alive})",
                )
        for zone in directory.zones():
            active = directory.active_members(zone)
            primary = directory.primary_relay(zone)
            if active and primary != active[0]:
                self.fail(
                    "zone-relay-election",
                    f"zone {zone} primary relay {primary!r} is not its "
                    f"lowest-id active member {active[0]!r}",
                )
        for node in sorted(cluster.stacks):
            stack = cluster.stacks[node]
            agent = getattr(stack, "zones", None)
            if agent is None or not network.is_alive(node):
                continue
            fd = stack.fd
            scope = fd._scope()
            stray = sorted(set(fd._table) - scope)
            if stray:
                self.fail(
                    "zone-bounded-tracking",
                    f"{node} tracks out-of-scope peers {stray}",
                )
