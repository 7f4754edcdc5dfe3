"""Two-level zoned membership: zone assignment, relays, summaries (§20).

The flat substrate has every process heartbeat and monitor every peer it
shares an HWG with — O(n²) failure-detection traffic and O(n) per-node
membership state, the scalability wall measured in
``benchmarks/bench_scalability.py``.  The zoned topology splits the
roster into deterministic *zones*:

* full per-peer liveness state is kept only for the node's own zone
  (plus peers its endpoints explicitly monitor across zones), driven by
  the :class:`~repro.vsync.failure_detector.GossipFailureDetector`;
* each zone exposes a *relay pair* — the two lowest-id live members —
  that gossips with other zones' relays, exchanges compressed
  :class:`~repro.vsync.messages.ZoneSummary` state, and forwards
  cross-zone view/merge control (Presence beacons) into its zone;
* HWG pools are zone-local: fresh HWGs are minted with a zone tag and
  the mapping policies only co-map LWGs onto own-zone pools.

The :class:`ZoneDirectory` is a shared in-memory registry in the same
spirit as :class:`~repro.vsync.locator.GroupAddressing`: zone assignment
is a deterministic pure function, and activity bits mirror the failure
feed's crash state (a stand-in for the zone membership service a
real deployment would run).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..runtime.interfaces import NodeId

#: Pseudo-group id carried by zone control traffic (like "_fd").
ZONE_GROUP = "_zone"

#: Relays per zone: primary (lowest live id) plus one hot standby.
RELAY_PAIR_SIZE = 2


def zone_hash(node: NodeId, num_zones: int) -> int:
    """Deterministic, hash-seed-independent zone for ``node``."""
    digest = hashlib.sha256(f"zone|{node}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % max(1, num_zones)


@dataclass(frozen=True)
class ZoneMap:
    """Node → zone assignment: explicit table or sha256 hashing.

    Explicit assignments come from workloads that want contiguous zones
    (the scale benches partition along zone boundaries); the fuzz
    harness uses the hash form so assignment is derivable from the
    schedule alone.
    """

    num_zones: int
    explicit: Optional[Mapping[NodeId, int]] = None

    def zone_of(self, node: NodeId) -> int:
        if self.explicit is not None and node in self.explicit:
            return self.explicit[node] % max(1, self.num_zones)
        return zone_hash(node, self.num_zones)


class ZoneDirectory:
    """Shared zone registry: membership, activity, relay election.

    Relay election is a pure function of the registry: the relays of a
    zone are its ``RELAY_PAIR_SIZE`` lowest-id *active* members.  Crash
    transitions flip the activity bit (wired from the stacks' crash
    hooks), so election shifts deterministically the moment a relay
    fail-stops — no extra protocol rounds, mirroring how
    ``GroupAddressing`` stands in for IP-multicast subscription state.
    """

    def __init__(self, zone_map: ZoneMap):
        self.zone_map = zone_map
        self._zone_of: Dict[NodeId, int] = {}
        self._members: Dict[int, List[NodeId]] = {}
        self._active: Dict[NodeId, bool] = {}

    # ------------------------------------------------------------------
    # Registration / activity
    # ------------------------------------------------------------------
    def register(self, node: NodeId) -> int:
        zone = self.zone_map.zone_of(node)
        if node not in self._zone_of:
            self._zone_of[node] = zone
            members = self._members.setdefault(zone, [])
            members.append(node)
            members.sort()
        self._active[node] = True
        return zone

    def set_active(self, node: NodeId, active: bool) -> None:
        if node in self._zone_of:
            self._active[node] = active

    def is_active(self, node: NodeId) -> bool:
        return self._active.get(node, False)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def zone_of(self, node: NodeId) -> Optional[int]:
        return self._zone_of.get(node)

    def zones(self) -> Tuple[int, ...]:
        return tuple(sorted(self._members))

    def members(self, zone: int) -> Tuple[NodeId, ...]:
        return tuple(self._members.get(zone, ()))

    def active_members(self, zone: int) -> Tuple[NodeId, ...]:
        return tuple(
            node for node in self._members.get(zone, ()) if self._active.get(node)
        )

    def relays(self, zone: int) -> Tuple[NodeId, ...]:
        """The zone's relay pair: its lowest-id active members."""
        return self.active_members(zone)[:RELAY_PAIR_SIZE]

    def primary_relay(self, zone: int) -> Optional[NodeId]:
        relays = self.relays(zone)
        return relays[0] if relays else None

    def all_relays(self) -> Set[NodeId]:
        out: Set[NodeId] = set()
        for zone in self._members:
            out.update(self.relays(zone))
        return out


class ZoneAgent:
    """Per-stack zone behaviour: substrate seeding, relaying, summaries.

    Owned by a :class:`~repro.vsync.stack.ProtocolStack` running with
    ``topology="zoned"``.  Periodic work rides the stack's beacon-period
    timer; everything here is deterministic given the directory state.
    """

    def __init__(self, stack, directory: ZoneDirectory):
        from .messages import Presence, ZoneSummary  # no cycle at runtime

        self._Presence = Presence
        self._ZoneSummary = ZoneSummary
        self.stack = stack
        self.directory = directory
        self.zone = directory.register(stack.node)
        self._summary_version = 0
        #: zone -> freshest compressed summary seen (own zone included).
        self.summaries: Dict[int, "ZoneSummary"] = {}
        self.summaries_sent = 0
        self.presence_forwarded = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def seed_substrate(self) -> None:
        """(Re-)install the zone gossip substrate into the detector."""
        peers = set(self.directory.members(self.zone)) - {self.stack.node}
        self.stack.fd.set_substrate(peers)
        self._update_relay_links()

    def on_crash(self) -> None:
        self.directory.set_active(self.stack.node, False)

    def on_recover(self) -> None:
        self.directory.set_active(self.stack.node, True)
        self.seed_substrate()

    # ------------------------------------------------------------------
    # Relay role
    # ------------------------------------------------------------------
    def is_relay(self) -> bool:
        return self.stack.node in self.directory.relays(self.zone)

    def is_primary_relay(self) -> bool:
        return self.directory.primary_relay(self.zone) == self.stack.node

    def _update_relay_links(self) -> None:
        """Relays gossip pairwise with every other zone's relay pair."""
        extras: Set[NodeId] = set()
        if self.is_relay():
            for zone in self.directory.zones():
                if zone != self.zone:
                    extras.update(self.directory.relays(zone))
        self.stack.fd.set_extras(extras)

    # ------------------------------------------------------------------
    # Periodic zone tick (beacon cadence)
    # ------------------------------------------------------------------
    def tick(self) -> None:
        self._update_relay_links()
        if not self.is_relay():
            return
        summary = self._own_summary()
        self.summaries[self.zone] = summary
        targets: Set[NodeId] = set()
        for zone in self.directory.zones():
            if zone != self.zone:
                targets.update(self.directory.relays(zone))
        if self.is_primary_relay():
            # Re-broadcast every known summary into the zone so each
            # member holds compressed per-zone state for the roster.
            locals_ = set(self.directory.members(self.zone)) - {self.stack.node}
            if locals_:
                for zone in sorted(self.summaries):
                    known = self.summaries[zone]
                    self.stack.multicast(locals_, known, known.size_bytes())
                    self.summaries_sent += 1
        if targets:
            self.stack.multicast(targets, summary, summary.size_bytes())
            self.summaries_sent += 1

    def _own_summary(self) -> "ZoneSummary":
        members = self.directory.members(self.zone)
        fd = self.stack.fd
        suspects = tuple(
            sorted(peer for peer in members if fd.is_suspected(peer))
        )
        self._summary_version += 1
        return self._ZoneSummary(
            group=ZONE_GROUP,
            zone=self.zone,
            version=self._summary_version,
            origin=self.stack.node,
            member_count=len(members),
            alive_count=len(members) - len(suspects),
            suspects=suspects,
        )

    # ------------------------------------------------------------------
    # Incoming zone control
    # ------------------------------------------------------------------
    def on_summary(self, src: NodeId, msg: "ZoneSummary") -> None:
        known = self.summaries.get(msg.zone)
        if known is not None and known.origin == msg.origin and msg.version <= known.version:
            return  # per-origin monotonicity; origin changes (relay
            # fail-over) always win so summaries keep flowing.
        self.summaries[msg.zone] = msg

    def maybe_forward_presence(self, src: NodeId, msg: "Presence") -> None:
        """Primary-relay duty: fan a cross-zone beacon into our zone.

        Coordinators beacon directly to same-zone subscribers, their own
        view members, and other zones' relay pairs; the receiving zone's
        primary relay forwards the beacon to local subscribers that are
        not already members of the advertised view.  ``origin`` stamps
        the true coordinator so membership logic attributes the view
        correctly, and guards against re-forwarding loops.
        """
        if msg.origin:
            return  # already forwarded once — never relay a relay
        if not self.is_primary_relay():
            return
        origin_zone = self.directory.zone_of(src)
        if origin_zone == self.zone:
            return  # same-zone beacons already reached everyone local
        members = set(msg.members)
        locals_ = self.stack.addressing.subscribers_in_zone(
            msg.group, self.directory, self.zone
        ) - members - {src, self.stack.node}
        if not locals_:
            return
        forwarded = self._Presence(
            group=msg.group,
            view_id=msg.view_id,
            members=msg.members,
            origin=src,
        )
        self.presence_forwarded += 1
        self.stack.multicast(locals_, forwarded, forwarded.size_bytes())
        if self.stack.env.tracer.enabled("zones"):
            self.stack.env.tracer.emit(
                "zones",
                "presence_forwarded",
                node=self.stack.node,
                group=msg.group,
                origin=src,
                zone=self.zone,
                targets=len(locals_),
            )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def tracked_peer_count(self) -> int:
        """Full per-peer rows + one compressed row per remote zone."""
        return self.stack.fd.tracked_peer_count() + len(
            [zone for zone in self.summaries if zone != self.zone]
        )
