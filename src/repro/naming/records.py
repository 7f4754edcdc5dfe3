"""Naming-service records: view-to-view mappings.

The partitionable naming service does not merely store "LWG -> HWG"
pairs; following Section 5.2 it "stores mappings between specific LWG
views and HWG views", recognising that concurrent views can exist at
both levels.  Each record is therefore keyed by ``(lwg, lwg_view)`` and
carries the HWG *view* the LWG view is mapped onto.

Records are single-writer: an LWG view has exactly one coordinator at
any time, and only coordinators write mappings.  Reconciliation can
therefore use simple ``(version, writer)`` last-writer-wins per key,
with genealogy-driven garbage collection removing records of superseded
views (Table 4's evolution).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..vsync.view import ProcessId, ViewId

LwgId = str
HwgId = str

RecordKey = Tuple[LwgId, ViewId]


@dataclass(frozen=True)
class MappingRecord:
    """One view-to-view mapping: an LWG view mapped onto an HWG view."""

    lwg: LwgId
    lwg_view: ViewId
    lwg_members: Tuple[ProcessId, ...]
    hwg: HwgId
    hwg_view: ViewId
    version: int
    writer: ProcessId
    deleted: bool = False  # explicit-destroy tombstone

    @property
    def key(self) -> RecordKey:
        return (self.lwg, self.lwg_view)

    @property
    def coordinator(self) -> ProcessId:
        """Callback target: the coordinator of the mapped LWG view."""
        return self.lwg_members[0]

    def order_key(self) -> tuple:
        """Total order among records with the same key (used for LWW and
        in anti-entropy digests).  ``(version, writer)`` decides; the
        full-content tail makes the order total, so replica merging stays
        commutative even if a buggy or byzantine writer reuses a version
        for different content (single-writer discipline normally
        prevents that)."""
        return (self.version, self.writer, self.hwg, self.hwg_view,
                self.deleted, self.lwg_members)

    def newer_than(self, other: "MappingRecord") -> bool:
        """LWW order for records with the same key."""
        return self.order_key() > other.order_key()

    def __str__(self) -> str:
        flag = " [deleted]" if self.deleted else ""
        return f"{self.lwg}@{self.lwg_view} -> {self.hwg}@{self.hwg_view}{flag}"
