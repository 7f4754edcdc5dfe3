"""Identifier conventions for light-weight and heavy-weight groups.

Both kinds of identifier are plain strings with a sortable structure;
the *total order on group identifiers* is ordinary string comparison.
The paper relies on this order twice: deterministic tie-breaking in the
mapping heuristics (Section 3.2) and the reconciliation rule "switch to
the HWG with highest group identifier" (Section 6.2).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..vsync.view import ProcessId

LWG_PREFIX = "lwg:"
HWG_PREFIX = "hwg:"


def lwg_id(name: str) -> str:
    """Canonical LWG identifier for a user-level group name."""
    return name if name.startswith(LWG_PREFIX) else f"{LWG_PREFIX}{name}"


def mint_hwg_id(creator: ProcessId, counter: int) -> str:
    """A fresh, globally unique HWG identifier.

    Uniqueness comes from (creator, per-creator counter); the zero-padded
    counter keeps string order consistent with creation order per node.
    """
    return f"{HWG_PREFIX}{creator}:{counter:06d}"


def is_hwg_id(identifier: str) -> bool:
    return identifier.startswith(HWG_PREFIX)


def is_lwg_id(identifier: str) -> bool:
    return identifier.startswith(LWG_PREFIX)


def highest_gid(identifiers: Iterable[str]) -> Optional[str]:
    """The maximum identifier under the global total order (or None)."""
    ids = list(identifiers)
    return max(ids) if ids else None
