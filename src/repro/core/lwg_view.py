"""Light-weight group views.

LWG views reuse the :class:`~repro.vsync.view.View` structure (a group
id, a ``(coordinator, seq)`` view id, seniority-ordered members and
parent view ids).  This module adds the LWG-specific operations:

* **deterministic merged view identifiers** — the Figure-5 protocol
  merges concurrent views "in a decentralized and deterministic way
  (since all processes have the same information)", with no extra
  agreement round.  Every member therefore derives the *same* new view
  id purely from the set of merged parent views, via a stable hash.
* **restriction** — shrinking a view to the members that survived an
  underlying HWG view change.
* **ancestry tracking** — each member keeps the known ancestor set of
  its current view per LWG, which is how stale view announcements are
  told apart from genuinely concurrent views.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Sequence, Set

from ..vsync.view import ProcessId, View, ViewId, merge_member_order

#: Merged-view sequence numbers carry this bit so they can never collide
#: with counter-minted sequence numbers from any process.
_MERGE_SEQ_BIT = 1 << 60


def merged_view_id(lwg: str, parents: Sequence[ViewId]) -> ViewId:
    """Deterministic identifier for the merge of ``parents``.

    Any process knowing the same parent set computes the same id, so the
    Figure-5 merge needs no coordinator round-trip to mint it.  The
    coordinator field is the seniority-first member of the merged view's
    first parent branch — recomputed identically everywhere.
    """
    ordered = tuple(sorted(parents))
    if not ordered:
        raise ValueError("a merged view needs at least one parent")
    digest = hashlib.sha256(
        ("|".join([lwg] + [str(p) for p in ordered])).encode("utf-8")
    ).digest()
    seq = (int.from_bytes(digest[:7], "big")) | _MERGE_SEQ_BIT
    return ViewId(coordinator=ordered[0].coordinator, seq=seq)


def merge_lwg_views(lwg: str, views: Sequence[View]) -> View:
    """Merge concurrent LWG views into one (Figure 5, line 115).

    Member order follows :func:`~repro.vsync.view.merge_member_order`;
    parents are all merged view ids; the view id is derived
    deterministically so every member agrees without communication.
    """
    if not views:
        raise ValueError("nothing to merge")
    if len(views) == 1:
        return views[0]
    parents = tuple(sorted({v.view_id for v in views}))
    members = merge_member_order(views)
    return View(group=lwg, view_id=merged_view_id(lwg, parents), members=members, parents=parents)


def restrict_view(view: View, surviving: Iterable[ProcessId], new_id: ViewId) -> View:
    """A successor of ``view`` containing only ``surviving`` members."""
    members = tuple(m for m in view.members if m in set(surviving))
    if not members:
        raise ValueError(f"restriction of {view} would be empty")
    return View(group=view.group, view_id=new_id, members=members, parents=(view.view_id,))


class AncestorTracker:
    """Known ancestor view ids of a process's current view, per LWG."""

    def __init__(self) -> None:
        self._ancestors: Set[ViewId] = set()

    def advance(self, old: Optional[View], new: View) -> None:
        """Record that ``new`` replaced ``old`` locally."""
        if old is not None:
            self._ancestors.add(old.view_id)
        self._ancestors.update(new.parents)

    def is_stale(self, view_id: ViewId) -> bool:
        """True if ``view_id`` is a view we already moved past."""
        return view_id in self._ancestors

    def concurrent_with_current(self, current: Optional[View], view_id: ViewId) -> bool:
        """True if ``view_id`` denotes a view concurrent with ``current``.

        Stale ids (our own ancestors) are not concurrent; our own current
        id is not concurrent with itself.  Anything else claiming to be a
        live view of the same LWG is treated as concurrent — exactly the
        trigger condition of Figure 5, line 106.
        """
        if current is None or view_id == current.view_id:
            return False
        return not self.is_stale(view_id)
