"""Views and view identifiers for partitionable virtual synchrony.

Following the paper (Section 5.1), a view identifier is the pair
``(coordinator, view-sequence-number)`` where the sequence number is a
counter local to the coordinator.  Because concurrent views of the same
group can exist in different partitions, views also carry their *parent*
view identifiers — the views they directly succeeded or merged — forming
a genealogy DAG.  The naming service uses this partial order to discard
obsolete mappings (Section 5.2), and the LWG layer uses it to decide
whether two views are concurrent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

ProcessId = str
GroupId = str


@dataclass(frozen=True, order=True)
class ViewId:
    """Globally unique view identifier: ``(coordinator, sequence-number)``.

    Ordering is lexicographic and used only for deterministic tie-breaks,
    never as a causality judgement — concurrency is decided through the
    genealogy (see :class:`ViewGenealogy`).
    """

    coordinator: ProcessId
    seq: int

    def __str__(self) -> str:
        return f"{self.coordinator}#{self.seq}"


@dataclass(frozen=True)
class View:
    """An installed group view.

    Attributes:
        group: the group this view belongs to.
        view_id: unique identifier, minted by the installing coordinator.
        members: member processes in seniority order (oldest first); the
            first member is the view's coordinator by convention.
        parents: identifiers of the views this view directly succeeded.
            A view created by a partition-side view change has one parent
            (the pre-change view); a view created by a merge has one
            parent per merged branch; a founding singleton view has none.
    """

    group: GroupId
    view_id: ViewId
    members: Tuple[ProcessId, ...]
    parents: Tuple[ViewId, ...] = ()

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a view must have at least one member")
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"duplicate members in view: {self.members}")

    @property
    def coordinator(self) -> ProcessId:
        """The process responsible for sequencing and view changes."""
        return self.members[0]

    @property
    def member_set(self) -> FrozenSet[ProcessId]:
        return frozenset(self.members)

    def contains(self, process: ProcessId) -> bool:
        return process in self.members

    def rank_of(self, process: ProcessId) -> int:
        """Seniority rank (0 = oldest/coordinator)."""
        return self.members.index(process)

    def __str__(self) -> str:
        return f"View({self.group}@{self.view_id}: {','.join(self.members)})"


def merge_member_order(branches: Sequence[View]) -> Tuple[ProcessId, ...]:
    """Deterministic seniority order for a merged view.

    Branch member lists are concatenated in ascending branch-view-id
    order, preserving each branch's internal seniority and dropping
    duplicates.  Every process that observes the same set of branches
    computes the same order, so merges need no extra agreement round.
    """
    ordered: List[ProcessId] = []
    seen: Set[ProcessId] = set()
    for view in sorted(branches, key=lambda v: v.view_id):
        for member in view.members:
            if member not in seen:
                seen.add(member)
                ordered.append(member)
    return tuple(ordered)


class ViewGenealogy:
    """A DAG of view ancestry used to answer obsolescence queries.

    The genealogy is *append-only knowledge*: callers record
    ``view -> parents`` edges as they learn them (view installations,
    naming-service updates) and ask whether one view is an ancestor of
    another.  Unknown views are treated as having no known ancestry,
    which errs on the side of keeping information — exactly what a
    weakly-consistent naming service needs.

    Every known view carries a *level* with ``level(child) >
    level(parent)`` on every known edge (unknown views sit at 0), so an
    ancestor always has a strictly smaller level than its descendants.
    :meth:`is_ancestor` uses it to answer "no" between two concurrent
    heads without walking their shared history to the roots.  Edges
    arrive off the wire and off disk, so they may close a cycle; such a
    genealogy has no levels, and from then on queries fall back to the
    plain walk, which is total on any input.
    """

    def __init__(self) -> None:
        self._parents: Dict[ViewId, Tuple[ViewId, ...]] = {}
        #: parent -> children, to relabel descendants when an edge is
        #: learned late or out of order.
        self._children: Dict[ViewId, List[ViewId]] = {}
        self._level: Dict[ViewId, int] = {}
        #: Set once an edge closes a cycle; levels are dropped for good.
        self._cyclic = False

    def record(self, view_id: ViewId, parents: Iterable[ViewId]) -> bool:
        """Record that ``view_id`` directly succeeded ``parents``.

        Returns True if that was news: a child or a parent not known before.
        """
        known = self._parents.get(view_id)
        existing = known or ()
        merged = tuple(sorted(set(existing) | set(parents)))
        if known is not None and len(merged) == len(known):
            return False
        self._parents[view_id] = merged
        if not self._cyclic and len(merged) > len(existing):
            self._lift(view_id, merged, existing)
        return True

    def _lift(
        self,
        view_id: ViewId,
        parents: Tuple[ViewId, ...],
        indexed: Tuple[ViewId, ...],
    ) -> None:
        """Restore ``level(child) > level(parent)`` after new parent edges."""
        level = self._level
        for parent in parents:
            if parent not in indexed:
                self._children.setdefault(parent, []).append(view_id)
        floor = 1 + max(level.get(parent, 0) for parent in parents)
        if level.get(view_id, 0) >= floor:
            return
        level[view_id] = floor
        stack = [view_id]
        while stack:
            current = stack.pop()
            floor = level[current] + 1
            for child in self._children.get(current, ()):
                if level.get(child, 0) < floor:
                    if child == view_id:
                        # Any new cycle passes through the new edge.
                        self._cyclic = True
                        self._children.clear()
                        level.clear()
                        return
                    level[child] = floor
                    stack.append(child)

    def record_view(self, view: View) -> None:
        """Convenience: record a :class:`View`'s parent edges."""
        self.record(view.view_id, view.parents)

    def clone(self) -> "ViewGenealogy":
        """Independent copy (edge tuples are immutable and shared)."""
        out = ViewGenealogy()
        out._parents = dict(self._parents)
        out._children = {p: list(c) for p, c in self._children.items()}
        out._level = dict(self._level)
        out._cyclic = self._cyclic
        return out

    def parents_of(self, view_id: ViewId) -> Tuple[ViewId, ...]:
        return self._parents.get(view_id, ())

    def ancestors_of(self, view_id: ViewId) -> Set[ViewId]:
        """All known strict ancestors of ``view_id``."""
        out: Set[ViewId] = set()
        stack = list(self._parents.get(view_id, ()))
        while stack:
            current = stack.pop()
            if current in out:
                continue
            out.add(current)
            stack.extend(self._parents.get(current, ()))
        return out

    def is_ancestor(self, older: ViewId, newer: ViewId) -> bool:
        """True if ``older`` is a strict ancestor of ``newer``."""
        if older == newer:
            return False
        # Only views strictly above ``older``'s level can descend from
        # it; everything at or below is pruned unvisited.  A cyclic
        # genealogy has no levels (the map is empty): a floor below
        # zero prunes nothing, which is the plain walk.
        level = self._level
        floor = -1 if self._cyclic else level.get(older, 0)
        if level.get(newer, 0) <= floor:
            return False
        stack = list(self._parents.get(newer, ()))
        visited: Set[ViewId] = set()
        while stack:
            current = stack.pop()
            if current == older:
                return True
            if current in visited or level.get(current, 0) <= floor:
                continue
            visited.add(current)
            stack.extend(self._parents.get(current, ()))
        return False

    def concurrent(self, a: ViewId, b: ViewId) -> bool:
        """True if neither view is an ancestor of the other (and a != b)."""
        if a == b:
            return False
        return not self.is_ancestor(a, b) and not self.is_ancestor(b, a)

    def known_views(self) -> Set[ViewId]:
        """Every view id that appears in the genealogy (as child or parent)."""
        out: Set[ViewId] = set(self._parents)
        for parents in self._parents.values():
            out.update(parents)
        return out

    def merge_from(self, other: "ViewGenealogy") -> None:
        """Absorb every edge known by ``other`` (naming-service reconciliation)."""
        for view_id, parents in other._parents.items():
            self.record(view_id, parents)

    def edges(self) -> Dict[ViewId, Tuple[ViewId, ...]]:
        """A copy of the child -> parents edge map."""
        return dict(self._parents)

    def verify_levels(self) -> List[str]:
        """Problems with the level index (empty means it is sound).

        Unless the genealogy is flagged cyclic, every known edge must
        have ``level(child) > level(parent)`` and appear in the child
        index exactly once.
        """
        if self._cyclic:
            return []
        problems: List[str] = []
        for child in sorted(self._parents):
            for parent in self._parents[child]:
                if self._level.get(child, 0) <= self._level.get(parent, 0):
                    problems.append(f"level of {child} not above its parent {parent}")
                if self._children.get(parent, []).count(child) != 1:
                    problems.append(f"child index misses edge {child} -> {parent}")
        indexed = sum(len(children) for children in self._children.values())
        if indexed != sum(len(parents) for parents in self._parents.values()):
            problems.append("child index holds edges the parent map lacks")
        return problems
