"""Tests for views, view identifiers and the genealogy DAG."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import CountingParents

from repro.vsync import View, ViewGenealogy, ViewId, merge_member_order


def vid(coord, seq):
    return ViewId(coord, seq)


def test_view_id_equality_and_order():
    assert vid("p0", 1) == vid("p0", 1)
    assert vid("p0", 1) < vid("p0", 2)
    assert vid("p0", 9) < vid("p1", 1)


def test_view_id_str():
    assert str(vid("p3", 7)) == "p3#7"


def test_view_requires_members():
    with pytest.raises(ValueError):
        View("g", vid("p0", 1), ())


def test_view_rejects_duplicate_members():
    with pytest.raises(ValueError):
        View("g", vid("p0", 1), ("a", "a"))


def test_view_coordinator_is_first_member():
    view = View("g", vid("p9", 1), ("b", "a"))
    assert view.coordinator == "b"


def test_view_rank_and_contains():
    view = View("g", vid("p0", 1), ("x", "y", "z"))
    assert view.rank_of("y") == 1
    assert view.contains("z")
    assert not view.contains("w")


def test_merge_member_order_is_deterministic():
    v1 = View("g", vid("p0", 5), ("a", "b"))
    v2 = View("g", vid("p9", 2), ("c", "d"))
    order1 = merge_member_order([v1, v2])
    order2 = merge_member_order([v2, v1])
    assert order1 == order2


def test_merge_member_order_sorts_branches_by_view_id():
    older = View("g", vid("a", 1), ("x", "y"))
    newer = View("g", vid("z", 1), ("q", "r"))
    assert merge_member_order([newer, older]) == ("x", "y", "q", "r")


def test_merge_member_order_dedupes():
    v1 = View("g", vid("a", 1), ("x", "y"))
    v2 = View("g", vid("b", 1), ("y", "z"))
    assert merge_member_order([v1, v2]) == ("x", "y", "z")


def test_merge_member_order_preserves_branch_seniority():
    v1 = View("g", vid("a", 1), ("b", "a"))  # b senior to a
    assert merge_member_order([v1]) == ("b", "a")


# ----------------------------------------------------------------------
# Genealogy
# ----------------------------------------------------------------------
def chain(genealogy, *ids):
    """Record a linear ancestry: ids[0] <- ids[1] <- ..."""
    for parent, child in zip(ids, ids[1:]):
        genealogy.record(child, [parent])


def test_ancestor_direct():
    g = ViewGenealogy()
    chain(g, vid("p", 1), vid("p", 2))
    assert g.is_ancestor(vid("p", 1), vid("p", 2))
    assert not g.is_ancestor(vid("p", 2), vid("p", 1))


def test_ancestor_transitive():
    g = ViewGenealogy()
    chain(g, vid("p", 1), vid("p", 2), vid("p", 3), vid("p", 4))
    assert g.is_ancestor(vid("p", 1), vid("p", 4))


def test_self_is_not_ancestor():
    g = ViewGenealogy()
    chain(g, vid("p", 1), vid("p", 2))
    assert not g.is_ancestor(vid("p", 1), vid("p", 1))


def test_merge_has_two_ancestries():
    g = ViewGenealogy()
    merged = vid("m", 1)
    g.record(merged, [vid("a", 1), vid("b", 1)])
    assert g.is_ancestor(vid("a", 1), merged)
    assert g.is_ancestor(vid("b", 1), merged)


def test_concurrent_views():
    g = ViewGenealogy()
    root = vid("r", 1)
    g.record(vid("a", 1), [root])
    g.record(vid("b", 1), [root])
    assert g.concurrent(vid("a", 1), vid("b", 1))
    assert not g.concurrent(root, vid("a", 1))
    assert not g.concurrent(vid("a", 1), vid("a", 1))


def test_unknown_views_are_concurrent():
    g = ViewGenealogy()
    assert g.concurrent(vid("x", 1), vid("y", 1))


def test_record_accumulates_parents():
    g = ViewGenealogy()
    g.record(vid("c", 1), [vid("a", 1)])
    g.record(vid("c", 1), [vid("b", 1)])
    assert set(g.parents_of(vid("c", 1))) == {vid("a", 1), vid("b", 1)}


def test_record_view_uses_view_parents():
    g = ViewGenealogy()
    view = View("g", vid("n", 2), ("x",), parents=(vid("n", 1),))
    g.record_view(view)
    assert g.is_ancestor(vid("n", 1), vid("n", 2))


# ----------------------------------------------------------------------
# Level index: same answers as the plain walk, on any edge set
# ----------------------------------------------------------------------
def plain_is_ancestor(edges, older, newer):
    """The unpruned reference: DFS from ``newer`` over every known parent."""
    if older == newer:
        return False
    stack = list(edges.get(newer, ()))
    visited = set()
    while stack:
        current = stack.pop()
        if current == older:
            return True
        if current in visited:
            continue
        visited.add(current)
        stack.extend(edges.get(current, ()))
    return False


def assert_matches_plain_walk(genealogy, universe):
    edges = genealogy.edges()
    for older in universe:
        for newer in universe:
            assert genealogy.is_ancestor(older, newer) == plain_is_ancestor(
                edges, older, newer
            ), (older, newer, edges)
    assert genealogy.verify_levels() == []


# A small universe, so self-parents, 2- and 3-cycles, one child recorded
# in several pieces and parents learned after their children all occur.
small_view_ids = st.builds(
    ViewId, coordinator=st.sampled_from(["p", "q"]), seq=st.integers(0, 4)
)
edge_pieces = st.lists(
    st.tuples(small_view_ids, st.lists(small_view_ids, max_size=3)), max_size=14
)


@settings(max_examples=150, deadline=None)
@given(pieces=edge_pieces, clone_at=st.integers(0, 14))
def test_is_ancestor_equals_plain_walk_after_every_record(pieces, clone_at):
    universe = [ViewId(c, s) for c in "pq" for s in range(5)]
    genealogy = ViewGenealogy()
    clone = frozen = None
    for index, (child, parents) in enumerate(pieces):
        if index == clone_at:
            clone, frozen = genealogy.clone(), genealogy.edges()
        genealogy.record(child, parents)
        assert_matches_plain_walk(genealogy, universe)
    if clone is not None:
        # The clone stopped learning at ``clone_at``; recording the rest
        # into it afterwards must not disturb the original, or vice versa.
        assert clone.edges() == frozen
        assert_matches_plain_walk(clone, universe)
        for child, parents in reversed(pieces[clone_at:]):
            clone.record(child, parents)
            assert_matches_plain_walk(clone, universe)
        assert clone.edges() == genealogy.edges()
        assert_matches_plain_walk(genealogy, universe)


@settings(max_examples=60, deadline=None)
@given(
    order=st.permutations(list(range(12))),
    extra=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=6),
)
def test_dag_edges_learned_in_any_order_keep_levels(order, extra):
    """A DAG (edges only from higher to lower index) never loses its levels."""
    views = [vid("v", i) for i in range(12)]
    edges = [(i, i - 1) for i in range(1, 12)] + [
        (max(a, b), min(a, b)) for a, b in extra if a != b
    ]
    genealogy = ViewGenealogy()
    for position in order:
        child, parent = edges[position % len(edges)]
        genealogy.record(views[child], [views[parent]])
        assert_matches_plain_walk(genealogy, views)
    for child, parent in edges:
        genealogy.record(views[child], [views[parent]])
    assert not genealogy._cyclic
    assert genealogy.is_ancestor(views[0], views[11])
    assert_matches_plain_walk(genealogy, views)


def test_parent_learned_after_its_child_relabels_descendants():
    g = ViewGenealogy()
    a, b, c, d = vid("p", 1), vid("p", 2), vid("p", 3), vid("p", 4)
    g.record(d, [c])  # c, d first: c sits at level 0
    g.record(b, [a])
    g.record(c, [b])  # now c must rise above b, and d above c
    assert g.verify_levels() == []
    assert g.is_ancestor(a, d)
    assert not g.is_ancestor(d, a)


@pytest.mark.parametrize(
    "cycle",
    [
        [(vid("p", 0), vid("p", 0))],
        [(vid("p", 0), vid("p", 1)), (vid("p", 1), vid("p", 0))],
        [(vid("p", 0), vid("p", 1)), (vid("p", 1), vid("p", 2)), (vid("p", 2), vid("p", 0))],
    ],
)
def test_cycle_drops_levels_and_answers_by_plain_walk(cycle):
    g = ViewGenealogy()
    tail = vid("q", 9)
    g.record(tail, [vid("p", 0)])
    for child, parent in cycle:
        g.record(child, [parent])
    assert g._cyclic
    universe = [vid("p", i) for i in range(3)] + [tail]
    assert_matches_plain_walk(g, universe)
    # Later edges are still recorded and still answered.
    g.record(vid("q", 10), [tail])
    assert g.is_ancestor(vid("p", 0), vid("q", 10))
    assert_matches_plain_walk(g, universe + [vid("q", 10)])


def test_clone_copies_level_index_independently():
    g = ViewGenealogy()
    chain(g, vid("p", 1), vid("p", 2), vid("p", 3))
    clone = g.clone()
    clone.record(vid("p", 1), [vid("p", 3)])  # closes a cycle in the clone only
    g.record(vid("p", 4), [vid("p", 3)])
    assert clone._cyclic and not g._cyclic
    assert g.verify_levels() == []
    assert g.is_ancestor(vid("p", 1), vid("p", 4))
    assert vid("p", 4) not in clone.edges()
    assert clone.is_ancestor(vid("p", 3), vid("p", 1))


@pytest.mark.parametrize("length", [10, 1000])
def test_concurrent_heads_are_compared_without_walking_their_history(length):
    g = ViewGenealogy()
    history = [vid("h", i) for i in range(length)]
    chain(g, *history)
    left, right = vid("a", 1), vid("b", 1)
    g.record(left, [history[-1]])
    g.record(right, [history[-1]])
    g._parents = counting = CountingParents(g._parents)
    assert g.concurrent(left, right)
    assert counting.lookups == 0
