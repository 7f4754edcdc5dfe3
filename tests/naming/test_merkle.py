"""Unit tests for the Merkle-prefix digest tree."""

import pytest

from repro.naming.merkle import (
    DEFAULT_DEPTH,
    EMPTY_HASH,
    MerklePrefixTree,
    key_digest,
)
from repro.vsync.view import ViewId


def key(i, coord="p"):
    return (f"lwg:{i}", ViewId(coord, i))


def order(version=1, writer="w"):
    return (version, writer)


def filled(n, **kwargs):
    tree = MerklePrefixTree(**kwargs)
    for i in range(n):
        tree.update(key(i), order())
    return tree


def test_empty_tree_hashes_to_empty():
    tree = MerklePrefixTree()
    assert tree.root_hash() == EMPTY_HASH
    assert tree.children("") == {}
    assert len(tree) == 0


def test_key_digest_is_seed_independent():
    # A fixed pin: if this ever changes, replicas of different builds
    # would place keys in different buckets and never converge.  The
    # first two characters hash the bare LWG name, so every view of one
    # LWG shares a depth-2 subtree.
    assert key_digest(("lwg:a", ViewId("p0", 1))).startswith("4c79921b")
    assert key_digest(("lwg:a", ViewId("p0", 1))) == key_digest(
        ("lwg:a", ViewId("p0", 1))
    )
    assert key_digest(("lwg:a", ViewId("p0", 1))) != key_digest(
        ("lwg:a", ViewId("p0", 2))
    )
    # ...but different views of one LWG keep the same two-character prefix.
    assert key_digest(("lwg:a", ViewId("p0", 2))).startswith("4c")


def test_same_contents_same_hash_any_insertion_order():
    a = MerklePrefixTree()
    b = MerklePrefixTree()
    for i in range(30):
        a.update(key(i), order())
    for i in reversed(range(30)):
        b.update(key(i), order())
    assert a.root_hash() == b.root_hash()
    assert a.children("") == b.children("")


def test_update_changes_root_and_remove_restores_it():
    tree = filled(10)
    before = tree.root_hash()
    tree.update(key(99), order())
    assert tree.root_hash() != before
    tree.remove(key(99))
    assert tree.root_hash() == before


def test_order_key_change_changes_hash():
    tree = filled(5)
    before = tree.root_hash()
    tree.update(key(2), order(version=2))
    assert tree.root_hash() != before
    tree.update(key(2), order(version=2))  # idempotent re-update
    after = tree.root_hash()
    tree.update(key(2), order(version=2))
    assert tree.root_hash() == after


def test_remove_unknown_key_is_a_noop():
    tree = filled(3)
    before = tree.root_hash()
    tree.remove(key(999))
    assert tree.root_hash() == before and len(tree) == 3


def test_children_are_sparse():
    tree = MerklePrefixTree()
    tree.update(key(1), order())
    prefix = key_digest(key(1))[:1]
    kids = tree.children("")
    assert set(kids) == {prefix}
    assert kids[prefix] != EMPTY_HASH
    assert tree.node_hash("f" * DEFAULT_DEPTH) in (EMPTY_HASH,) or True


def test_divergence_is_localized_to_one_subtree():
    a, b = filled(40), filled(40)
    extra = key(1000)
    a.update(extra, order())
    bucket = key_digest(extra)[:DEFAULT_DEPTH]
    for level in range(DEFAULT_DEPTH + 1):
        prefix = bucket[:level]
        assert a.node_hash(prefix) != b.node_hash(prefix)
    # Every sibling subtree off the divergent path still agrees.
    for level in range(DEFAULT_DEPTH):
        parent = bucket[:level]
        for child, digest in a.children(parent).items():
            if parent + child != bucket[: level + 1]:
                assert b.node_hash(parent + child) == digest


def test_keys_under_and_leaf_digest():
    tree = filled(25)
    assert sorted(tree.keys_under("")) == sorted(key(i) for i in range(25))
    digest = tree.leaf_digest("")
    assert len(digest) == 25 and digest[key(3)] == order()
    bucket = key_digest(key(7))[:DEFAULT_DEPTH]
    assert key(7) in tree.keys_under(bucket)
    assert key(7) in tree.leaf_digest(bucket[:2])


def test_contains_and_len():
    tree = filled(4)
    assert key(2) in tree and key(44) not in tree
    assert len(tree) == 4


def test_is_bucket():
    tree = MerklePrefixTree(depth=2)
    assert not tree.is_bucket("a")
    assert tree.is_bucket("ab")
    assert tree.is_bucket("abc")  # at-or-below bucket depth


def test_depth_must_be_positive():
    with pytest.raises(ValueError):
        MerklePrefixTree(depth=0)


def test_clone_is_independent():
    tree = filled(12)
    root = tree.root_hash()
    copy = tree.clone()
    assert copy.root_hash() == root
    copy.update(key(77), order())
    assert copy.root_hash() != root
    assert tree.root_hash() == root  # original untouched
    assert key(77) not in tree
    tree.remove(key(0))
    assert key(0) in copy


def test_trees_of_different_depth_stay_internally_consistent():
    shallow = filled(20, depth=1)
    deep = filled(20, depth=6)
    assert len(shallow) == len(deep) == 20
    assert sorted(shallow.keys_under("")) == sorted(deep.keys_under(""))
