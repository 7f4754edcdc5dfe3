"""Unit and property tests for the LWG-name shard map (PROTOCOLS.md §18)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.naming.merkle import key_digest
from repro.naming.sharding import (
    ALL_SHARDS,
    NUM_SHARDS,
    SHARD_PREFIX_LEN,
    ShardMap,
    shard_of_key,
    shard_of_lwg,
)
from repro.vsync.view import ViewId


def roster(n):
    return [f"ns{i}" for i in range(n)]


# ----------------------------------------------------------------------
# Shard naming
# ----------------------------------------------------------------------
def test_shard_of_lwg_is_stable_and_prefix_shaped():
    shard = shard_of_lwg("lwg:a")
    assert shard == "4c"  # pinned: seed-independent sha256 prefix
    assert len(shard) == SHARD_PREFIX_LEN
    assert shard in ALL_SHARDS


def test_shard_is_a_merkle_subtree():
    # The shard of an LWG is exactly the first SHARD_PREFIX_LEN chars of
    # every record key digest for that LWG — a shard *is* a subtree.
    for seq in (1, 2, 7):
        digest = key_digest(("lwg:a", ViewId("p0", seq)))
        assert digest.startswith(shard_of_lwg("lwg:a"))
    assert shard_of_key(("lwg:a", ViewId("p9", 3))) == shard_of_lwg("lwg:a")


def test_all_shards_enumeration():
    assert len(ALL_SHARDS) == NUM_SHARDS == 16**SHARD_PREFIX_LEN
    assert ALL_SHARDS == tuple(sorted(ALL_SHARDS))


# ----------------------------------------------------------------------
# Replica-set assignment
# ----------------------------------------------------------------------
def test_rf_larger_than_roster_degenerates_to_full_replication():
    shard_map = ShardMap(roster(3), replication_factor=5)
    assert shard_map.fully_replicated
    for shard in shard_map.shards:
        assert set(shard_map.owners(shard)) == set(roster(3))
    # Full replication keeps the legacy whole-tree anti-entropy scope.
    assert shard_map.scope("ns0", "ns1") == ("",)


def test_roster_of_one_owns_everything():
    shard_map = ShardMap(["ns0"], replication_factor=3)
    assert shard_map.fully_replicated
    assert shard_map.owned_shards("ns0") == ALL_SHARDS
    for shard in ALL_SHARDS:
        assert shard_map.owners(shard) == ("ns0",)


def test_invalid_construction():
    with pytest.raises(ValueError):
        ShardMap([], replication_factor=2)
    with pytest.raises(ValueError):
        ShardMap(roster(3), replication_factor=0)


def test_map_is_deterministic_and_order_insensitive():
    a = ShardMap(roster(8), replication_factor=3)
    b = ShardMap(list(reversed(roster(8))), replication_factor=3)
    for shard in ALL_SHARDS:
        assert a.owners(shard) == b.owners(shard)


def test_owned_shards_inverts_owners():
    shard_map = ShardMap(roster(8), replication_factor=3)
    for server in shard_map.servers:
        for shard in shard_map.owned_shards(server):
            assert server in shard_map.owners(shard)
    total = sum(len(shard_map.owned_shards(s)) for s in shard_map.servers)
    assert total == NUM_SHARDS * 3


def test_scope_is_symmetric_and_shared():
    shard_map = ShardMap(roster(8), replication_factor=3)
    mine = set(shard_map.owned_shards("ns0"))
    theirs = set(shard_map.owned_shards("ns1"))
    scope = shard_map.scope("ns0", "ns1")
    assert set(scope) == mine & theirs
    assert set(shard_map.scope("ns1", "ns0")) == set(scope)


def test_rendezvous_stability_on_roster_growth():
    """Adding one of n servers moves ~1/n of the shard->owner slots."""
    before = ShardMap(roster(8), replication_factor=3)
    after = ShardMap(roster(9), replication_factor=3)
    moved = sum(
        1
        for shard in ALL_SHARDS
        for owner in before.owners(shard)
        if owner not in after.owners(shard)
    )
    slots = NUM_SHARDS * 3
    # Expect ~slots/9 slots to move to the new server; allow 2x slack
    # for hash variance, and require *some* movement (the new server
    # must take real load).
    assert 0 < moved <= 2 * slots / 9
    gained = len(after.owned_shards("ns8"))
    assert gained == moved  # every vacated slot went to the newcomer


def test_rendezvous_stability_on_roster_shrink():
    before = ShardMap(roster(8), replication_factor=3)
    after = ShardMap(roster(7), replication_factor=3)
    # Surviving servers keep every shard they had; they only *gain*.
    for server in roster(7):
        assert set(before.owned_shards(server)) <= set(
            after.owned_shards(server)
        )


@settings(max_examples=60, deadline=None)
@given(
    num_servers=st.integers(min_value=1, max_value=12),
    replication_factor=st.integers(min_value=1, max_value=6),
    lwg=st.text(min_size=1, max_size=24),
)
def test_every_key_has_exactly_min_rf_n_distinct_owners(
    num_servers, replication_factor, lwg
):
    shard_map = ShardMap(roster(num_servers), replication_factor)
    owners = shard_map.owners_for_lwg(lwg)
    assert len(owners) == len(set(owners)) == min(replication_factor, num_servers)
    assert set(owners) <= set(shard_map.servers)
    # Ownership agrees with the per-server view.
    shard = shard_of_lwg(lwg)
    for owner in owners:
        assert shard_map.owns(owner, shard)
        assert shard in shard_map.owned_shards(owner)
