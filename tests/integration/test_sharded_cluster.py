"""Whole-stack tests of a sharded naming deployment (PROTOCOLS.md §18).

The full LWG stack runs against name servers that each hold only their
owned shards.  Partition and heal must converge *shard by shard* — the
sharded branch of :class:`NamingConvergenceChecker` — with the recovery
checker auditing every server's per-shard durable store along the way.
"""

import hashlib

import pytest

from repro.core import LwgConfig
from repro.sim import SECOND
from repro.workloads import Cluster


def fast_config():
    config = LwgConfig()
    config.policy_period_us = 2 * SECOND
    return config


def make_cluster(seed=11, num_processes=4, num_name_servers=4,
                 replication_factor=2):
    return Cluster(
        num_processes=num_processes,
        seed=seed,
        num_name_servers=num_name_servers,
        replication_factor=replication_factor,
        lwg_config=fast_config(),
    )


def settled(cluster, groups, members_of):
    for group in groups:
        for node in members_of[group]:
            local = cluster.service(node).table.local(f"lwg:{group}")
            if local is None or not local.is_member or local.view is None:
                return False
        views = {
            cluster.service(node).table.local(f"lwg:{group}").view.view_id
            for node in members_of[group]
        }
        if len(views) != 1:
            return False
    return True


def test_sharded_cluster_builds_shard_map():
    cluster = make_cluster()
    assert cluster.shard_map is not None
    for server in cluster.name_servers.values():
        assert server.owned is not None
        assert len(server.owned) < 256  # a strict subset per server
    for client in cluster.clients.values():
        assert client.shard_map is cluster.shard_map


def test_rf_covering_roster_stays_fully_replicated():
    cluster = Cluster(
        num_processes=1, seed=3, num_name_servers=2, replication_factor=2
    )
    # rf >= roster: every server owns everything.
    for server in cluster.name_servers.values():
        assert server.owned is None


def _trace_digest(**cluster_args):
    """Digest of every trace record of a short join/partition/heal run."""
    digest = hashlib.sha256()
    cluster = Cluster(
        num_processes=4, seed=5, lwg_config=fast_config(), keep_trace=False,
        **cluster_args,
    )
    cluster.env.tracer.subscribe(lambda record: digest.update(str(record).encode()))
    for index, group in enumerate(("g0", "g1", "g2", "g3")):
        for node in cluster.process_ids[index % 2:]:
            cluster.service(node).join(group)
    cluster.run_for_seconds(4)
    cluster.partition(
        cluster.process_ids[:2] + cluster.name_server_ids[:1],
        cluster.process_ids[2:] + cluster.name_server_ids[1:],
    )
    cluster.run_for_seconds(3)
    cluster.heal()
    cluster.run_for_seconds(6)
    cluster.check_invariants()
    return digest.hexdigest()


@pytest.mark.parametrize("num_name_servers", [2, 3])
def test_rf_covering_roster_replays_the_default_deployment(num_name_servers):
    # A fully replicated map walks the roster in roster order, so naming
    # rf = roster explicitly changes nothing observable.
    assert _trace_digest(num_name_servers=num_name_servers) == _trace_digest(
        num_name_servers=num_name_servers, replication_factor=num_name_servers
    )


def test_sharded_groups_converge_and_pass_checkers():
    cluster = make_cluster()
    groups = ("g0", "g1", "g2")
    members_of = {
        "g0": set(cluster.process_ids),
        "g1": set(cluster.process_ids[:2]),
        "g2": set(cluster.process_ids[2:]),
    }
    for group in groups:
        for node in members_of[group]:
            cluster.service(node).join(group)
    assert cluster.run_until(
        lambda: settled(cluster, groups, members_of), timeout_us=40 * SECOND
    )
    cluster.run_for_seconds(5)  # drain the anti-entropy tail
    cluster.check_invariants()  # sharded convergence + recovery branches


def test_sharded_partition_heal_converges_shard_by_shard():
    cluster = make_cluster()
    groups = ("g0", "g1")
    members_of = {
        "g0": set(cluster.process_ids),
        "g1": set(cluster.process_ids[:3]),
    }
    for group in groups:
        for node in members_of[group]:
            cluster.service(node).join(group)
    assert cluster.run_until(
        lambda: settled(cluster, groups, members_of), timeout_us=40 * SECOND
    )
    # Split the name servers two and two, processes with either side,
    # churn memberships while divided, then heal.
    side_a = ["p0", "p1", "ns0", "ns1"]
    side_b = ["p2", "p3", "ns2", "ns3"]
    cluster.partition(side_a, side_b)
    cluster.service("p1").leave("g1")
    members_of["g1"].discard("p1")
    cluster.run_for_seconds(8)
    cluster.heal()
    assert cluster.run_until(
        lambda: settled(cluster, groups, members_of), timeout_us=60 * SECOND
    )
    cluster.run_for_seconds(5)
    cluster.check_invariants()


def test_sharded_server_crash_recovery_passes_checkers():
    cluster = make_cluster()
    members = set(cluster.process_ids)
    for node in members:
        cluster.service(node).join("g0")
    assert cluster.run_until(
        lambda: settled(cluster, ("g0",), {"g0": members}),
        timeout_us=40 * SECOND,
    )
    # Crash-recover one server: it reloads only its owned shards from
    # its per-shard snapshot+journal.
    cluster.crash("ns1")
    cluster.run_for_seconds(2)
    cluster.recover("ns1")
    cluster.run_for_seconds(8)
    cluster.check_invariants()
