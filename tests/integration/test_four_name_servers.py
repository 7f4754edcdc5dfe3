"""Whole-stack tests on four name servers, each holding every record.

The full LWG stack runs against a roster wider than the default two:
a partition that splits the servers two and two, and a server crash,
must both end with every live replica byte-identical at quiesce.
"""

from repro.core import LwgConfig
from repro.sim import SECOND
from repro.workloads import Cluster


def make_cluster(seed=11):
    config = LwgConfig()
    config.policy_period_us = 2 * SECOND
    return Cluster(num_processes=4, seed=seed, num_name_servers=4, lwg_config=config)


def settled(cluster, members_of):
    for group, members in members_of.items():
        locals_ = [cluster.service(node).table.local(f"lwg:{group}") for node in members]
        if any(local is None or not local.is_member or local.view is None for local in locals_):
            return False
        if len({local.view.view_id for local in locals_}) != 1:
            return False
    return True


def test_four_server_partition_heal_converges():
    cluster = make_cluster()
    members_of = {"g0": set(cluster.process_ids), "g1": set(cluster.process_ids[:3])}
    for group, members in members_of.items():
        for node in members:
            cluster.service(node).join(group)
    assert cluster.run_until(lambda: settled(cluster, members_of), timeout_us=40 * SECOND)
    # Split the name servers two and two, processes with either side,
    # churn memberships while divided, then heal.
    cluster.partition(["p0", "p1", "ns0", "ns1"], ["p2", "p3", "ns2", "ns3"])
    cluster.service("p1").leave("g1")
    members_of["g1"].discard("p1")
    cluster.run_for_seconds(8)
    cluster.heal()
    assert cluster.run_until(lambda: settled(cluster, members_of), timeout_us=60 * SECOND)
    cluster.run_for_seconds(5)
    cluster.check_invariants()


def test_four_server_crash_recovery_passes_checkers():
    cluster = make_cluster()
    members_of = {"g0": set(cluster.process_ids)}
    for node in members_of["g0"]:
        cluster.service(node).join("g0")
    assert cluster.run_until(lambda: settled(cluster, members_of), timeout_us=40 * SECOND)
    # The restarted server comes back empty and is refilled by
    # anti-entropy from its three peers.
    cluster.crash("ns1")
    cluster.run_for_seconds(2)
    cluster.recover("ns1")
    cluster.run_for_seconds(8)
    assert cluster.name_servers["ns1"].db.live_records("lwg:g0")
    cluster.check_invariants()
