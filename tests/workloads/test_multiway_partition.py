"""Multi-way and singleton partitions through the full stack.

Each test splits a checker-enabled cluster into three or more blocks
(including single-process blocks), lets every side adapt, heals, and
requires full re-convergence with the invariant checkers silent
throughout — online checks fire inside the run, at-quiesce checks at
the end.
"""


from repro.core.ids import lwg_id
from repro.sim import SECOND
from repro.workloads import Cluster


def converged(cluster, group, members):
    """All of ``members`` share one view containing exactly them."""
    views = []
    for node in sorted(members):
        local = cluster.service(node).table.local(lwg_id(group))
        if local is None or not local.is_member or local.view is None:
            return False
        views.append(local.view)
    if len({str(v.view_id) for v in views}) != 1:
        return False
    return set(views[0].members) == set(members)


def wait_converged(cluster, group, members, timeout_s=120):
    ok = cluster.run_until(
        lambda: converged(cluster, group, members),
        timeout_us=timeout_s * SECOND,
    )
    assert ok, f"{group} never reconverged on {sorted(members)}"


def test_three_way_partition_heals_clean():
    cluster = Cluster(num_processes=6, seed=21, num_name_servers=2)
    members = [f"p{i}" for i in range(6)]
    for node in members:
        cluster.service(node).join("room")
    cluster.run_for_seconds(10)
    assert converged(cluster, "room", members)

    cluster.partition(
        ["p0", "p1", "ns0"],
        ["p2", "p3", "ns1"],
        ["p4", "p5"],
    )
    cluster.run_for_seconds(40)
    cluster.heal()
    wait_converged(cluster, "room", members)
    cluster.run_for_seconds(5)
    cluster.check_invariants()
    assert cluster.checkers.violations == []


def test_singleton_blocks_rejoin_clean():
    # Two isolated singletons: each falls back to a primary/secede view
    # of itself, then everyone merges back.
    cluster = Cluster(num_processes=4, seed=22, num_name_servers=2)
    members = [f"p{i}" for i in range(4)]
    for node in members:
        cluster.service(node).join("room")
    cluster.run_for_seconds(10)
    assert converged(cluster, "room", members)

    cluster.partition(["p0", "p1", "ns0", "ns1"], ["p2"], ["p3"])
    cluster.run_for_seconds(40)
    cluster.heal()
    wait_converged(cluster, "room", members)
    cluster.run_for_seconds(5)
    cluster.check_invariants()
    assert cluster.checkers.violations == []


def test_repartition_coarsens_blocks_then_heals():
    # A partial heal is a re-partition with coarser blocks: 3-way down
    # to 2-way, then fully healed.
    cluster = Cluster(num_processes=6, seed=23, num_name_servers=2)
    members = [f"p{i}" for i in range(6)]
    for node in members:
        cluster.service(node).join("room")
    cluster.run_for_seconds(10)

    cluster.partition(["p0", "p1", "ns0"], ["p2", "p3", "ns1"], ["p4", "p5"])
    cluster.run_for_seconds(30)
    # Partial heal: the two minority blocks merge.
    cluster.partition(["p0", "p1", "ns0"], ["p2", "p3", "p4", "p5", "ns1"])
    cluster.run_for_seconds(30)
    cluster.heal()
    wait_converged(cluster, "room", members)
    cluster.run_for_seconds(5)
    cluster.check_invariants()
    assert cluster.checkers.violations == []


def test_traffic_across_multiway_partition_stays_consistent():
    # Senders in different blocks keep multicasting while split; after
    # the heal everyone converges and the delivery checkers (total
    # order, FIFO, virtual synchrony) stay quiet.
    cluster = Cluster(num_processes=5, seed=24, num_name_servers=2)
    members = [f"p{i}" for i in range(5)]
    handles = {node: cluster.service(node).join("room") for node in members}
    cluster.run_for_seconds(10)
    assert converged(cluster, "room", members)

    cluster.partition(["p0", "p1", "ns0"], ["p2", "p3", "ns1"], ["p4"])
    cluster.run_for_seconds(15)
    for node in ("p0", "p2", "p4"):
        for n in range(3):
            handles[node].send(f"{node}-while-split-{n}")
    cluster.run_for_seconds(15)
    cluster.heal()
    wait_converged(cluster, "room", members)
    for node in ("p1", "p3"):
        handles[node].send(f"{node}-after-heal")
    cluster.run_for_seconds(5)
    cluster.check_invariants()
    assert cluster.checkers.violations == []
