"""Tests for the initial mapping policies."""

from repro.core import DynamicMappingPolicy, StaticMappingPolicy
from repro.sim import SECOND
from repro.workloads import Cluster


def converged(handles, size):
    views = [h.view for h in handles]
    return (
        all(v is not None for v in views)
        and len({v.view_id for v in views}) == 1
        and all(len(v.members) == size for v in views)
    )


def test_static_policy_fixed_target():
    policy = StaticMappingPolicy("hwg:fixed")
    assert policy.choose("lwg:any", None) == "hwg:fixed"


def test_dynamic_policy_on_live_cluster():
    cluster = Cluster(num_processes=2, seed=71)
    first = [cluster.service(i).join("a") for i in range(2)]
    assert cluster.run_until(lambda: converged(first, 2), timeout_us=10 * SECOND)
    # The dynamic policy reuses the HWG we are already in.
    chosen = DynamicMappingPolicy().choose("lwg:b", cluster.service(0))
    assert chosen == first[0].hwg
