"""Cross-backend conformance: same protocol code, same view history.

One scripted join/send/leave scenario runs on the deterministic
simulator and on the real-time asyncio backend (single process, real UDP
sockets on localhost, wall-clock timers).  The *shape* of the LWG view
history — per node, the ordered sequence of distinct membership sets —
must match: membership logic lives entirely above the runtime
interfaces, so only timing may differ between backends.
"""

from typing import Dict, FrozenSet, List

from repro.runtime.asyncio_backend import AsyncioRuntime
from repro.runtime.interfaces import SECOND
from repro.workloads.cluster import Cluster

GROUP = "conformance"


def view_history_shape(cluster: Cluster) -> Dict[str, List[FrozenSet[str]]]:
    """Per-node ordered distinct member sets from the LWG view trace.

    Consecutive duplicates collapse: identity view changes (merges,
    refreshes that keep membership) are timing artefacts, not shape.
    """
    shapes: Dict[str, List[FrozenSet[str]]] = {}
    for record in cluster.env.tracer.select("lwg", "lwg_view_installed"):
        node = record.fields["node"]
        members = frozenset(record.fields["members"])
        history = shapes.setdefault(node, [])
        if not history or history[-1] != members:
            history.append(members)
    return shapes


def run_scripted_scenario(cluster: Cluster) -> Dict[str, List[FrozenSet[str]]]:
    """Join p0, join p1, send both ways, leave p1; return the shape."""
    p0, p1 = cluster.service("p0"), cluster.service("p1")

    handle0 = p0.join(GROUP)
    assert cluster.run_until(
        lambda: handle0.view is not None and set(handle0.view.members) == {"p0"},
        timeout_us=10 * SECOND,
    ), "p0 never founded the group"

    handle1 = p1.join(GROUP)
    assert cluster.run_until(
        lambda: all(
            h.view is not None and set(h.view.members) == {"p0", "p1"}
            for h in (handle0, handle1)
        ),
        timeout_us=15 * SECOND,
    ), "p1 never joined p0's view"

    handle0.send("from p0")
    handle1.send("from p1")
    cluster.run_for(SECOND)

    handle1.leave()
    assert cluster.run_until(
        lambda: handle0.view is not None and set(handle0.view.members) == {"p0"},
        timeout_us=15 * SECOND,
    ), "p0 never saw p1 leave"
    cluster.run_for(SECOND)
    return view_history_shape(cluster)


def test_sim_and_asyncio_backends_agree_on_view_history():
    sim_cluster = Cluster(2, seed=11, num_name_servers=1)
    sim_shape = run_scripted_scenario(sim_cluster)

    env = AsyncioRuntime.create(seed=11)
    try:
        rt_cluster = Cluster(2, num_name_servers=1, env=env)
        rt_shape = run_scripted_scenario(rt_cluster)
    finally:
        env.close()

    # The scenario is quiescent at every checkpoint, so both backends
    # must produce the canonical history below — not merely agree.
    assert sim_shape == rt_shape
    assert sim_shape["p0"] == [
        frozenset({"p0"}),
        frozenset({"p0", "p1"}),
        frozenset({"p0"}),
    ]
    assert rt_shape["p1"] == [frozenset({"p0", "p1"})]
    # One failure feed serves both backends.
    assert type(sim_cluster.env.failures) is type(env.failures)
