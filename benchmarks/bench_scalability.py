"""Scalability: how many LWGs can one HWG carry, and how many nodes
can one deployment carry?

The repo's scalability story now has three independent axes:

* **group axis** (this file) — LWGs multiplexed onto one HWG.  The
  service's whole premise is that co-mapping is cheap, so each
  additional group must cost ~nothing in join latency and background
  traffic;
* **node axis** (this file) — processes in one deployment, each in
  one 8-member LWG.  A process's failure detector watches only its HWG
  co-members, so quiet traffic per process must not grow with n;
* **naming-roster axis** (``bench_shard_scaleout.py``) — name servers
  added to a sharded deployment (PROTOCOLS.md §18).  Per-server naming
  load must *fall* as the roster grows, not replicate.

A regression on one axis says nothing about the others — the shape
checks below are labelled per axis so CI failures name the right
one.  The group-axis bench sweeps the number of LWGs multiplexed onto
a single 4-member HWG and measures what each additional group costs:

* join latency for the k-th group (naming round-trip + one ordered view
  message — must stay flat);
* per-message delivery latency with all k groups active (the ordered
  channel is shared, so load rises with k);
* background traffic rate (heartbeats/beacons/stability are *per HWG*,
  not per LWG — the sharing win over one-HWG-per-group).
"""

from conftest import SEED

from repro.metrics import series_table, shape_check
from repro.sim import MS, SECOND
from repro.workloads import Cluster
from repro.workloads.scenarios import Scenario, _scaled_lwg_config
from repro.workloads.traffic import ProbeHub, ProbeListener, probe_payload

K_VALUES = (1, 4, 16, 64)


def run_scaling():
    join_ms = []
    latency_ms = []
    background_msgs_per_s = []
    for k in K_VALUES:
        cluster = Cluster(num_processes=4, seed=SEED + k, keep_trace=False)
        hub = ProbeHub(env=cluster.env)
        handles = {}
        # First group establishes the HWG.
        for i in range(4):
            handles[("g0", i)] = cluster.service(i).join(
                "g0", ProbeListener(hub, cluster.node_id(i))
            )
        cluster.run_for_seconds(5)
        # Add groups 1..k-1 and time the last join.
        last_join_ms = 0.0
        for g in range(1, k):
            name = f"g{g}"
            start = cluster.env.now
            for i in range(4):
                handles[(name, i)] = cluster.service(i).join(
                    name, ProbeListener(hub, cluster.node_id(i))
                )
            assert cluster.run_until(
                lambda n=name: all(
                    handles[(n, i)].view is not None
                    and len(handles[(n, i)].view.members) == 4
                    for i in range(4)
                ),
                timeout_us=20 * SECOND,
            ), name
            last_join_ms = (cluster.env.now - start) / 1000
        join_ms.append(last_join_ms)
        # All groups co-mapped?
        hwgs = {h.hwg for h in handles.values()}
        assert len(hwgs) == 1, hwgs
        # Light traffic on every group (paced: one send per 5ms so the
        # measurement reflects per-message cost, not a self-made burst).
        for round_no in range(3):
            for g in range(k):
                index = round_no * k + g
                cluster.env.sim.schedule(
                    index * 5 * MS,
                    lambda g=g, r=round_no: handles[(f"g{g}", 0)].send(
                        probe_payload(cluster.env, r)
                    ),
                )
        cluster.run_for(3 * k * 5 * MS + 2 * SECOND)
        stats = hub.latency.summary()
        latency_ms.append(stats.mean_us / 1000 if stats else 0.0)
        # Background (quiet) traffic rate.
        before = cluster.env.network.messages_sent
        cluster.run_for_seconds(5)
        background_msgs_per_s.append(
            (cluster.env.network.messages_sent - before) / 5
        )
    return join_ms, latency_ms, background_msgs_per_s


def test_lwgs_per_hwg_scaling(benchmark):
    join_ms, latency_ms, background = benchmark.pedantic(
        run_scaling, rounds=1, iterations=1
    )
    print(
        series_table(
            "Scalability — k LWGs multiplexed on one 4-member HWG",
            "k",
            list(K_VALUES),
            {
                "k-th join (ms)": join_ms,
                "delivery latency (ms)": latency_ms,
                "background msgs/s": background,
            },
            note="joins and background load must not grow with k "
            "(the resource-sharing premise)",
        )
    )
    checks = [
        shape_check(
            f"group axis: join latency flat in k "
            f"({join_ms[1]:.0f} -> {join_ms[-1]:.0f}ms)",
            join_ms[-1] <= 3 * max(join_ms[1], 1),
        ),
        # HWG machinery (heartbeats/beacons/stability) is per-HWG and
        # stays flat in k; the PR-7 coordinator mapping audit adds one
        # periodic naming read *per LWG*, so total background grows
        # mildly with k — the sharing win shows in the per-group rate
        # collapsing, not in a flat total.
        shape_check(
            f"group axis: background traffic sub-linear in k "
            f"({background[0]:.0f} -> {background[-1]:.0f}/s total; "
            f"{background[0]:.1f} -> {background[-1] / K_VALUES[-1]:.1f}/s per group)",
            background[-1] <= 3 * background[0] + 10
            and background[-1] / K_VALUES[-1] <= 0.2 * background[0],
        ),
        shape_check(
            f"group axis: delivery latency bounded "
            f"({latency_ms[0]:.2f} -> {latency_ms[-1]:.2f}ms)",
            latency_ms[-1] < 20,
        ),
    ]
    print("\n".join(checks))
    assert all(c.startswith("[PASS]") for c in checks)


# ----------------------------------------------------------------------
# Node axis: the full stack at 64/128/256 processes
# ----------------------------------------------------------------------
N_VALUES = (64, 128, 256)
#: Members per LWG; the node-axis LWGs are disjoint, so n / 8 of them.
LWG_SIZE = 8
QUIET_SECONDS = 10


def run_node_point(n):
    """Join n / 8 disjoint 8-member LWGs (40 ms apart per member),
    converge, then count ``QUIET_SECONDS`` of idle fabric traffic."""
    cluster = Cluster(
        num_processes=n, seed=SEED + n, lwg_config=_scaled_lwg_config(),
        keep_trace=False,
    )
    scenario = Scenario(cluster=cluster, hub=ProbeHub(env=cluster.env), groups={})
    ids = cluster.process_ids
    for g in range(n // LWG_SIZE):
        scenario.groups[f"g{g}"] = ids[g * LWG_SIZE:(g + 1) * LWG_SIZE]
    cluster.run_for_seconds(5)  # the name servers and stacks settle
    schedule = cluster.env.scheduler.schedule
    joins = [(g, node) for g, members in scenario.groups.items() for node in members]
    for index, (group, node) in enumerate(joins):
        schedule(index * 40 * MS, lambda g=group, p=node: scenario.join(g, p))
    start = cluster.env.now
    converged = cluster.run_until(scenario.converged, timeout_us=60 * SECOND)
    converge_s = (cluster.env.now - start) / SECOND
    network = cluster.env.network
    msgs, sent_bytes = network.messages_sent, network.bytes_sent
    cluster.run_for_seconds(QUIET_SECONDS)
    msgs_per_s = (network.messages_sent - msgs) / QUIET_SECONDS
    kb_per_s = (network.bytes_sent - sent_bytes) / QUIET_SECONDS / 1000
    return converged, converge_s, msgs_per_s, kb_per_s


def run_node_scaling():
    return [run_node_point(n) for n in N_VALUES]


def test_membership_node_scaling(benchmark):
    points = benchmark.pedantic(run_node_scaling, rounds=1, iterations=1)
    converged = [point[0] for point in points]
    msgs_per_s = [point[2] for point in points]
    per_process = [m / n for m, n in zip(msgs_per_s, N_VALUES)]
    print(
        series_table(
            "Scalability — n processes, n/8 disjoint 8-member LWGs, flat "
            "heartbeat failure detection",
            "n",
            list(N_VALUES),
            {
                "join -> converged (s)": [point[1] for point in points],
                "quiet msgs/s": msgs_per_s,
                "quiet msgs/s per process": per_process,
                "quiet KB/s": [point[3] for point in points],
            },
            note=f"quiet = {QUIET_SECONDS} sim-s after convergence, "
            "counted at the fabric",
        )
    )
    checks = [
        shape_check(
            "node axis: every n converges ("
            + ", ".join(f"n={n}: {ok}" for n, ok in zip(N_VALUES, converged))
            + ")",
            all(converged),
        ),
        shape_check(
            f"node axis: quiet load per process flat in n "
            f"({per_process[0]:.2f} -> {per_process[-1]:.2f} msgs/s, "
            f"ratio {per_process[-1] / per_process[0]:.2f} <= 1.25)",
            per_process[-1] <= 1.25 * per_process[0],
        ),
    ]
    print("\n".join(checks))
    assert all(c.startswith("[PASS]") for c in checks)
