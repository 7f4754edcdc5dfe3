"""Ablation: failure-detector timeout vs recovery time and stability.

The FD timeout trades detection speed against false suspicions: the
paper's "virtual partitions" (Section 4) are exactly FD timeouts firing
on an overloaded-but-healthy network.  We sweep the timeout and measure

* total crash-recovery time (detection dominates — it should track the
  timeout almost 1:1), and
* false suspicions under heavy but healthy load (shorter timeouts start
  manufacturing virtual partitions).
"""

from conftest import SEED

from repro.metrics import series_table, shape_check
from repro.sim import MS, SECOND
from repro.vsync.stack import VsyncConfig
from repro.workloads import Cluster
from repro.workloads.traffic import probe_payload

TIMEOUTS_MS = (200, 350, 700)


def converged(handles, size):
    views = [h.view for h in handles]
    return (
        all(v is not None for v in views)
        and len({v.view_id for v in views}) == 1
        and all(len(v.members) == size for v in views)
    )


def run_sweep():
    recovery_ms = []
    false_suspicions = []
    for timeout_ms in TIMEOUTS_MS:
        vsync = VsyncConfig()
        vsync.fd_timeout_us = timeout_ms * MS
        cluster = Cluster(
            num_processes=4, seed=SEED, vsync_config=vsync, keep_trace=False
        )
        handles = [cluster.service(i).join("g") for i in range(4)]
        assert cluster.run_until(lambda: converged(handles, 4), timeout_us=20 * SECOND)
        cluster.run_for_seconds(1)
        # Heavy-but-healthy load phase: count spurious view changes.
        views_before = sum(
            cluster.stack(i).endpoints[handles[0].hwg].views_installed
            for i in range(4)
        )
        for burst in range(6):
            for i in range(4):
                for k in range(25):
                    handles[i].send(probe_payload(cluster.env, k), size=512)
            cluster.run_for_seconds(1)
        views_after = sum(
            cluster.stack(i).endpoints[handles[0].hwg].views_installed
            for i in range(4)
        )
        false_suspicions.append(views_after - views_before)
        # Crash-recovery phase.
        crashed_at = cluster.env.now
        cluster.crash(3)
        assert cluster.run_until(
            lambda: converged(handles[:3], 3), timeout_us=30 * SECOND
        )
        recovery_ms.append((cluster.env.now - crashed_at) / 1000.0)
    return recovery_ms, false_suspicions


def test_fd_timeout_ablation(benchmark):
    recovery_ms, false_suspicions = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print(
        series_table(
            "Ablation — FD timeout vs recovery and stability",
            "timeout (ms)",
            list(TIMEOUTS_MS),
            {
                "crash recovery (ms)": recovery_ms,
                "spurious view changes under load": [float(x) for x in false_suspicions],
            },
            note="recovery tracks the timeout; too-short timeouts manufacture "
            "virtual partitions under load",
        )
    )
    checks = [
        shape_check(
            f"recovery grows with the timeout ({recovery_ms[0]:.0f} -> {recovery_ms[-1]:.0f}ms)",
            recovery_ms[-1] > recovery_ms[0],
        ),
        shape_check(
            "recovery is timeout-dominated (within timeout + 200ms slack)",
            all(r <= t + 200 for r, t in zip(recovery_ms, TIMEOUTS_MS)),
        ),
        shape_check(
            f"the paper-scale timeout (350ms) is stable under load "
            f"(spurious={false_suspicions[1]})",
            false_suspicions[1] == 0,
        ),
    ]
    print("\n".join(checks))
    assert all(c.startswith("[PASS]") for c in checks)
