"""Substrate characterization: the vsync layer and the simulator itself.

Not a paper figure — these pin down the baseline costs every other
benchmark builds on: ordered-multicast delivery latency in the HWG
substrate, view-change turnaround, and raw simulator event throughput.
"""

from conftest import SEED

from repro.metrics import format_table
from repro.sim import SECOND, SimRuntime, Simulation
from repro.vsync import GroupAddressing, HwgListener, ProtocolStack


class Counter(HwgListener):
    def __init__(self):
        self.delivered = 0
        self.views = 0

    def on_data(self, group, src, payload, size):
        self.delivered += 1

    def on_view(self, group, view):
        self.views += 1


def build_group(n, seed=SEED):
    env = SimRuntime.create(seed=seed, keep_trace=False)
    addressing = GroupAddressing()
    stacks = [ProtocolStack(env, f"p{i}", addressing) for i in range(n)]
    listeners = [Counter() for _ in range(n)]
    endpoints = [s.endpoint("g", listeners[i]) for i, s in enumerate(stacks)]
    for endpoint in endpoints:
        endpoint.join()
    env.sim.run_until(4 * SECOND)
    ids = {e.current_view.view_id for e in endpoints if e.current_view}
    assert len(ids) == 1 and all(e.current_view for e in endpoints)
    return env, stacks, endpoints, listeners


def test_ordered_multicast_wall_throughput(benchmark):
    """Wall-clock cost of pushing 500 ordered multicasts through a
    4-member HWG (simulator + protocol overhead per message)."""
    def run():
        env, stacks, endpoints, listeners = build_group(4)
        for i in range(500):
            endpoints[i % 4].send(("m", i), size=200)
        env.sim.run_until(env.sim.now + 30 * SECOND)
        total = sum(l.delivered for l in listeners)
        assert total == 500 * 4, total
        return total

    assert benchmark.pedantic(run, rounds=1, iterations=1) == 2000


def test_view_change_turnaround(benchmark):
    """Simulated time for one join-triggered view change in a 4-member HWG."""

    def run():
        env, stacks, endpoints, listeners = build_group(4)
        addressing = stacks[0].addressing
        start = env.sim.now
        late = ProtocolStack(env, "late", addressing)
        endpoint = late.endpoint("g", Counter())
        endpoint.join()
        while not (
            endpoint.current_view is not None
            and all(
                e.current_view is not None
                and e.current_view.view_id == endpoint.current_view.view_id
                for e in endpoints
            )
        ):
            if not env.sim.step():
                raise AssertionError("join never completed")
        return (env.sim.now - start) / 1000.0

    turnaround_ms = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        format_table(
            "Substrate — join-triggered view change turnaround",
            ["metric", "value"],
            [["join-to-common-view (simulated)", f"{turnaround_ms:.1f} ms"]],
        )
    )
    assert turnaround_ms < 2000


def test_simulator_event_throughput(benchmark):
    """Raw event-loop speed: schedule/dispatch of 100k no-op events."""

    def run():
        sim = Simulation()
        count = 100_000
        for i in range(count):
            sim.schedule(i, lambda: None)
        return sim.run()

    assert benchmark(run) == 100_000


def test_view_change_cost_vs_group_size(benchmark):
    """Flush/view-change turnaround as the HWG grows (4 -> 16 members).

    View changes are the substrate's scarce resource — the LWG service
    exists to amortise them — so their cost growth with group size is
    the background against which sharing pays off.
    """
    from repro.metrics import series_table

    sizes = (4, 8, 16)

    def run():
        results = []
        for n in sizes:
            env, stacks, endpoints, _ = build_group(n, seed=SEED + n)
            addressing = stacks[0].addressing
            start = env.sim.now
            late = ProtocolStack(env, "zlate", addressing)
            endpoint = late.endpoint("g", Counter())
            endpoint.join()
            while not (
                endpoint.current_view is not None
                and all(
                    e.current_view is not None
                    and e.current_view.view_id == endpoint.current_view.view_id
                    for e in endpoints
                )
            ):
                if not env.sim.step():
                    raise AssertionError(f"join never completed at n={n}")
            results.append((env.sim.now - start) / 1000.0)
        return results

    turnarounds = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        series_table(
            "Substrate — join-triggered view change vs HWG size",
            "members",
            list(sizes),
            {"turnaround": turnarounds},
            unit="ms",
        )
    )
    # Sub-quadratic growth: the flush is linear in members (one
    # state+fill+done exchange each) plus shared-medium serialization.
    assert turnarounds[-1] < 8 * turnarounds[0]
