"""Shared test helpers (importable as ``tests.helpers``)."""

from __future__ import annotations

from repro.sim import SECOND, SimRuntime
from repro.vsync import GroupAddressing, HwgListener, ProtocolStack


class RecordingListener(HwgListener):
    """HWG listener that records every upcall."""

    def __init__(self, node: str = ""):
        self.node = node
        self.views = []
        self.data = []
        self.stops = 0
        self.lefts = 0

    def on_view(self, group, view):
        self.views.append(view)

    def on_data(self, group, src, payload, size):
        self.data.append((src, payload))

    def on_stop(self, group, stop_ok):
        self.stops += 1
        stop_ok()

    def on_left(self, group):
        self.lefts += 1


def make_group(env: SimRuntime, n: int, group: str = "g", prefix: str = "p"):
    """n stacks, all joined to one HWG; returns (stacks, endpoints, listeners)."""
    addressing = GroupAddressing()
    stacks = [ProtocolStack(env, f"{prefix}{i}", addressing) for i in range(n)]
    listeners = [RecordingListener(s.node) for s in stacks]
    endpoints = [s.endpoint(group, listeners[i]) for i, s in enumerate(stacks)]
    for endpoint in endpoints:
        endpoint.join()
    return stacks, endpoints, listeners


def converged(endpoints, size: int) -> bool:
    """All endpoints share one view id with ``size`` members."""
    views = [e.current_view for e in endpoints]
    if any(v is None for v in views):
        return False
    ids = {v.view_id for v in views}
    return len(ids) == 1 and all(len(v.members) == size for v in views)


def run_until(env: SimRuntime, predicate, timeout_s: float = 10.0, step_us: int = 50_000) -> bool:
    deadline = env.sim.now + int(timeout_s * SECOND)
    while env.sim.now < deadline:
        if predicate():
            return True
        env.sim.run_until(min(deadline, env.sim.now + step_us))
    return predicate()


class CountingParents(dict):
    """A parent map that counts the lookups made through it."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)
