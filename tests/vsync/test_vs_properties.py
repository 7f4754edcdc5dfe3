"""Property-based tests of the virtual-synchrony guarantees.

Random partition schedules and traffic are generated with hypothesis;
after every run the trace of (view, delivered-messages) histories is
checked against the classic invariants:

* **agreement on delivery prefix** — two processes that install the same
  view V and then both install the same successor V' delivered the same
  set of messages between V and V';
* **self-inclusion** — every installed view contains the installer;
* **no duplicate delivery** — per (sender, payload-id), at most one
  delivery per process;
* **genealogy sanity** — a process's consecutive views are connected by
  parent edges.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st


from repro.sim import SECOND, SimRuntime
from repro.vsync import HwgListener


class HistoryListener(HwgListener):
    """Records the full interleaved history of views and deliveries."""

    def __init__(self, node):
        self.node = node
        self.history = []  # ("view", View) | ("data", (src, payload))

    def on_view(self, group, view):
        self.history.append(("view", view))

    def on_data(self, group, src, payload, size):
        self.history.append(("data", (src, payload)))


def segments(history):
    """Split a history into {view_id: (view, frozenset(messages))}."""
    out = {}
    current = None
    bucket = []
    for kind, item in history:
        if kind == "view":
            if current is not None:
                out[current.view_id] = (current, frozenset(bucket))
            current = item
            bucket = []
        else:
            bucket.append(item)
    if current is not None:
        out[current.view_id] = (current, frozenset(bucket))
    return out


def successor_pairs(history):
    """(view_id, next_view_id) pairs in installation order."""
    ids = [item.view_id for kind, item in history if kind == "view"]
    return list(zip(ids, ids[1:]))


PARTITION_CHOICES = [
    [["p0", "p1"], ["p2", "p3"]],
    [["p0", "p2"], ["p1", "p3"]],
    [["p0"], ["p1", "p2", "p3"]],
    [["p0", "p1", "p2"], ["p3"]],
]


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    schedule=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # partition choice
            st.integers(min_value=600_000, max_value=2_000_000),  # hold time
            st.lists(st.integers(min_value=0, max_value=3), max_size=4),  # senders
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_virtual_synchrony_under_random_partitions(seed, schedule):
    env = SimRuntime.create(seed=seed)
    from repro.vsync import GroupAddressing, ProtocolStack

    addressing = GroupAddressing()
    stacks = [ProtocolStack(env, f"p{i}", addressing) for i in range(4)]
    listeners = [HistoryListener(s.node) for s in stacks]
    endpoints = [s.endpoint("g", listeners[i]) for i, s in enumerate(stacks)]
    for endpoint in endpoints:
        endpoint.join()
    env.sim.run_until(3 * SECOND)
    payload_counter = 0
    for choice, hold_us, senders in schedule:
        env.network.set_partitions(PARTITION_CHOICES[choice])
        for sender in senders:
            payload_counter += 1
            endpoints[sender].send(("m", sender, payload_counter))
        env.sim.run_until(env.sim.now + hold_us)
        env.network.heal()
        env.sim.run_until(env.sim.now + 2 * SECOND)
    env.sim.run_until(env.sim.now + 4 * SECOND)

    histories = {l.node: l.history for l in listeners}
    # Self-inclusion.
    for node, history in histories.items():
        for kind, item in history:
            if kind == "view":
                assert node in item.members, f"{node} installed a view excluding itself"
    # No duplicate delivery per process.
    for node, history in histories.items():
        messages = [item for kind, item in history if kind == "data"]
        assert len(messages) == len(set(messages)), f"duplicate delivery at {node}"
    # Agreement on messages between identical consecutive views.
    segs = {node: segments(history) for node, history in histories.items()}
    pairs = {node: successor_pairs(history) for node, history in histories.items()}
    nodes = list(histories)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            shared = set(pairs[a]) & set(pairs[b])
            for view_id, _next in shared:
                _, msgs_a = segs[a][view_id]
                _, msgs_b = segs[b][view_id]
                assert msgs_a == msgs_b, (
                    f"{a} and {b} disagree on messages in view {view_id}: "
                    f"{msgs_a ^ msgs_b}"
                )
    # Genealogy: consecutive local views are linked by parent edges.
    for node, history in histories.items():
        views = [item for kind, item in history if kind == "view"]
        for previous, nxt in zip(views, views[1:]):
            assert previous.view_id in nxt.parents, (
                f"{node}: view {nxt.view_id} does not descend from {previous.view_id}"
            )
