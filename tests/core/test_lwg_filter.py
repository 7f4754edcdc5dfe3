"""The per-entry LWG data filter (Section 3.1) and the data path's frame budget.

``LwgService._on_lwg_data`` runs once per delivered entry, and every
``Ordered`` crosses the same receive path from the fabric to its endpoint.
Both are kept free of Python frames that do no work; the frame-budget
tests count ``"call"`` events with ``sys.setprofile``, so they measure
work, not time, and cannot flake.  The filter tests pin that the lean
filter keeps the semantics it had.
"""

import sys

import pytest

from repro.core import LwgListener, LwgState
from repro.core.ids import lwg_id
from repro.core.messages import LwgBatch, LwgData
from repro.sim import SECOND, Simulation
from repro.sim.network import Network
from repro.vsync.hwg import HwgEndpoint
from repro.vsync.messages import Ordered
from repro.vsync.view import ViewId
from repro.workloads import Cluster

LWG = lwg_id("g")


class Recorder(LwgListener):
    def __init__(self):
        self.data = []

    def on_data(self, lwg, src, payload, size):
        self.data.append((src, payload))


def member_pair(listener=None):
    """A converged two-member LWG; returns (cluster, p1's service, p1's local)."""
    cluster = Cluster(num_processes=2, seed=5, keep_trace=False, checkers=False)
    handles = [cluster.service(i).join("g", listener if i == 1 else None) for i in range(2)]

    def converged():
        views = [h.view for h in handles]
        return all(v is not None and len(v.members) == 2 for v in views) and (
            views[0].view_id == views[1].view_id
        )

    assert cluster.run_until(converged, timeout_us=10 * SECOND)
    service = cluster.service(1)
    return cluster, service, service.table.local(LWG)


def entry(local, payload, view_id=None):
    """Data from the view's coordinator, stamped with ``view_id``
    (default: the very ViewId object the local view holds)."""
    return LwgData(
        lwg=LWG,
        view_id=local.view.view_id if view_id is None else view_id,
        sender=local.view.members[0],
        payload=payload,
        payload_size=8,
    )


# -- frame budgets --------------------------------------------------------------


def frames_entered(fn, *args):
    """Code objects of the Python frames ``fn(*args)`` enters, in order
    (``fn``'s own first)."""
    entered = []

    def profile(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return entered


def test_batch_entries_cost_at_most_three_frames_each():
    _, service, local = member_pair()
    batch = LwgBatch(
        lwg=LWG,
        sender=local.view.members[0],
        batch_seq=1,
        entries=tuple(entry(local, i) for i in range(50)),
    )
    delivered = service.stats.data_delivered
    entered = frames_entered(service._on_lwg_batch, local.hwg, batch)
    assert service.stats.data_delivered == delivered + 50
    # Below ``_on_lwg_batch``, per entry: ``_on_lwg_data``,
    # ``Tracer.enabled`` and the (no-op) listener; the batch adds one
    # ``Tracer.enabled`` of its own.
    assert len(entered) - 1 <= 3 * 50 + 1


def test_ordered_delivery_enters_deliver_first_and_its_endpoint_within_six_frames():
    cluster, _, local = member_pair()
    sim = cluster.env.sim
    stack = cluster.stack(1)
    endpoint = stack.endpoints[local.hwg]
    view = endpoint.current_view
    # A duplicate of the last delivered sequence number: dispatched all
    # the way to the endpoint, then dropped by the channel.
    duplicate = Ordered(
        group=local.hwg,
        view_id=view.view_id,
        seq=endpoint.channel.delivered_upto,
        sender=view.members[0],
    )
    assert cluster.env.network.send(
        view.members[0], stack.node, duplicate, duplicate.size_bytes()
    )
    posted = sim._seq - 1
    while sim._queue[0][1] != posted:  # fire what is due before it
        assert sim.step()
    entered = frames_entered(sim.step)
    # The run loop fires the delivery's heap entry itself: the first
    # frame below ``Simulation.step`` is ``Network._deliver``.  Then
    # Process._network_deliver, ProtocolStack.on_message,
    # FailureDetector.on_heartbeat, ProtocolStack._dispatch and
    # HwgEndpoint.on_message: no handler that does not consume an
    # Ordered is offered one, and no time read or reachability test
    # enters a frame.
    assert entered[0] is Simulation.step.__code__
    assert entered[1] is Network._deliver.__code__
    target = HwgEndpoint.on_message.__code__
    assert entered.count(target) == 1
    assert entered.index(target) <= 6


# -- filter semantics -----------------------------------------------------------


def test_equal_but_not_identical_view_id_is_delivered():
    """What arrives through the asyncio codec: a decoded, equal ViewId."""
    recorder = Recorder()
    _, service, local = member_pair(recorder)
    held = local.view.view_id
    decoded = ViewId(held.coordinator, held.seq)
    assert decoded is not held
    delivered = service.stats.data_delivered
    service._on_lwg_data(local.hwg, entry(local, "decoded", view_id=decoded))
    assert recorder.data[-1] == (local.view.members[0], "decoded")
    assert service.stats.data_delivered == delivered + 1


@pytest.mark.parametrize("state", [LwgState.LEAVING, LwgState.IDLE])
def test_non_member_local_filters_data(state):
    recorder = Recorder()
    _, service, local = member_pair(recorder)
    seen = len(recorder.data)
    filtered = service.stats.data_filtered
    local.state = state
    service._on_lwg_data(local.hwg, entry(local, "dropped"))
    assert len(recorder.data) == seen
    assert service.stats.data_filtered == filtered + 1


def test_data_on_a_foreign_hwg_is_filtered():
    recorder = Recorder()
    _, service, local = member_pair(recorder)
    seen = len(recorder.data)
    filtered = service.stats.data_filtered
    service._on_lwg_data("hwg:elsewhere", entry(local, "dropped"))
    assert len(recorder.data) == seen
    assert service.stats.data_filtered == filtered + 1


def test_state_transfer_buffers_data_only_for_the_awaited_view():
    recorder = Recorder()
    _, service, local = member_pair(recorder)
    held = local.view.view_id
    seen = len(recorder.data)
    local.awaiting_state_for = ViewId(held.coordinator, held.seq)  # equal, not identical
    service._on_lwg_data(local.hwg, entry(local, "held"))
    assert len(recorder.data) == seen
    assert local.state_buffer == [(local.view.members[0], "held", 8)]
    local.awaiting_state_for = ViewId("elsewhere", 99)
    service._on_lwg_data(local.hwg, entry(local, "live"))
    assert recorder.data[-1] == (local.view.members[0], "live")
    assert len(local.state_buffer) == 1
