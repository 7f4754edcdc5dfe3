"""The seams of ``LwgService``: the exact-type routing table that hands
every ordered HWG message to its protocol owner, and what a crash wipes
or keeps across those owners."""

from repro.core import LwgConfig, messages
from repro.core.ids import lwg_id
from repro.core.messages import LwgMessage, MergeViewsMsg, RedirectLwg
from repro.sim import SECOND
from repro.workloads import Cluster


def concrete_messages():
    return {
        cls
        for cls in vars(messages).values()
        if isinstance(cls, type) and issubclass(cls, LwgMessage) and cls is not LwgMessage
    }


def converged(handles, size):
    views = [h.view for h in handles]
    return (
        all(v is not None for v in views)
        and len({v.view_id for v in views}) == 1
        and all(len(v.members) == size for v in views)
    )


def manual_cluster(n, seed):
    config = LwgConfig()
    config.enable_policies = False
    return Cluster(num_processes=n, seed=seed, lwg_config=config)


def test_every_ordered_message_has_exactly_one_handler():
    service = Cluster(num_processes=1, seed=3, checkers=False).service(0)
    # Exact-type lookup is only sound while no message subclasses another.
    for cls in concrete_messages():
        assert cls.__bases__ == (LwgMessage,), cls
    owners = [
        service.join_leave.handlers(),
        service.merge_mgr.handlers(),
        service.switching.handlers(),
    ]
    claimed = [cls for handlers in owners for cls in handlers]
    assert len(claimed) == len(set(claimed)), "two owners claim one message type"
    # Every message is routed, except the redirect, which is a unicast.
    assert set(service._handlers) == concrete_messages() - {RedirectLwg}


def test_unknown_payload_is_ignored_but_own_delivery_still_counts():
    cluster = Cluster(num_processes=2, seed=3, checkers=False)
    service = cluster.service(0)
    own = []
    service.packer.on_own_delivery = own.append
    service._on_hwg_data("hwg:x", service.node, object(), 8)
    service._on_hwg_data("hwg:x", cluster.node_id(1), object(), 8)
    assert own == ["hwg:x"]


def test_crash_of_a_switch_coordinator_rebuilds_routing_and_keeps_epochs_rising():
    cluster = manual_cluster(3, seed=41)
    handles = [cluster.service(i).join("g") for i in range(3)]
    assert cluster.run_until(lambda: converged(handles, 3), timeout_us=15 * SECOND)
    index = int(handles[0].view.members[0][1:])
    service = cluster.service(index)
    local = service.table.local(lwg_id("g"))
    # One committed switch, then a second one still in flight at the crash.
    service.start_switch(local, None, reason="test")
    first = service.switching.drivers[local.lwg].epoch
    old_hwg = local.hwg
    assert cluster.run_until(
        lambda: all(h.hwg != old_hwg for h in handles) and converged(handles, 3),
        timeout_us=30 * SECOND,
    )
    service.start_switch(local, None, reason="test")
    in_flight = service.switching.drivers[local.lwg].epoch
    assert in_flight > first
    old_merge = service.merge_mgr
    cluster.crash(index)
    assert service.switching.drivers == {}
    cluster.run_for(1 * SECOND)
    cluster.recover(index)
    cluster.run_for(1 * SECOND)
    # A MERGE-VIEWS delivered after recovery reaches the new MergeManager.
    assert service.merge_mgr is not old_merge
    hwg = handles[(index + 1) % 3].hwg
    service._on_hwg_data(hwg, cluster.node_id((index + 1) % 3), MergeViewsMsg(lwg="lwg:g"), 64)
    assert service.merge_mgr.round_active(hwg)
    assert not old_merge.round_active(hwg)
    # A switch coordinated after recovery never reuses a pre-crash epoch.
    fresh = service.join("solo")
    assert cluster.run_until(lambda: converged([fresh], 1), timeout_us=15 * SECOND)
    service.start_switch(service.table.local(lwg_id("solo")), None, reason="test")
    assert service.switching.drivers[lwg_id("solo")].epoch > in_flight
