"""Unit tests for the Figure-5 merge manager and the reconciliation
handler, driven through a fake service."""

from typing import List

from repro.core.mapping_table import LwgState, MappingTable
from repro.core.merge import MergeManager, ReconciliationHandler
from repro.core.messages import AllViewsMsg, MergeViewsMsg
from repro.naming.messages import MultipleMappings
from repro.naming.records import MappingRecord
from repro.vsync.view import View, ViewId


class FakeEndpoint:
    def __init__(self):
        self.refreshes = 0

    def force_refresh(self):
        self.refreshes += 1


class FakeTimerHandle:
    def cancel(self):
        pass


class FakeStack:
    """Collects timers so tests can fire them manually."""

    def __init__(self):
        self.timers: List[tuple] = []

    def set_timer(self, delay, callback):
        self.timers.append((delay, callback))
        return FakeTimerHandle()


class FakeNaming:
    """The version-clock + unset surface the disown path writes through."""

    def __init__(self):
        self.version = 0
        self.unset_records: List[MappingRecord] = []

    def next_version(self):
        self.version += 1
        return self.version

    def observe_version(self, version):
        self.version = max(self.version, version)

    def unset(self, record):
        self.unset_records.append(record)


class FakeService:
    """The narrow surface MergeManager/ReconciliationHandler need."""

    def __init__(self, node="p0"):
        self.node = node
        self.table = MappingTable()
        self.sent: List[tuple] = []
        self.installed: List[View] = []
        self.switches: List[tuple] = []
        self.registered: List[str] = []
        self.naming = FakeNaming()
        self.endpoint = FakeEndpoint()
        self.stack = FakeStack()

    def register_mapping(self, local):
        self.registered.append(local.lwg)

    def hwg_send(self, hwg, message):
        self.sent.append((hwg, message))

    def hwg_endpoint(self, hwg):
        return self.endpoint

    def install_local_view(self, local, view, reason):
        local.ancestors.advance(local.view, view)
        local.view = view
        self.installed.append(view)

    def start_switch(self, local, to_hwg, reason):
        self.switches.append((local.lwg, to_hwg, reason))

    def trace(self, event, **fields):
        pass


def make_local(service, lwg, view, hwg="hwg:x"):
    local = service.table.ensure_local(lwg, object())
    local.state = LwgState.MEMBER
    local.view = view
    local.hwg = hwg
    return local


def view_of(lwg, coord, seq, *members, parents=()):
    return View(lwg, ViewId(coord, seq), tuple(members), tuple(parents))


# ----------------------------------------------------------------------
# MergeManager
# ----------------------------------------------------------------------
def test_trigger_multicasts_merge_views_once_per_round():
    service = FakeService()
    manager = MergeManager(service)
    manager.trigger("hwg:x", "lwg:a")
    manager.trigger("hwg:x", "lwg:a")
    merge_msgs = [m for _, m in service.sent if isinstance(m, MergeViewsMsg)]
    assert len(merge_msgs) == 1


def test_on_merge_views_answers_with_local_views_and_forces_flush():
    service = FakeService()
    manager = MergeManager(service)
    mine = view_of("lwg:a", "p0", 1, "p0", "p1")
    make_local(service, "lwg:a", mine)
    manager.on_merge_views("hwg:x", MergeViewsMsg(lwg="lwg:a"))
    all_views = [m for _, m in service.sent if isinstance(m, AllViewsMsg)]
    assert len(all_views) == 1
    assert all_views[0].views == (mine,)
    assert service.endpoint.refreshes == 1
    # A second MERGE-VIEWS in the same round answers nothing new.
    manager.on_merge_views("hwg:x", MergeViewsMsg(lwg="lwg:a"))
    assert len([m for _, m in service.sent if isinstance(m, AllViewsMsg)]) == 1


def test_flush_point_merges_concurrent_views():
    service = FakeService()
    manager = MergeManager(service)
    mine = view_of("lwg:a", "p0", 1, "p0", "p1")
    local = make_local(service, "lwg:a", mine)
    foreign = view_of("lwg:a", "p5", 1, "p5", "p6")
    manager.on_all_views(
        "hwg:x", AllViewsMsg(lwg="lwg:a", sender="p5", views=(foreign, mine))
    )
    hwg_view = view_of("hwg:x", "p0", 9, "p0", "p1", "p5", "p6")
    manager.on_hwg_view("hwg:x", hwg_view)
    assert len(service.installed) == 1
    merged = service.installed[0]
    assert set(merged.members) == {"p0", "p1", "p5", "p6"}
    assert set(merged.parents) == {mine.view_id, foreign.view_id}
    assert manager.merges_completed == 1


def test_flush_point_skips_views_with_dead_members():
    service = FakeService()
    manager = MergeManager(service)
    mine = view_of("lwg:a", "p0", 1, "p0", "p1")
    make_local(service, "lwg:a", mine)
    ghost = view_of("lwg:a", "p5", 1, "p5", "dead")
    manager.on_all_views(
        "hwg:x", AllViewsMsg(lwg="lwg:a", sender="p5", views=(ghost, mine))
    )
    hwg_view = view_of("hwg:x", "p0", 9, "p0", "p1", "p5")  # "dead" not alive
    manager.on_hwg_view("hwg:x", hwg_view)
    assert service.installed == []  # only our own view survived the filter


def test_view_installed_mid_round_joins_the_collected_set():
    """A LwgViewMsg ordered between ALL-VIEWS and the flush is common
    knowledge and must take part in the merge (observe_view)."""
    service = FakeService()
    manager = MergeManager(service)
    old = view_of("lwg:a", "p0", 1, "p0")
    local = make_local(service, "lwg:a", old)
    foreign = view_of("lwg:a", "p5", 1, "p5")
    manager.on_merge_views("hwg:x", MergeViewsMsg(lwg="lwg:a"))  # round opens
    manager.on_all_views("hwg:x", AllViewsMsg(lwg="lwg:a", sender="p5", views=(foreign,)))
    # A racing view installation arrives in the same total order.
    newer = view_of("lwg:a", "p0", 2, "p0", "p1", parents=(old.view_id,))
    manager.observe_view("hwg:x", newer)
    local.ancestors.advance(old, newer)
    local.view = newer
    manager.on_hwg_view("hwg:x", view_of("hwg:x", "p0", 9, "p0", "p1", "p5"))
    assert len(service.installed) == 1
    merged = service.installed[0]
    # The stale predecessor was filtered; the newer view merged.
    assert set(merged.parents) == {newer.view_id, foreign.view_id}


def test_observe_view_ignored_outside_active_round():
    service = FakeService()
    manager = MergeManager(service)
    manager.observe_view("hwg:x", view_of("lwg:a", "p0", 1, "p0"))
    assert manager._collected == {}


def test_lone_surviving_successor_is_adopted():
    """A laggard whose peers already merged must catch up: the round
    leaves one candidate that supersedes our view — adopt it."""
    service = FakeService()
    manager = MergeManager(service)
    mine = view_of("lwg:a", "p0", 1, "p0", "p1")
    make_local(service, "lwg:a", mine)
    merged_elsewhere = view_of(
        "lwg:a", "p0", 99, "p0", "p1", "p5", parents=(mine.view_id,)
    )
    manager.on_all_views(
        "hwg:x",
        AllViewsMsg(lwg="lwg:a", sender="p5", views=(merged_elsewhere, mine)),
    )
    manager.on_hwg_view("hwg:x", view_of("hwg:x", "p0", 9, "p0", "p1", "p5"))
    assert service.installed == [merged_elsewhere]


def test_deferred_requests_buffer_and_drain():
    service = FakeService()
    manager = MergeManager(service)
    manager.trigger("hwg:x", "lwg:a")
    assert manager.round_active("hwg:x")
    manager.defer("hwg:x", "join", "req1")
    manager.defer("hwg:x", "leave", "req2")
    assert manager.take_deferred("hwg:x") == [("join", "req1"), ("leave", "req2")]
    assert manager.take_deferred("hwg:x") == []
    manager.on_hwg_view("hwg:x", view_of("hwg:x", "p0", 9, "p0"))
    assert not manager.round_active("hwg:x")


def test_stale_collected_views_are_filtered():
    service = FakeService()
    manager = MergeManager(service)
    old = view_of("lwg:a", "p0", 1, "p0")
    current = view_of("lwg:a", "p0", 2, "p0", "p1", parents=(old.view_id,))
    local = make_local(service, "lwg:a", current)
    local.ancestors.advance(old, current)
    manager.on_all_views(
        "hwg:x", AllViewsMsg(lwg="lwg:a", sender="p9", views=(old, current))
    )
    manager.on_hwg_view("hwg:x", view_of("hwg:x", "p0", 9, "p0", "p1"))
    assert service.installed == []  # ancestor is not concurrent: no merge


def test_collected_state_clears_per_round():
    service = FakeService()
    manager = MergeManager(service)
    mine = view_of("lwg:a", "p0", 1, "p0")
    make_local(service, "lwg:a", mine)
    foreign = view_of("lwg:a", "p5", 1, "p5")
    manager.on_all_views("hwg:x", AllViewsMsg(lwg="lwg:a", sender="p5", views=(foreign,)))
    manager.on_hwg_view("hwg:x", view_of("hwg:x", "p0", 9, "p0", "p5"))
    installed_first = len(service.installed)
    # Next flush with nothing collected merges nothing more.
    manager.on_hwg_view("hwg:x", view_of("hwg:x", "p0", 10, "p0", "p5"))
    assert len(service.installed) == installed_first


def test_all_views_revealing_concurrency_retriggers():
    service = FakeService()
    manager = MergeManager(service)
    mine = view_of("lwg:a", "p0", 1, "p0")
    make_local(service, "lwg:a", mine, hwg="hwg:x")
    foreign = view_of("lwg:a", "p5", 1, "p5")
    manager.on_all_views("hwg:x", AllViewsMsg(lwg="lwg:a", sender="p5", views=(foreign,)))
    merge_msgs = [m for _, m in service.sent if isinstance(m, MergeViewsMsg)]
    assert len(merge_msgs) == 1  # straggler discovery re-triggers the round


# ----------------------------------------------------------------------
# ReconciliationHandler
# ----------------------------------------------------------------------
def record_for(view, hwg, version=1):
    return MappingRecord(
        lwg=view.group, lwg_view=view.view_id, lwg_members=view.members,
        hwg=hwg, hwg_view=ViewId("h", 1), version=version, writer=view.members[0],
    )


def test_coordinator_switches_to_highest_gid():
    service = FakeService(node="p0")
    handler = ReconciliationHandler(service)
    mine = view_of("lwg:a", "p0", 1, "p0", "p1")
    make_local(service, "lwg:a", mine, hwg="hwg:aaa")
    foreign = view_of("lwg:a", "p5", 1, "p5")
    message = MultipleMappings(
        lwg="lwg:a",
        records=(record_for(mine, "hwg:aaa"), record_for(foreign, "hwg:zzz")),
    )
    handler.on_multiple_mappings(message)
    assert service.switches == [("lwg:a", "hwg:zzz", "reconciliation")]


def test_winner_keeps_its_mapping():
    service = FakeService(node="p0")
    handler = ReconciliationHandler(service)
    mine = view_of("lwg:a", "p0", 1, "p0", "p1")
    make_local(service, "lwg:a", mine, hwg="hwg:zzz")
    foreign = view_of("lwg:a", "p5", 1, "p5")
    message = MultipleMappings(
        lwg="lwg:a",
        records=(record_for(mine, "hwg:zzz"), record_for(foreign, "hwg:aaa")),
    )
    handler.on_multiple_mappings(message)
    assert service.switches == []


def test_non_coordinator_ignores_callback():
    service = FakeService(node="p1")  # member but not coordinator
    handler = ReconciliationHandler(service)
    mine = view_of("lwg:a", "p0", 1, "p0", "p1")
    make_local(service, "lwg:a", mine, hwg="hwg:aaa")
    message = MultipleMappings(lwg="lwg:a", records=(record_for(mine, "hwg:aaa"),))
    handler.on_multiple_mappings(message)
    assert service.switches == []


def test_callback_about_superseded_view_ignored():
    service = FakeService(node="p0")
    handler = ReconciliationHandler(service)
    current = view_of("lwg:a", "p0", 2, "p0", "p1")
    make_local(service, "lwg:a", current, hwg="hwg:aaa")
    stale = view_of("lwg:a", "p0", 1, "p0")
    message = MultipleMappings(
        lwg="lwg:a",
        records=(record_for(stale, "hwg:aaa"), record_for(stale, "hwg:zzz", 2)),
    )
    handler.on_multiple_mappings(message)
    assert service.switches == []
    # Both records cite a view only p0 could have minted and no longer
    # operates: the coordinator disowns them — re-planting its beacon
    # first, since one of them pointed at the HWG the live branch is on.
    assert service.registered == ["lwg:a"]
    disowned = {(r.lwg_view, r.hwg) for r in service.naming.unset_records}
    assert disowned == {(stale.view_id, "hwg:aaa"), (stale.view_id, "hwg:zzz")}
    assert all(r.deleted for r in service.naming.unset_records)


def test_member_leaves_its_own_stale_view_on_the_live_hwg_alone():
    # p1 minted view p1#1, then p0's view p0#2 (which p1 joined)
    # superseded it.  A record citing p1#1 on the live branch's HWG may
    # be the branch's only beacon: p1 is not the coordinator, so it
    # cannot re-plant one and must not retire it; the off-HWG record of
    # the same view is still disowned.
    service = FakeService(node="p1")
    handler = ReconciliationHandler(service)
    current = view_of("lwg:a", "p0", 2, "p0", "p1")
    make_local(service, "lwg:a", current, hwg="hwg:aaa")
    stale = view_of("lwg:a", "p1", 1, "p1")
    message = MultipleMappings(
        lwg="lwg:a",
        records=(record_for(stale, "hwg:aaa"), record_for(stale, "hwg:zzz", 2)),
    )
    handler.on_multiple_mappings(message)
    assert service.registered == []
    assert [(r.lwg_view, r.hwg) for r in service.naming.unset_records] == [
        (stale.view_id, "hwg:zzz")
    ]


def test_winner_buries_unresponsive_loser_after_persistent_conflict():
    """A dead fork's record can outlive every authority that could
    retire it: its coordinator crashed for good, the winner never merged
    with it (not an ancestor), and it wasn't minted here.  After
    PERSISTENT_CONFLICT_ROUNDS identical callbacks the winning
    coordinator buries it with the weakest tombstone."""
    from repro.core.merge import PERSISTENT_CONFLICT_ROUNDS

    service = FakeService(node="p0")
    handler = ReconciliationHandler(service)
    mine = view_of("lwg:a", "p0", 1, "p0", "p1")
    make_local(service, "lwg:a", mine, hwg="hwg:zzz")
    dead_fork = view_of("lwg:a", "p4", 4, "p4")
    message = MultipleMappings(
        lwg="lwg:a",
        records=(record_for(mine, "hwg:zzz"), record_for(dead_fork, "hwg:aaa", 7)),
    )
    for _ in range(PERSISTENT_CONFLICT_ROUNDS - 1):
        handler.on_multiple_mappings(message)
    assert service.naming.unset_records == []  # still waiting it out
    handler.on_multiple_mappings(message)
    assert service.switches == []  # the winner never switches
    assert handler.branches_buried == 1
    [tomb] = service.naming.unset_records
    assert tomb.deleted
    # Weakest tombstone: same version and writer as the buried record,
    # so any later write by a live branch overrides the burial.
    assert (tomb.lwg_view, tomb.hwg, tomb.version) == (dead_fork.view_id, "hwg:aaa", 7)


def test_changing_loser_set_resets_the_burial_countdown():
    from repro.core.merge import PERSISTENT_CONFLICT_ROUNDS

    service = FakeService(node="p0")
    handler = ReconciliationHandler(service)
    mine = view_of("lwg:a", "p0", 1, "p0", "p1")
    make_local(service, "lwg:a", mine, hwg="hwg:zzz")
    fork_a = view_of("lwg:a", "p4", 4, "p4")
    fork_b = view_of("lwg:a", "p5", 2, "p5")
    msg_a = MultipleMappings(
        lwg="lwg:a",
        records=(record_for(mine, "hwg:zzz"), record_for(fork_a, "hwg:aaa")),
    )
    msg_b = MultipleMappings(
        lwg="lwg:a",
        records=(record_for(mine, "hwg:zzz"), record_for(fork_b, "hwg:bbb")),
    )
    # A progressing conflict (loser set changes) never reaches burial.
    for _ in range(PERSISTENT_CONFLICT_ROUNDS):
        handler.on_multiple_mappings(msg_a)
        handler.on_multiple_mappings(msg_b)
    assert handler.branches_buried == 0
    assert service.naming.unset_records == []


def test_mid_switch_callback_deferred():
    service = FakeService(node="p0")
    handler = ReconciliationHandler(service)
    mine = view_of("lwg:a", "p0", 1, "p0", "p1")
    local = make_local(service, "lwg:a", mine, hwg="hwg:aaa")
    local.switch_epoch = 7  # already switching
    foreign = view_of("lwg:a", "p5", 1, "p5")
    message = MultipleMappings(
        lwg="lwg:a",
        records=(record_for(mine, "hwg:aaa"), record_for(foreign, "hwg:zzz")),
    )
    handler.on_multiple_mappings(message)
    assert service.switches == []


def test_wedged_round_retries_via_timer():
    """A lost MERGE-VIEWS must not suppress future rounds forever."""
    service = FakeService()
    manager = MergeManager(service)
    manager.trigger("hwg:x", "lwg:a")
    assert manager.round_active("hwg:x")
    merge_count = len([m for _, m in service.sent if isinstance(m, MergeViewsMsg)])
    # No flush happens; the retry timer fires.
    delay, retry = service.stack.timers[0]
    retry()
    assert len([m for _, m in service.sent if isinstance(m, MergeViewsMsg)]) == merge_count + 1
    assert manager.round_active("hwg:x")


def test_retry_timer_noop_after_flush():
    service = FakeService()
    manager = MergeManager(service)
    manager.trigger("hwg:x", "lwg:a")
    manager.on_hwg_view("hwg:x", view_of("hwg:x", "p0", 9, "p0"))
    before = len(service.sent)
    delay, retry = service.stack.timers[0]
    retry()
    assert len(service.sent) == before  # round completed: no re-trigger


def test_retry_timer_armed_with_round_retry_delay():
    service = FakeService()
    manager = MergeManager(service)
    manager.trigger("hwg:x", "lwg:a")
    delay, _ = service.stack.timers[0]
    assert delay == MergeManager.ROUND_RETRY_US


def test_stale_retry_token_cannot_reset_a_newer_round():
    """A retry armed for round N fires after the flush completed N and a
    new round N+1 opened: the stale token must leave N+1 untouched."""
    service = FakeService()
    manager = MergeManager(service)
    manager.trigger("hwg:x", "lwg:a")
    _, stale_retry = service.stack.timers[0]
    manager.on_hwg_view("hwg:x", view_of("hwg:x", "p0", 9, "p0"))  # N flushes
    manager.trigger("hwg:x", "lwg:b")  # round N+1
    merges = lambda: len([m for _, m in service.sent if isinstance(m, MergeViewsMsg)])
    before = merges()
    stale_retry()
    assert merges() == before  # no duplicate MERGE-VIEWS
    assert manager.round_active("hwg:x")  # N+1 still running, not reset
    assert manager.merge_rounds == 2


def test_merge_rounds_counts_rounds_not_suppressed_triggers():
    service = FakeService()
    manager = MergeManager(service)
    manager.trigger("hwg:x", "lwg:a")
    manager.trigger("hwg:x", "lwg:b")  # suppressed: round already open
    assert manager.merge_rounds == 1
    _, retry = service.stack.timers[0]
    retry()  # a wedged-round retry is a fresh round
    assert manager.merge_rounds == 2
    manager.on_hwg_view("hwg:x", view_of("hwg:x", "p0", 9, "p0"))
    manager.trigger("hwg:y", "lwg:a")  # independent HWG
    assert manager.merge_rounds == 3
