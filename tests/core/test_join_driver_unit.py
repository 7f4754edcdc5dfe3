"""Unit tests for the JoinDriver state machine (fake service)."""

from typing import List

from repro.core.join_leave import JoinDriver
from repro.core.mapping_table import LwgState, MappingTable
from repro.core.service import LwgService
from repro.core.messages import LwgJoinReq
from repro.naming.records import MappingRecord
from repro.vsync.membership import EndpointState
from repro.vsync.view import View, ViewId


class FakeEndpoint:
    def __init__(self, state=EndpointState.MEMBER, view=None):
        self.state = state
        self.current_view = view or View("hwg:x", ViewId("p0", 1), ("p0",))


class FakeNaming:
    def __init__(self):
        self.reads: List = []
        self.testsets: List = []
        self._version = 0

    def next_version(self):
        self._version += 1
        return self._version

    def read(self, lwg, on_reply):
        self.reads.append((lwg, on_reply))

    def testset(self, record, parents=(), on_reply=None):
        self.testsets.append((record, on_reply))


class FakeStackTimer:
    def __init__(self):
        self.pending = True

    def cancel(self):
        self.pending = False


class FakeStack:
    def __init__(self):
        self.timers: List = []
        self._seq = 0

    def set_timer(self, delay, callback):
        self.timers.append((delay, callback))
        return FakeStackTimer()

    def next_view_seq(self):
        self._seq += 1
        return self._seq


class FakeService:
    def __init__(self, node="p9"):
        self.node = node
        self.naming = FakeNaming()
        self.stack = FakeStack()
        self.table = MappingTable()
        self.endpoints = {}
        self.sent = []
        self.adopted = []
        self._hwg_counter = 0

        class _Policy:
            def choose(inner, lwg, svc):
                return None  # always mint fresh

        self.mapping_policy = _Policy()

    def mint_hwg_id(self):
        self._hwg_counter += 1
        return f"hwg:{self.node}:{self._hwg_counter:06d}"

    def ensure_hwg(self, hwg):
        return self.endpoints.setdefault(hwg, FakeEndpoint())

    def hwg_endpoint(self, hwg):
        return self.endpoints.get(hwg)

    def hwg_send(self, hwg, message):
        self.sent.append((hwg, message))

    # The real record builder: it only reads ``node`` and ``naming``.
    mapping_record = LwgService.mapping_record

    def adopt_created_view(self, local, view, hwg):
        """Stands in for ``JoinLeaveManager.adopt_created_view``, the
        callback the driver is built with."""
        self.adopted.append((view, hwg))

    def trace(self, event, **fields):
        pass


def record(lwg, view_id, hwg, members=("pX",), deleted=False):
    return MappingRecord(
        lwg=lwg, lwg_view=view_id, lwg_members=members, hwg=hwg,
        hwg_view=ViewId("h", 1), version=1, writer="pX", deleted=deleted,
    )


def make_driver(node="p9"):
    service = FakeService(node)
    local = service.table.ensure_local("lwg:g", object())
    local.state = LwgState.JOINING
    driver = JoinDriver(service, local, service.adopt_created_view)
    return service, local, driver


def test_start_reads_naming():
    service, local, driver = make_driver()
    driver.start()
    assert service.naming.reads and service.naming.reads[0][0] == "lwg:g"


def test_existing_mapping_targets_highest_gid_hwg():
    service, local, driver = make_driver()
    driver.start()
    _, reply = service.naming.reads[0]
    reply([
        record("lwg:g", ViewId("a", 1), "hwg:aaa"),
        record("lwg:g", ViewId("b", 1), "hwg:zzz"),
    ])
    assert driver.mode == "join"
    assert driver.target_hwg == "hwg:zzz"
    # The endpoint was MEMBER: the join request went out immediately.
    requests = [m for _, m in service.sent if isinstance(m, LwgJoinReq)]
    assert len(requests) == 1 and requests[0].joiner == "p9"


def test_deleted_records_do_not_count_as_live():
    service, local, driver = make_driver()
    driver.start()
    _, reply = service.naming.reads[0]
    reply([record("lwg:g", ViewId("a", 1), "hwg:aaa", deleted=True)])
    assert driver.mode == "create"
    assert driver.target_hwg.startswith("hwg:p9:")


def test_empty_naming_creates_fresh_hwg_and_claims():
    service, local, driver = make_driver()
    driver.start()
    service.naming.reads[0][1]([])
    assert driver.mode == "create"
    # The claim proposed a singleton view via testset.
    assert service.naming.testsets
    proposed, reply = service.naming.testsets[0]
    assert proposed.lwg_members == ("p9",)
    # Winning the race adopts the created view.
    reply((proposed,))
    assert service.adopted and service.adopted[0][0].members == ("p9",)
    # (In the real service, the owner's adopt_created_view completes the driver.)


def test_losing_the_claim_race_follows_the_winner():
    service, local, driver = make_driver()
    driver.start()
    service.naming.reads[0][1]([])
    proposed, reply = service.naming.testsets[0]
    winner = record("lwg:g", ViewId("pW", 1), "hwg:winner")
    reply((winner,))
    assert driver.mode == "join"
    assert driver.target_hwg == "hwg:winner"
    assert not service.adopted


def test_redirect_retargets():
    service, local, driver = make_driver()
    driver.start()
    service.naming.reads[0][1]([record("lwg:g", ViewId("a", 1), "hwg:old")])
    sent_before = len(service.sent)
    driver.on_redirect("hwg:new")
    assert driver.target_hwg == "hwg:new"
    requests = [m for _, m in service.sent[sent_before:] if isinstance(m, LwgJoinReq)]
    assert len(requests) == 1


def test_claim_or_retry_resends_when_group_visible():
    service, local, driver = make_driver()
    driver.start()
    service.naming.reads[0][1]([record("lwg:g", ViewId("a", 1), "hwg:tgt")])
    # The directory records the LWG with a member that is actually in
    # the HWG's current view (an admitter): the claim timer re-asks.
    service.table.dir_for("hwg:tgt").record_view(
        View("lwg:g", ViewId("p0", 1), ("p0",))
    )
    claim_timer = service.stack.timers[-1]
    claim_timer[1]()
    requests = [m for _, m in service.sent if isinstance(m, LwgJoinReq)]
    assert len(requests) == 2


def test_claim_or_retry_restarts_from_naming_when_no_admitter():
    service, local, driver = make_driver()
    driver.start()
    service.naming.reads[0][1]([record("lwg:g", ViewId("a", 1), "hwg:tgt")])
    # The recorded members have all left the HWG ("pC" is not in the
    # endpoint's current view), so nobody can admit us: resending would
    # loop forever.  The driver escalates to a fresh naming read.
    service.table.dir_for("hwg:tgt").record_view(
        View("lwg:g", ViewId("pC", 1), ("pC",))
    )
    reads_before = len(service.naming.reads)
    claim_timer = service.stack.timers[-1]
    claim_timer[1]()
    requests = [m for _, m in service.sent if isinstance(m, LwgJoinReq)]
    assert len(requests) == 1  # no resend
    assert len(service.naming.reads) == reads_before + 1


def test_claim_or_retry_claims_when_group_gone():
    service, local, driver = make_driver()
    driver.start()
    service.naming.reads[0][1]([record("lwg:g", ViewId("a", 1), "hwg:tgt")])
    claim_timer = service.stack.timers[-1]
    claim_timer[1]()  # directory empty: the mapping is stale -> claim
    assert service.naming.testsets


def test_completion_cancels_everything():
    service, local, driver = make_driver()
    driver.start()
    service.naming.reads[0][1]([record("lwg:g", ViewId("a", 1), "hwg:tgt")])
    driver.complete()
    assert driver.done
    # Events after completion are ignored.
    driver.on_redirect("hwg:other")
    assert driver.target_hwg == "hwg:tgt"
