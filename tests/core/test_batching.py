"""The data-path batch packer (PROTOCOLS.md §15): unit tests, plus one
end-to-end check that co-mapped traffic really coalesces on the fabric."""

from repro.core import LwgListener, batching
from repro.core.batching import BATCH_MAX_BYTES, BATCH_WINDOW_US, BatchPacker
from repro.core.messages import MIXED_BATCH, LwgBatch, LwgData
from repro.sim import SECOND
from repro.vsync.view import ViewId
from repro.workloads import Cluster


class FakeTimers:
    """Manual-fire timer service recording (delay, callback) pairs."""

    def __init__(self):
        self.armed = []

    def set_timer(self, delay, callback):
        self.armed.append((delay, callback))
        return object()

    def fire(self, index=0):
        _, callback = self.armed.pop(index)
        callback()


def data(lwg="lwg:a", sender="p0", size=100, payload="x"):
    return LwgData(
        lwg=lwg, view_id=ViewId("p0", 1), sender=sender,
        payload=payload, payload_size=size,
    )


class Channel:
    """Stand-in for ``OrderedChannel.pending``: HWGs with an own publish out."""

    def __init__(self, *busy):
        self.busy = set(busy)

    def in_flight(self, hwg):
        return hwg in self.busy


def make_packer(timers, sent, window_us=1000, max_bytes=400, channel=None):
    return BatchPacker(
        node="p0",
        transmit=lambda hwg, msg: sent.append((hwg, msg)),
        set_timer=timers.set_timer,
        in_flight=(channel or Channel()).in_flight,
        window_us=window_us,
        max_bytes=max_bytes,
    )


def both_timers(check):
    """Run ``check(channel)`` twice: the flush rules it states hold whichever
    timer the enqueue armed — end of instant (idle HWG) or the window (own
    publish in flight)."""

    def test():
        check(Channel())
        check(Channel("h1"))

    test.__name__, test.__doc__ = check.__name__, check.__doc__
    return test


def test_idle_enqueue_flushes_at_the_end_of_the_instant():
    timers, sent = FakeTimers(), []
    packer = make_packer(timers, sent)
    packer.enqueue("h1", data(payload="a"))
    assert sent == [] and [delay for delay, _ in timers.armed] == [0]
    # A second send in the same instant joins the same flush.
    packer.enqueue("h1", data(payload="b"))
    assert len(timers.armed) == 1
    timers.fire()
    assert [[e.payload for e in msg.entries] for _, msg in sent] == [["a", "b"]]


def test_enqueue_behind_an_own_publish_waits_for_the_window():
    timers, sent = FakeTimers(), []
    packer = make_packer(timers, sent, channel=Channel("h1"))
    packer.enqueue("h1", data(payload="a"))
    packer.enqueue("h2", data(payload="b"))  # h2 is idle
    assert [delay for delay, _ in timers.armed] == [1000, 0]


def test_own_delivery_flushes_once_nothing_is_in_flight():
    timers, sent = FakeTimers(), []
    channel = Channel("h1")
    packer = make_packer(timers, sent, channel=channel)
    packer.enqueue("h1", data(payload="a"))
    packer.enqueue("h1", data(payload="b"))
    packer.on_own_delivery("h1")  # an earlier publish is still out
    assert sent == []
    channel.busy.clear()
    packer.on_own_delivery("h1")
    assert [e.payload for e in sent[0][1].entries] == ["a", "b"]
    timers.fire()  # the window it no longer needs
    packer.on_own_delivery("h1")  # nothing held: no-op
    assert len(sent) == 1


@both_timers
def test_window_timer_flushes_batch(channel):
    timers, sent = FakeTimers(), []
    packer = make_packer(timers, sent, channel=channel)
    packer.enqueue("h1", data(payload="a"))
    packer.enqueue("h1", data(payload="b"))
    assert sent == [] and len(timers.armed) == 1
    timers.fire()
    assert len(sent) == 1
    batch = sent[0][1]
    assert isinstance(batch, LwgBatch)
    assert [e.payload for e in batch.entries] == ["a", "b"]


@both_timers
def test_byte_cap_flushes_immediately(channel):
    timers, sent = FakeTimers(), []
    packer = make_packer(timers, sent, max_bytes=150, channel=channel)
    packer.enqueue("h1", data(payload="a"))
    packer.enqueue("h1", data(payload="b"))  # 200 bytes >= cap
    assert len(sent) == 1


@both_timers
def test_byte_cap_flush_disarms_window_timer(channel):
    """Regression: a byte-cap flush must not leave the timer armed.

    Before the fix, the timer armed by the first enqueue survived a
    byte-cap flush; the next batch then inherited the stale deadline
    and was flushed early (silently shortening its window), and no new
    timer could be armed because the flag still read "armed".
    """
    timers, sent = FakeTimers(), []
    packer = make_packer(timers, sent, max_bytes=150, channel=channel)
    packer.enqueue("h1", data(payload="a"))  # arms timer
    packer.enqueue("h1", data(payload="b"))  # byte-cap flush
    assert len(sent) == 1
    # Start the next batch: it must get a *fresh* timer.
    packer.enqueue("h1", data(payload="c"))
    assert len(timers.armed) == 2
    # The stale timer fires: it must not flush the new batch early.
    timers.fire(0)
    assert len(sent) == 1
    assert packer.pending_entries("h1") == 1
    # The fresh timer flushes it at its own deadline.
    timers.fire(0)
    assert len(sent) == 2
    assert sent[1][1].payload == "c"  # singleton: bare LwgData


@both_timers
def test_control_flush_disarms_window_timer(channel):
    """``flush`` is what ``hwg_send`` (control first) and ``on_stop`` call."""
    timers, sent = FakeTimers(), []
    packer = make_packer(timers, sent, channel=channel)
    packer.enqueue("h1", data(payload="a"))
    packer.enqueue("h1", data(payload="b"))
    packer.flush("h1")
    assert len(sent) == 1
    packer.enqueue("h1", data(payload="c"))
    timers.fire(0)  # stale timer
    assert packer.pending_entries("h1") == 1
    timers.fire(0)  # fresh timer
    assert [e for _, e in sent[1:]] == [sent[1][1]]
    assert sent[1][1].payload == "c"


@both_timers
def test_reset_invalidates_armed_timers(channel):
    timers, sent = FakeTimers(), []
    packer = make_packer(timers, sent, channel=channel)
    packer.enqueue("h1", data(payload="a"))
    packer.reset()  # crash: buffer wiped, timer logically dead
    packer.enqueue("h1", data(payload="b"))
    timers.fire(0)  # pre-crash timer: stale, ignored
    assert sent == []
    assert packer.pending_entries("h1") == 1
    timers.fire(0)  # post-recovery timer
    assert len(sent) == 1
    assert sent[0][1].payload == "b"


def test_left_hwg_leaves_no_state_behind():
    timers, sent = FakeTimers(), []
    packer = make_packer(timers, sent)
    packer.enqueue("h1", data(payload="a"))
    packer.enqueue("h2", data(payload="b"))
    packer.flush("h2")
    packer.forget("h1")
    packer.forget("h2")
    assert packer._buffers == {}
    # The timer armed before the leave must not touch a later buffer.
    packer.enqueue("h1", data(payload="c"))
    timers.fire(0)
    assert len(sent) == 1 and packer.pending_entries("h1") == 1


def test_single_lwg_batch_keeps_its_label():
    timers, sent = FakeTimers(), []
    packer = make_packer(timers, sent)
    packer.enqueue("h1", data(lwg="lwg:a", payload="a1"))
    packer.enqueue("h1", data(lwg="lwg:a", payload="a2"))
    packer.flush("h1")
    batch = sent[0][1]
    assert batch.lwg == "lwg:a"
    assert batch.lwg_counts() == {"lwg:a": 2}


def test_mixed_lwg_batch_is_marked_mixed():
    """Regression: co-mapped LWGs coalesce; the batch must say so.

    Before the fix the batch was stamped with ``entries[0].lwg``, so
    per-LWG tracing attributed every entry of a mixed batch to whichever
    group happened to be buffered first.
    """
    timers, sent = FakeTimers(), []
    packer = make_packer(timers, sent)
    packer.enqueue("h1", data(lwg="lwg:b", payload="b1"))
    packer.enqueue("h1", data(lwg="lwg:a", payload="a1"))
    packer.enqueue("h1", data(lwg="lwg:b", payload="b2"))
    packer.flush("h1")
    batch = sent[0][1]
    assert batch.lwg == MIXED_BATCH
    assert batch.lwg_counts() == {"lwg:a": 1, "lwg:b": 2}
    # Entry order (= send order) is untouched by the labeling.
    assert [e.payload for e in batch.entries] == ["b1", "a1", "b2"]


def test_buffers_are_per_hwg():
    timers, sent = FakeTimers(), []
    packer = make_packer(timers, sent)
    packer.enqueue("h1", data(payload="a"))
    packer.enqueue("h2", data(payload="b"))
    assert len(timers.armed) == 2  # one window per HWG
    packer.flush("h1")
    assert len(sent) == 1 and sent[0][0] == "h1"
    assert packer.pending_entries("h2") == 1


def test_flush_all_covers_every_hwg():
    timers, sent = FakeTimers(), []
    packer = make_packer(timers, sent)
    packer.enqueue("h2", data(payload="b"))
    packer.enqueue("h1", data(payload="a"))
    packer.flush_all()
    assert [hwg for hwg, _ in sent] == ["h1", "h2"]


def comapped_traffic():
    """Six LWGs statically co-mapped on ONE HWG, every member chatty.

    The shape the paper's amortization argument lives on: each
    process's per-burst payloads (across all its LWGs) can share HWG
    multicasts instead of paying ``groups x burst_size`` of them.
    """
    cluster = Cluster(
        num_processes=4,
        seed=2000,
        flavour="static",
        keep_trace=False,
    )
    groups = [f"g{i}" for i in range(6)]
    for node in cluster.process_ids:
        for group in groups:
            cluster.services[node].join(group)
    cluster.run_for(8 * SECOND)
    for burst in range(25):
        for node in cluster.process_ids:
            for group in groups:
                for k in range(4):
                    cluster.services[node].send(group, f"m:{burst}:{k}")
        cluster.run_for(SECOND // 2)
    cluster.run_for(2 * SECOND)
    cluster.check_invariants()
    deliveries = sum(
        entry.delivered
        for service in cluster.services.values()
        for entry in service.table.locals.values()
    )
    return deliveries, cluster.env.network.messages_sent


def test_comapped_traffic_coalesces_on_the_fabric(monkeypatch):
    delivered_on, fabric_on = comapped_traffic()
    # A 1-byte cap flushes every enqueue: one bare LwgData per send().
    monkeypatch.setattr(batching, "BATCH_MAX_BYTES", 1)
    delivered_off, fabric_off = comapped_traffic()
    # 4 senders x 6 groups x 25 bursts x 4 sends, delivered at 4 members.
    assert delivered_on == delivered_off == 9_600
    # Measured 2 115 vs 13 193 fabric messages (0.160x).
    assert fabric_on <= 0.25 * fabric_off


# ----------------------------------------------------------------------
# The flush rule on a live cluster (sim-time exact)
# ----------------------------------------------------------------------
class Arrivals(LwgListener):
    """Records (sim time, sender, payload) of every delivery at one member."""

    def __init__(self, env):
        self.env = env
        self.log = []

    def on_data(self, lwg, src, payload, size):
        self.log.append((self.env.now, src, payload))

    def payloads(self):
        return [payload for _, _, payload in self.log]


def converged_group():
    """One converged 4-member LWG.

    Returns the cluster, each member's delivery log, the service of a
    member that sequences neither the LWG nor its HWG (its publishes
    make a full round trip), and that member's HWG endpoint.
    """
    cluster = Cluster(num_processes=4, seed=2000, keep_trace=False)
    arrivals = {node: Arrivals(cluster.env) for node in cluster.process_ids}
    handles = [cluster.services[node].join("g", arrivals[node]) for node in cluster.process_ids]
    assert cluster.run_until(
        lambda: all(h.view is not None and len(h.view.members) == 4 for h in handles),
        timeout_us=10 * SECOND,
    )
    cluster.run_for(2 * SECOND)
    hwg = handles[0].hwg
    sequencers = {
        handles[0].view.coordinator,
        cluster.stacks["p0"].endpoints[hwg].current_view.coordinator,
    }
    node = next(n for n in cluster.process_ids if n not in sequencers)
    return cluster, arrivals, cluster.services[node], cluster.stacks[node].endpoints[hwg]


def test_lone_send_pays_no_batch_window(monkeypatch):
    latencies = []
    for max_bytes in (BATCH_MAX_BYTES, 1):
        monkeypatch.setattr(batching, "BATCH_MAX_BYTES", max_bytes)
        cluster, arrivals, sender, _ = converged_group()
        sent_at = cluster.env.now
        sender.send("g", "m")
        cluster.run_for(SECOND)
        assert all(log.payloads() == ["m"] for log in arrivals.values())
        latencies.append(sorted(log.log[0][0] - sent_at for log in arrivals.values()))
    assert latencies[0] == latencies[1]
    assert latencies[0][-1] < BATCH_WINDOW_US


def test_same_instant_burst_leaves_as_one_batch():
    cluster, arrivals, sender, _ = converged_group()
    for k in range(50):
        sender.send("g", k)
    cluster.run_for(SECOND)
    assert sender.packer.batches_sent == 1 and sender.packer.entries_batched == 50
    assert sender.packer.singleton_flushes == 0
    assert all(log.payloads() == list(range(50)) for log in arrivals.values())


def test_sends_behind_an_own_publish_leave_when_it_returns():
    cluster, arrivals, sender, endpoint = converged_group()
    channel = endpoint.channel
    published, start = channel.my_send_seq, cluster.env.now
    for payload in ("a", "b", "c"):
        sender.send("g", payload)
        cluster.run_for(300)
    # "a" left alone at once and is still out; "b" and "c" wait behind it.
    assert channel.my_send_seq == published + 1
    assert sender.packer.pending_entries(endpoint.group) == 2
    # They are released by "a" coming home, before the window "b" armed at
    # +300 us runs out.
    own = arrivals[sender.node]
    assert cluster.run_until(lambda: own.payloads() == ["a"], timeout_us=SECOND, step_us=50)
    assert cluster.env.now < start + 300 + BATCH_WINDOW_US
    assert channel.my_send_seq == published + 2
    cluster.run_for(SECOND)
    assert channel.my_send_seq == published + 2
    assert sender.packer.singleton_flushes == 1 and sender.packer.entries_batched == 2
    for log in arrivals.values():
        assert log.payloads() == ["a", "b", "c"]
        assert log.log[1][0] == log.log[2][0]  # one batch, one delivery instant


def test_sends_across_an_hwg_view_change_arrive_once_in_order():
    cluster, arrivals, sender, endpoint = converged_group()
    victim = next(n for n in ("p1", "p2", "p3") if n != sender.node)
    held_at_stop = []
    adapter, on_stop = endpoint.listener, endpoint.listener.on_stop

    def spy_on_stop(group, stop_ok):
        held_at_stop.append(sender.packer.pending_entries(endpoint.group))
        on_stop(group, stop_ok)

    adapter.on_stop = spy_on_stop
    old_view = endpoint.current_view.view_id
    cluster.crash(victim)
    sent = 0
    # Pairs 300 us apart (the second waits behind the first) until the
    # HWG has excluded the victim.
    while endpoint.current_view.view_id == old_view:
        for gap in (300, 4_700):
            sender.send("g", sent)
            sent += 1
            cluster.run_for(gap)
    cluster.run_for(3 * SECOND)
    assert any(held_at_stop)  # the flush-before-view-change rule had work to do
    survivors = [node for node in cluster.process_ids if node != victim]
    assert all(arrivals[node].payloads() == list(range(sent)) for node in survivors)
    assert sender.packer.pending_entries(endpoint.group) == 0


def test_crash_wipes_a_held_payload():
    cluster, arrivals, sender, endpoint = converged_group()
    sender.send("g", "in-flight")
    cluster.run_for(300)
    sender.send("g", "held")
    assert sender.packer.pending_entries(endpoint.group) == 1
    cluster.crash(sender.node)
    assert sender.packer.pending_entries(endpoint.group) == 0
    cluster.run_for(5 * SECOND)
    cluster.recover(sender.node)
    sender.join("g", arrivals[sender.node])
    cluster.run_for(10 * SECOND)
    sender.send("g", "after")
    cluster.run_for(SECOND)
    for log in arrivals.values():
        assert "held" not in log.payloads() and log.payloads()[-1] == "after"
