"""The data-path batch packer (PROTOCOLS.md §15): unit tests, plus one
end-to-end check that co-mapped traffic really coalesces on the fabric."""

from repro.core.batching import BatchPacker
from repro.core.config import LwgConfig
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


def make_packer(timers, sent, window_us=1000, max_bytes=400):
    return BatchPacker(
        node="p0",
        transmit=lambda hwg, msg: sent.append((hwg, msg)),
        set_timer=timers.set_timer,
        window_us=window_us,
        max_bytes=max_bytes,
    )


def test_window_timer_flushes_batch():
    timers, sent = FakeTimers(), []
    packer = make_packer(timers, sent)
    packer.enqueue("h1", data(payload="a"))
    packer.enqueue("h1", data(payload="b"))
    assert sent == [] and len(timers.armed) == 1
    timers.fire()
    assert len(sent) == 1
    batch = sent[0][1]
    assert isinstance(batch, LwgBatch)
    assert [e.payload for e in batch.entries] == ["a", "b"]


def test_byte_cap_flushes_immediately():
    timers, sent = FakeTimers(), []
    packer = make_packer(timers, sent, max_bytes=150)
    packer.enqueue("h1", data(payload="a"))
    packer.enqueue("h1", data(payload="b"))  # 200 bytes >= cap
    assert len(sent) == 1


def test_byte_cap_flush_disarms_window_timer():
    """Regression: a byte-cap flush must not leave the timer armed.

    Before the fix, the window timer armed by the first enqueue survived
    a byte-cap flush; the next batch then inherited the stale deadline
    and was flushed early (silently shortening its window), and no new
    timer could be armed because the flag still read "armed".
    """
    timers, sent = FakeTimers(), []
    packer = make_packer(timers, sent, max_bytes=150)
    packer.enqueue("h1", data(payload="a"))  # arms timer
    packer.enqueue("h1", data(payload="b"))  # byte-cap flush
    assert len(sent) == 1
    # Start the next batch: it must get a *fresh* window timer.
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


def test_control_flush_disarms_window_timer():
    timers, sent = FakeTimers(), []
    packer = make_packer(timers, sent)
    packer.enqueue("h1", data(payload="a"))
    packer.enqueue("h1", data(payload="b"))
    packer.flush("h1")  # control-message flush (hwg_send path)
    assert len(sent) == 1
    packer.enqueue("h1", data(payload="c"))
    timers.fire(0)  # stale window
    assert packer.pending_entries("h1") == 1
    timers.fire(0)  # fresh window
    assert [e for _, e in sent[1:]] == [sent[1][1]]
    assert sent[1][1].payload == "c"


def test_reset_invalidates_armed_timers():
    timers, sent = FakeTimers(), []
    packer = make_packer(timers, sent)
    packer.enqueue("h1", data(payload="a"))
    packer.reset()  # crash: buffer wiped, timer logically dead
    packer.enqueue("h1", data(payload="b"))
    timers.fire(0)  # pre-crash timer: stale generation, ignored
    assert sent == []
    assert packer.pending_entries("h1") == 1
    timers.fire(0)  # post-recovery timer
    assert len(sent) == 1
    assert sent[0][1].payload == "b"


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


def comapped_traffic(config):
    """Six LWGs statically co-mapped on ONE HWG, every member chatty.

    The shape the paper's amortization argument lives on: each
    process's per-burst payloads (across all its LWGs) can share HWG
    multicasts instead of paying ``groups x burst_size`` of them.
    """
    cluster = Cluster(
        num_processes=4,
        seed=2000,
        flavour="static",
        lwg_config=config,
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


def test_comapped_traffic_coalesces_on_the_fabric():
    delivered_on, fabric_on = comapped_traffic(LwgConfig())  # default: batching
    delivered_off, fabric_off = comapped_traffic(LwgConfig(enable_batching=False))
    # 4 senders x 6 groups x 25 bursts x 4 sends, delivered at 4 members.
    assert delivered_on == delivered_off == 9_600
    # Measured 2 081 vs 13 157 fabric messages (0.158x).
    assert fabric_on <= 0.25 * fabric_off
