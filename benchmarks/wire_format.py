"""Wire-format sizes on real protocol traffic, and codec CPU per shape.

Regenerates the two tables of docs/PERFORMANCE.md § "The wire format"::

    PYTHONPATH=src python benchmarks/wire_format.py

Part 1 replays three digest-pinned rows of CI's fuzz-smoke matrix on
the simulator with a ``Network.send/multicast`` hook that encodes every
payload handed to the fabric, checks it round-trips, and adds up the
frame bytes next to what blanket ``pickle.dumps((src, payload, size))``
would have put on the wire (the reference only — nothing in ``src/``
pickles).  Part 2 times encode/decode of four frequent datagram shapes,
best of 5 x 20 000.  Takes about three minutes; not a pytest module.
"""

import dataclasses
import pickle
import time

from repro.core.messages import LwgData
from repro.fuzz.generator import GeneratorConfig, ScheduleGenerator
from repro.fuzz.runner import ScheduleRunner
from repro.runtime.codec import decode_datagram, encode_datagram
from repro.sim.transport import _Segment
from repro.vsync.messages import Heartbeat, Publish, StabilityAck
from repro.vsync.view import ViewId

ITERS = 25
ROWS = [
    ("mixed, seed 1", 1, "mixed", {}),
    ("4 name servers, seed 5", 5, "mixed", {"num_name_servers": 4}),
    ("recovery, seed 11", 11, "recovery", {}),
]


def shape(payload):
    """Class names down the chain of ``payload`` fields."""
    name = type(payload).__name__
    inner = getattr(payload, "payload", None)
    if dataclasses.is_dataclass(inner) and not isinstance(inner, type):
        return f"{name}/{shape(inner)}"
    return name


def hook_fabric(fabric, account):
    """Call ``account(src, payload, size)`` on everything handed to ``fabric``."""
    send, multicast = fabric.send, fabric.multicast

    def hooked_send(src, dst, payload, size=256):
        account(src, payload, size)
        return send(src, dst, payload, size)

    def hooked_multicast(src, dsts, payload, size=256):
        account(src, payload, size)
        return multicast(src, dsts, payload, size)

    fabric.send, fabric.multicast = hooked_send, hooked_multicast


def measure_campaign(seed, profile, config):
    totals = {"datagrams": 0, "wire": 0, "pickle": 0}
    shapes = set()

    def account(src, payload, size):
        frame = encode_datagram(src, payload, size)
        assert decode_datagram(frame) == (src, payload, size)
        totals["datagrams"] += 1
        totals["wire"] += len(frame)
        totals["pickle"] += len(
            pickle.dumps((src, payload, size), protocol=pickle.HIGHEST_PROTOCOL)
        )
        shapes.add(shape(payload))

    generator = ScheduleGenerator(seed, profile=profile, config=GeneratorConfig(**config))
    for index in range(ITERS):
        runner = ScheduleRunner(generator.generate(index))
        hook_fabric(runner.cluster.env.fabric, account)
        outcome = runner.run()
        assert outcome.is_clean, outcome.summary()
    return totals, len(shapes)


def best_us(fn, calls=20_000, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e6


def sample_shapes():
    group, view_id = "hwg:p0:000001", ViewId("p0", 9)
    ack = StabilityAck(group=group, view_id=view_id, member="p4", delivered_upto=38)
    data = LwgData(lwg="lwg:chat", view_id=ViewId("p0", 3), sender="p1",
                   payload=b"x" * 64, payload_size=64)
    publish = Publish(group=group, view_id=view_id, sender="p1", sender_seq=7,
                      payload=data, payload_size=92, acked_upto=11)
    return [
        ("Heartbeat", Heartbeat(group="_fd", sender="p3")),
        ("bare _Segment ack", _Segment("ack", 17, None, 0, 3)),
        ("_Segment/StabilityAck", _Segment("data", 41, ack, 64, 40)),
        ("_Segment/Publish/LwgData (64 B payload)", _Segment("data", 42, publish, 156, 40)),
    ]


def main():
    print(f"| fuzz row ({ITERS} iterations) | datagrams | shapes "
          "| pickle bytes | wire bytes | ratio |")
    print("|---|---|---|---|---|---|")
    for label, seed, profile, config in ROWS:
        totals, shapes = measure_campaign(seed, profile, config)
        print(
            f"| {label} | {totals['datagrams']} | {shapes} | {totals['pickle']} "
            f"| {totals['wire']} | {totals['wire'] / totals['pickle']:.3f}x |",
            flush=True,
        )
    print()
    print("| shape | pickle: bytes; enc/dec us | wire format: bytes; enc/dec us |")
    print("|---|---|---|")
    for label, message in sample_shapes():
        frame = encode_datagram("p0", message, 256)
        pickled = pickle.dumps(("p0", message, 256), protocol=pickle.HIGHEST_PROTOCOL)
        wire = (best_us(lambda: encode_datagram("p0", message, 256)),
                best_us(lambda: decode_datagram(frame)))
        reference = (
            best_us(lambda: pickle.dumps(("p0", message, 256),
                                         protocol=pickle.HIGHEST_PROTOCOL)),
            best_us(lambda: pickle.loads(pickled)),
        )
        print(
            f"| `{label}` | {len(pickled)} B; {reference[0]:.1f}/{reference[1]:.1f} "
            f"| {len(frame)} B; {wire[0]:.1f}/{wire[1]:.1f} |"
        )


if __name__ == "__main__":
    main()
