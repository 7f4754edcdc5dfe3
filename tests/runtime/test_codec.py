"""Unit tests for the datagram wire format and fabric framing."""

import ast
import dataclasses
import pickle
import struct
import tracemalloc
from pathlib import Path

import pytest

import repro
from repro.core import messages as core_messages
from repro.core.messages import LwgBatch, LwgData
from repro.fuzz import Schedule
from repro.fuzz.generator import GeneratorConfig, ScheduleGenerator
from repro.fuzz.runner import ScheduleRunner
from repro.naming import messages as naming_messages
from repro.naming.records import MappingRecord
from repro.runtime import codec
from repro.runtime.codec import (
    MAGIC,
    VERSION,
    WIRE_CLASSES,
    CodecError,
    OversizeDatagramError,
    decode_datagram,
    encode_datagram,
)
from repro.sim.transport import _PeerState, _Segment
from repro.vsync import messages as vsync_messages
from repro.vsync.messages import Ordered, Publish, StabilityAck
from repro.vsync.view import View, ViewId

CORPUS = sorted((Path(__file__).parent.parent / "fuzz" / "corpus").glob("*.json"))


def roundtrip(payload, src="p0", size=256):
    return decode_datagram(encode_datagram(src, payload, size))


def data_msg(payload=b"x" * 64, seq=3):
    return LwgData(
        lwg="lwg:chat", view_id=ViewId("p0", seq), sender="p1",
        payload=payload, payload_size=len(payload),
    )


# ----------------------------------------------------------------------
# Hot-path round trips
# ----------------------------------------------------------------------
def test_lwg_data_roundtrips_exactly():
    message = data_msg()
    src, decoded, size = roundtrip(message, size=92)
    assert (src, size) == ("p0", 92)
    assert decoded == message and type(decoded) is LwgData


def test_lwg_batch_roundtrips_with_entries():
    batch = LwgBatch(
        lwg="lwg:a", sender="p2", batch_seq=17,
        entries=(data_msg(b"one", 1), data_msg(b"two", 2)),
    )
    _, decoded, _ = roundtrip(batch)
    assert decoded == batch and type(decoded) is LwgBatch
    assert all(type(e) is LwgData for e in decoded.entries)


def test_ordered_carrying_a_batch_roundtrips():
    """The actual hot datagram: Ordered -> LwgBatch -> LwgData payloads."""
    batch = LwgBatch(lwg="lwg:a", sender="p1", batch_seq=2,
                     entries=(data_msg(), data_msg(b"more", 4)))
    ordered = Ordered(
        group="hwg:p0:000001", view_id=ViewId("p0", 9), seq=41,
        sender="p1", sender_seq=7, payload=batch,
        payload_size=batch.size_bytes(), stable_floor=33,
    )
    _, decoded, _ = roundtrip(ordered)
    assert decoded == ordered
    assert decoded.stable_floor == 33
    assert type(decoded.payload) is LwgBatch


def test_publish_and_stability_ack_roundtrip():
    publish = Publish(
        group="hwg:p0:000001", view_id=ViewId("p3", 4), sender="p3",
        sender_seq=12, payload=data_msg("text payload"),
        payload_size=40, acked_upto=11,
    )
    ack = StabilityAck(
        group="hwg:p0:000001", view_id=ViewId("p3", 4),
        member="p4", delivered_upto=38,
    )
    assert roundtrip(publish)[1] == publish
    assert roundtrip(ack)[1] == ack


def test_primitive_payloads_roundtrip():
    for payload in (None, True, False, 0, -1, 1 << 40, -(1 << 40),
                    "unicode ✓", b"", b"\x00\xff", (), (1, "a", (b"n", None))):
        assert roundtrip(payload)[1] == payload


def test_plain_data_roundtrips_with_its_type():
    for payload in (1 << 80, -(1 << 80), (1 << 63) - 1, -(1 << 63), 1 << 63,
                    3.5, float("inf"), [1, [2, (3,)]], (1, [2]), {1, "a"},
                    frozenset({(1, 2), None}), {"a": [1.5, {"b": {2}}]},
                    "lone surrogate \ud800"):
        decoded = roundtrip(payload)[1]
        assert decoded == payload and type(decoded) is type(payload)
    # bool is not int on the wire, in either direction.
    assert roundtrip((True, 1, False, 0))[1] == (True, 1, False, 0)
    assert [type(v) for v in roundtrip([True, 1])[1]] == [bool, int]


# ----------------------------------------------------------------------
# Sender contract: anything outside the vocabulary is an error, loudly
# ----------------------------------------------------------------------
class _Subclassed(int):
    pass


@pytest.mark.parametrize(
    "payload",
    [object(), lambda: None, _PeerState(), _Subclassed(3), {"k": [object()]},
     data_msg(payload=bytearray(b"x"))],
    ids=["object", "lambda", "non-wire-dataclass", "int-subclass", "nested",
         "inside-a-message"],
)
def test_unencodable_payloads_raise_codec_error_at_the_sender(payload):
    with pytest.raises(CodecError, match="not plain data or a registered"):
        encode_datagram("p0", payload, 0)


def test_codec_error_names_the_offending_type():
    with pytest.raises(CodecError, match=r"repro\.sim\.transport\._PeerState"):
        encode_datagram("p0", ("fine", _PeerState()), 0)


def test_self_referential_payload_is_a_codec_error_not_a_recursion_error():
    loop = []
    loop.append(loop)
    with pytest.raises(CodecError, match="nests deeper"):
        encode_datagram("p0", loop, 0)


def test_both_sides_agree_on_the_nesting_limit():
    nested = ()
    for _ in range(codec.MAX_DEPTH - 1):
        nested = (nested,)
    assert roundtrip(nested)[1] == nested  # MAX_DEPTH containers deep
    with pytest.raises(CodecError, match="nests deeper"):
        encode_datagram("p0", (nested,), 0)


# ----------------------------------------------------------------------
# Totality: every message class is registered, nothing else is
# ----------------------------------------------------------------------
MESSAGE_MODULES = (vsync_messages, core_messages, naming_messages)
EXTRA_WIRE_CLASSES = (ViewId, View, MappingRecord, _Segment)

#: One sample value per *required* field name (everything else keeps
#: its default).  A new required field needs a sample here.
REQUIRED_FIELD_SAMPLES = {
    "group": "hwg:p0:000001",
    "lwg": "lwg:a",
    "coordinator": "p0",
    "seq": 3,
    "view_id": ViewId("p0", 3),
    "members": ("p0", "p1"),
    "lwg_view": ViewId("p0", 3),
    "lwg_members": ("p0", "p1"),
    "hwg": "hwg:p0:000001",
    "hwg_view": ViewId("p0", 9),
    "version": 2,
    "writer": "p0",
    "kind": "data",
}


def _dataclasses_defined_in(module):
    return [
        obj for obj in vars(module).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        and obj.__module__ == module.__name__
    ]


def _sample(cls):
    return cls(**{
        f.name: REQUIRED_FIELD_SAMPLES[f.name]
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    })


EVERY_WIRE_CLASS = [
    cls for module in MESSAGE_MODULES for cls in _dataclasses_defined_in(module)
] + list(EXTRA_WIRE_CLASSES)


def test_registry_is_exactly_the_message_modules_plus_the_named_extras():
    assert len(EVERY_WIRE_CLASS) > 40  # the walk found the vocabulary
    assert len(set(WIRE_CLASSES)) == len(WIRE_CLASSES)
    assert set(WIRE_CLASSES) == set(EVERY_WIRE_CLASS)


@pytest.mark.parametrize("cls", EVERY_WIRE_CLASS, ids=lambda c: c.__name__)
def test_every_message_class_roundtrips_bare_and_inside_a_segment(cls):
    message = _sample(cls)
    _, decoded, _ = roundtrip(message)
    assert decoded == message and type(decoded) is cls
    segment = _Segment(kind="data", seq=5, payload=message, size=128, floor=4)
    _, decoded, _ = roundtrip(segment)
    assert decoded == segment and type(decoded.payload) is cls


# ----------------------------------------------------------------------
# Traffic: every payload the stack really emits round-trips
# ----------------------------------------------------------------------
def _zoned_schedule():
    # The only source of LivenessDigest/ProbeRequest/ProbePing/ZoneSummary:
    # the first schedule of the CI fuzz-smoke zoned row.
    config = GeneratorConfig(topology="zoned", zones=4)
    return ScheduleGenerator(7, profile="mixed", config=config).generate(0)


TRAFFIC_SCHEDULES = [
    pytest.param(lambda p=path: Schedule.from_json(p.read_text("utf-8")), id=path.stem)
    for path in CORPUS
] + [pytest.param(_zoned_schedule, id="zoned-seed7-0000")]


@pytest.mark.parametrize("make_schedule", TRAFFIC_SCHEDULES)
def test_every_payload_of_a_schedule_roundtrips(make_schedule, monkeypatch):
    """A message type added without registration fails here, not in the demo."""
    runner = ScheduleRunner(make_schedule())
    fabric = runner.cluster.env.fabric
    send, multicast = fabric.send, fabric.multicast
    seen = set()

    def check(src, payload, size):
        assert decode_datagram(encode_datagram(src, payload, size)) == (
            src, payload, size,
        )
        seen.add(type(payload))

    def checked_send(src, dst, payload, size=256):
        check(src, payload, size)
        return send(src, dst, payload, size)

    def checked_multicast(src, dsts, payload, size=256):
        check(src, payload, size)
        return multicast(src, dsts, payload, size)

    monkeypatch.setattr(fabric, "send", checked_send)
    monkeypatch.setattr(fabric, "multicast", checked_multicast)
    assert runner.run().is_clean
    assert _Segment in seen and len(seen) >= 5  # the hook saw the traffic
    if runner.schedule.topology == "zoned":
        assert vsync_messages.LivenessDigest in seen


# ----------------------------------------------------------------------
# Hostile input: CodecError and nothing else
# ----------------------------------------------------------------------
def frame(body, src=b"p0", version=VERSION):
    """A datagram header in front of raw value bytes."""
    header = bytes((MAGIC, version)) + struct.pack("!H", len(src)) + src
    return header + struct.pack("!I", 256) + body


def counted(tag, count, tail=b""):
    return bytes((tag,)) + struct.pack("!I", count) + tail


NONE = bytes((codec._NONE,))
DUPLICATE_MEMBER_VIEW = encode_datagram(
    "p0", View("g", ViewId("p0", 1), ("p0", "p1")), 0
).replace(b"p1", b"p0")

HOSTILE_FRAMES = {
    "wrong-magic": b"\xc8" + frame(NONE)[1:],
    "version-1": frame(NONE, version=1),
    "pickle-frame": pickle.dumps(("p0", None, 256), protocol=pickle.HIGHEST_PROTOCOL),
    "pickle-frame-protocol-2": pickle.dumps(("p0", None, 256), protocol=2),
    "unknown-value-tag": frame(b"\x7f\x00\x00\x00\x00"),
    "unknown-class-index": frame(bytes((codec._OBJECT, len(WIRE_CLASSES)))),
    "trailing-bytes": frame(NONE + b"trailing"),
    "count-over-remaining-bytes": frame(counted(codec._TUPLE, 2**32 - 1, b"\x00" * 3)),
    "dict-count-over-remaining-bytes": frame(counted(codec._DICT, 2, NONE * 3)),
    "string-length-over-remaining-bytes": frame(counted(codec._STR, 5, b"abcd")),
    "nesting-depth-10000": frame(counted(codec._TUPLE, 1) * 10_000 + NONE),
    "invalid-utf8-string": frame(counted(codec._STR, 2, b"\xff\xfe")),
    "invalid-utf8-source": frame(NONE, src=b"\xff\xfe"),
    "unhashable-dict-key": frame(
        counted(codec._DICT, 1, counted(codec._LIST, 0) + NONE)
    ),
    "unhashable-set-member": frame(counted(codec._SET, 1, counted(codec._LIST, 0))),
    "constructor-refusal": DUPLICATE_MEMBER_VIEW,
}


@pytest.mark.parametrize("data", HOSTILE_FRAMES.values(), ids=HOSTILE_FRAMES.keys())
def test_hostile_frames_raise_codec_error(data):
    with pytest.raises(CodecError):
        decode_datagram(data)


def test_the_hostile_frames_are_hostile_for_the_intended_reason():
    # Guard the fixtures themselves: a well-formed neighbour of each
    # crafted frame decodes, so the rejections above are not header typos.
    assert decode_datagram(frame(NONE)) == ("p0", None, 256)
    assert decode_datagram(frame(counted(codec._TUPLE, 1, NONE)))[1] == (None,)
    assert decode_datagram(frame(counted(codec._DICT, 1, NONE * 2)))[1] == {None: None}
    assert decode_datagram(frame(counted(codec._STR, 4, b"abcd")))[1] == "abcd"
    deep = frame(counted(codec._TUPLE, 1) * codec.MAX_DEPTH + NONE)
    assert decode_datagram(deep)[1] is not None
    assert DUPLICATE_MEMBER_VIEW != encode_datagram(
        "p0", View("g", ViewId("p0", 1), ("p0", "p1")), 0
    )


def test_truncated_and_garbage_frames_raise_codec_error():
    valid = encode_datagram("p0", _Segment("data", 4, data_msg(), 92, 3), 256)
    assert decode_datagram(valid)[1].payload == data_msg()
    for cut in range(len(valid)):  # every strict prefix
        with pytest.raises(CodecError):
            decode_datagram(valid[:cut])
    for bad in (b"", b"\x01garbage", valid + b"trailing", bytes((MAGIC, 99))):
        with pytest.raises(CodecError):
            decode_datagram(bad)


def test_huge_count_fails_fast_without_a_large_allocation():
    data = HOSTILE_FRAMES["count-over-remaining-bytes"]
    tracemalloc.start()
    try:
        with pytest.raises(CodecError, match="truncated"):
            decode_datagram(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_no_module_under_src_imports_pickle():
    offenders = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("pickle", "cPickle") for name in names):
                offenders.append(f"{path}:{node.lineno}")
    assert not offenders


# ----------------------------------------------------------------------
# Fabric: oversize and undecodable datagrams
# ----------------------------------------------------------------------
def test_oversize_payload_raises_typed_error():
    from repro.runtime.asyncio_backend import AsyncioRuntime, UdpFabric

    runtime = AsyncioRuntime.create(seed=1)
    try:
        received = []
        runtime.fabric.attach("p0", lambda *a: received.append(a))
        blob = bytes(UdpFabric.MAX_DATAGRAM + 1)
        with pytest.raises(OversizeDatagramError) as excinfo:
            runtime.fabric.send("p0", "p0", blob, size=len(blob))
        assert excinfo.value.src == "p0"
        assert excinfo.value.limit == UdpFabric.MAX_DATAGRAM
        assert excinfo.value.encoded_bytes > UdpFabric.MAX_DATAGRAM
        # The typed error is still a ValueError for legacy handlers.
        assert isinstance(excinfo.value, ValueError)
    finally:
        runtime.close()


def test_fabric_counts_a_pickle_datagram_as_dropped_and_keeps_running():
    import socket

    from repro.runtime.asyncio_backend import AsyncioRuntime

    runtime = AsyncioRuntime.create(seed=1)
    try:
        received = []
        runtime.fabric.attach("p0", lambda *a: received.append(a))
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.sendto(HOSTILE_FRAMES["pickle-frame"], runtime.fabric.addrs["p0"])
        runtime.fabric.send("p0", "p0", "still alive", size=11)
        runtime.run_for(200_000)
        assert received == [("p0", "still alive", 11)]
        assert runtime.fabric.messages_dropped == 1
    finally:
        runtime.close()


# ----------------------------------------------------------------------
# Naming anti-entropy round trips
# ----------------------------------------------------------------------
def _mapping_record(i=1, deleted=False):
    return MappingRecord(
        lwg=f"lwg:{i}", lwg_view=ViewId("p0", i), lwg_members=("p0", "p1"),
        hwg="hwg:9", hwg_view=ViewId("h", i), version=i, writer="p0",
        deleted=deleted,
    )


def test_dict_payloads_roundtrip():
    nested = {"": {"a": "1f2e", "b": "9c"}, "a3": {}}
    src, decoded, _ = roundtrip(nested)
    assert decoded == nested and type(decoded) is dict
    # Tuple keys (RecordKey shape) survive too.
    digest = {("lwg:x", ViewId("p0", 4)): (2, "p0")}
    assert roundtrip(digest)[1] == digest


def test_mapping_record_roundtrips():
    for record in (_mapping_record(3), _mapping_record(4, deleted=True)):
        _, decoded, _ = roundtrip(record)
        assert decoded == record and type(decoded) is type(record)


def test_sync_request_roundtrips():
    from repro.naming.messages import SyncRequest

    message = SyncRequest(
        sender="nsA", sync_id=7, db_hash="ab" * 8,
        expansions={"": {"0": "dead", "f": "beef"}},
        genealogy_children=(ViewId("p0", 1), ViewId("p5", 2)),
    )
    _, decoded, _ = roundtrip(message)
    assert decoded == message and type(decoded) is SyncRequest
    bare = SyncRequest(sender="nsA", sync_id=8, db_hash="cd" * 8)
    assert roundtrip(bare)[1] == bare  # genealogy_children=None survives


def test_sync_reply_roundtrips():
    from repro.naming.messages import SyncReply

    message = SyncReply(
        sender="nsB", sync_id=7, round_no=3,
        expansions={"a": {"0": "00ff"}},
        leaf_digests={"a3f0": {("lwg:1", ViewId("p0", 1)): (1, "p0")}, "b": {}},
        records=(_mapping_record(1), _mapping_record(2, deleted=True)),
        genealogy={ViewId("p0", 2): (ViewId("p0", 1),)},
        genealogy_children=(ViewId("p0", 2),),
    )
    _, decoded, _ = roundtrip(message)
    assert decoded == message and type(decoded) is SyncReply
    in_sync = SyncReply(sender="nsB", sync_id=9, in_sync=True)
    assert roundtrip(in_sync)[1] == in_sync


def test_sync_messages_avoid_pickle_frames():
    from repro.naming.messages import SyncReply

    message = SyncReply(
        sender="nsB", sync_id=1, round_no=1,
        records=(_mapping_record(1),),
        genealogy={ViewId("p0", 2): (ViewId("p0", 1),)},
    )
    wire = encode_datagram("p0", message, 128)
    assert wire[0] == MAGIC
    assert b"SyncReply" not in wire  # no class path on the wire


def test_liveness_digest_roundtrips_exactly():
    from repro.vsync.messages import LivenessDigest

    digest = LivenessDigest(
        group="_fd",
        sender="p3",
        round_no=417,
        entries=(
            ("p0", 0, 12, False),
            ("p1", 2, 9, True),
            ("p7", 1, 0, False),
        ),
    )
    _, decoded, _ = roundtrip(digest)
    assert decoded == digest and type(decoded) is LivenessDigest
    assert all(isinstance(row, tuple) for row in decoded.entries)
    empty = LivenessDigest(group="_fd", sender="p0", round_no=1)
    assert roundtrip(empty)[1] == empty


def test_liveness_digest_avoids_pickle_frames():
    from repro.vsync.messages import LivenessDigest

    digest = LivenessDigest(
        group="_fd", sender="p3", round_no=2,
        entries=(("p0", 0, 5, False), ("p1", 0, 4, True)),
    )
    wire = encode_datagram("p3", digest, digest.size_bytes())
    assert wire[0] == MAGIC
    assert b"LivenessDigest" not in wire  # no class path on the wire
