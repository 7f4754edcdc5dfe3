"""Round-trip tests for JSONL trace export/import (satellite of the
runtime-layer extraction: real-backend runs persist per-process traces
for merging and checker replay)."""

import json

from repro.runtime.trace import TraceRecord, Tracer


def make_tracer(start=100):
    clock = {"now": start}
    tracer = Tracer(clock=lambda: clock["now"], keep_records=True)
    return tracer, clock


def test_jsonl_round_trip_preserves_records(tmp_path):
    tracer, clock = make_tracer()
    tracer.emit("lwg", "lwg_view_installed", node="p0", members=["p0", "p1"])
    clock["now"] = 250
    tracer.emit("network", "partition", blocks=[["p0"], ["p1"]])
    clock["now"] = 900
    tracer.emit("naming", "reconciled", server="ns0", applied=3, gc_removed=0)

    path = tmp_path / "trace.jsonl"
    assert tracer.to_jsonl(path) == 3

    loaded = Tracer.from_jsonl(path)
    assert loaded.records == tracer.records


def test_jsonl_round_trip_of_empty_trace(tmp_path):
    tracer, _ = make_tracer()
    path = tmp_path / "empty.jsonl"
    assert tracer.to_jsonl(path) == 0
    assert Tracer.from_jsonl(path).records == []


def test_jsonl_lines_are_plain_json(tmp_path):
    tracer, _ = make_tracer(start=42)
    tracer.emit("hwg", "view_installed", node="p1", view="p0#3")
    path = tmp_path / "trace.jsonl"
    tracer.to_jsonl(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert obj == {
        "time": 42,
        "category": "hwg",
        "event": "view_installed",
        "fields": {"node": "p1", "view": "p0#3"},
    }


def test_non_json_native_fields_are_stringified(tmp_path):
    class ViewId:
        def __str__(self):
            return "p0#7"

    tracer, _ = make_tracer()
    tracer.emit("lwg", "minted", view=ViewId())
    path = tmp_path / "trace.jsonl"
    tracer.to_jsonl(path)
    loaded = Tracer.from_jsonl(path)
    assert loaded.records[0].fields["view"] == "p0#7"


def test_loaded_tracer_supports_select_and_dump(tmp_path):
    tracer, clock = make_tracer()
    tracer.emit("lwg", "a", node="p0")
    clock["now"] = 200
    tracer.emit("hwg", "b", node="p1")
    path = tmp_path / "trace.jsonl"
    tracer.to_jsonl(path)

    loaded = Tracer.from_jsonl(path)
    assert [r.event for r in loaded.select("lwg")] == ["a"]
    assert "hwg.b" in loaded.dump()
    # The passive clock is frozen at the last loaded timestamp, so
    # appending to a loaded trace keeps time monotone.
    assert loaded._clock() == 200


def test_blank_lines_are_skipped(tmp_path):
    tracer, _ = make_tracer()
    tracer.emit("lwg", "only", node="p0")
    path = tmp_path / "trace.jsonl"
    tracer.to_jsonl(path)
    path.write_text(path.read_text() + "\n\n")
    assert len(Tracer.from_jsonl(path).records) == 1


def test_round_trip_via_sim_shim_import():
    # The sim package keeps re-exporting the relocated tracer.
    from repro.sim import Tracer as SimTracer

    assert SimTracer is Tracer
