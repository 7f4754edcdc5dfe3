"""``python -m repro run --trace`` and ``python -m repro diff``: a run's
trace as JSON Lines, and the first record at which two traces part."""

from pathlib import Path

from repro.__main__ import main
from repro.runtime.trace import Tracer
from repro.runtime.trace_diff import first_divergence, report


def write_trace(path, records):
    """``records``: (time, event, node) triples in category ``lwg``."""
    clock = {"now": 0}
    tracer = Tracer(clock=lambda: clock["now"])
    for time, event, node in records:
        clock["now"] = time
        tracer.emit("lwg", event, node=node)
    tracer.to_jsonl(path)
    return tracer.records


def test_two_runs_of_one_schedule_are_identical(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["run", "--trace", str(a)]) == 0
    assert main(["run", "--trace", str(b)]) == 0
    assert len(Tracer.from_jsonl(a).records) > 100
    capsys.readouterr()
    assert main(["diff", str(a), str(b)]) == 0
    assert capsys.readouterr().out.endswith("identical\n")


def test_a_trace_file_takes_exactly_one_schedule(tmp_path, capsys):
    schedule = str(Path(__file__).parents[1] / "fuzz" / "corpus" / "mixed-0018.json")
    trace = tmp_path / "t.jsonl"
    assert main(["run", "--trace", str(trace), schedule, schedule]) == 1
    assert "exactly one schedule" in capsys.readouterr().out
    assert not trace.exists()


def test_diff_names_the_first_divergence_timed_and_untimed(tmp_path, capsys):
    common = [(10, "join", "p0"), (20, "join", "p1"), (30, "view", "p0")]
    a = write_trace(tmp_path / "a.jsonl", common + [(40, "send", "p1"), (50, "view", "p1")])
    b = write_trace(tmp_path / "b.jsonl", common + [(45, "send", "p1"), (50, "leave", "p0")])
    assert first_divergence(a, b, lambda r: r) == 3
    lines = report(a, b, k=1)
    assert lines[0] == "first divergence, timed: record #3"
    assert lines[3:5] == [
        "  last 1 record(s) of p1 before #3:",
        "    #1 [          20us] lwg.join node=p1",
    ]
    untimed = lines.index("first divergence, timestamps stripped: record #4")
    assert lines[untimed + 1 : untimed + 3] == [
        "  A: lwg.view node=p1",
        "  B: lwg.leave node=p0",
    ]
    assert main(["diff", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]) == 1
    assert "record #4" in capsys.readouterr().out


def test_a_pure_timing_shift_is_untimed_identical(tmp_path):
    a = write_trace(tmp_path / "a.jsonl", [(10, "join", "p0"), (20, "view", "p0")])
    b = write_trace(tmp_path / "b.jsonl", [(10, "join", "p0"), (25, "view", "p0")])
    lines = report(a, b)
    assert lines[0] == "first divergence, timed: record #1"
    assert lines[-1] == "timestamps stripped: identical"


def test_a_truncated_trace_diverges_at_its_end(tmp_path):
    a = write_trace(tmp_path / "a.jsonl", [(10, "join", "p0"), (20, "view", "p0")])
    b = a[:1]
    assert first_divergence(a, b, lambda r: r) == 1
    assert "  B: <end of trace>" in report(a, b)
