"""``python -m repro diff A.jsonl B.jsonl`` — where two traces part.

Two runs of one schedule (``python -m repro run --trace FILE``) replay
record for record unless behaviour changed, and a moved digest says
only *that* something changed.  This prints the first record at which
the traces differ twice: as recorded, and with timestamps stripped (a
pure timing shift shows only in the first).  For every node a divergent
record names, it also prints that node's last ``CONTEXT_RECORDS`` records before the
divergence.  They come from trace A; before the divergence B holds the
same records (untimed: the same up to their timestamps).  The exit code
is 0 iff the traces are identical.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence

from .trace import TraceRecord, Tracer

#: Record fields that name the node a record happened at.
NODE_FIELDS = ("node", "server")

#: Records of context printed per node before the divergence.
CONTEXT_RECORDS = 5

Key = Callable[[TraceRecord], Any]


def _timed(record: TraceRecord) -> Any:
    return record


def _untimed(record: TraceRecord) -> Any:
    return record.category, record.event, record.fields


def first_divergence(
    a: Sequence[TraceRecord], b: Sequence[TraceRecord], key: Key
) -> Optional[int]:
    """Index of the first record where ``key`` differs, None if none does."""
    for index, (x, y) in enumerate(zip(a, b)):
        if key(x) != key(y):
            return index
    return None if len(a) == len(b) else min(len(a), len(b))


def node_of(record: TraceRecord) -> Optional[str]:
    for name in NODE_FIELDS:
        value = record.fields.get(name)
        if value is not None:
            return str(value)
    return None


def _show(record: Optional[TraceRecord], strip: bool) -> str:
    if record is None:
        return "<end of trace>"
    text = str(record)
    return text.split("] ", 1)[1] if strip else text


def report(
    a: Sequence[TraceRecord], b: Sequence[TraceRecord], k: int = CONTEXT_RECORDS
) -> List[str]:
    """The first timed and untimed divergence, each with node context."""
    lines: List[str] = []
    for label, key, strip in (
        ("timed", _timed, False),
        ("timestamps stripped", _untimed, True),
    ):
        index = first_divergence(a, b, key)
        if index is None:
            lines.append(f"{label}: identical")
            continue
        pair = [trace[index] if index < len(trace) else None for trace in (a, b)]
        lines.append(f"first divergence, {label}: record #{index}")
        lines += [f"  {side}: {_show(r, strip)}" for side, r in zip("AB", pair)]
        nodes = sorted({node for node in map(node_of, filter(None, pair)) if node})
        for node in nodes:
            prior = [(i, r) for i, r in enumerate(a[:index]) if node_of(r) == node][-k:]
            if prior:
                lines.append(f"  last {len(prior)} record(s) of {node} before #{index}:")
                lines += [f"    #{i} {_show(r, strip)}" for i, r in prior]
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro diff",
        description="first divergent record of two JSON Lines traces",
    )
    parser.add_argument("a", type=Path, help="trace A (JSON Lines)")
    parser.add_argument("b", type=Path, help="trace B (JSON Lines)")
    args = parser.parse_args(argv)
    a = Tracer.from_jsonl(args.a).records
    b = Tracer.from_jsonl(args.b).records
    print(f"A {args.a}: {len(a)} records; B {args.b}: {len(b)} records")
    if a == b:
        print("identical")
        return 0
    print("\n".join(report(a, b)))
    return 1
