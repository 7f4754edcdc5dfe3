"""Structured event tracing, shared by every runtime backend.

Protocol layers emit ``(time, category, event, fields)`` records through a
shared :class:`Tracer`.  Tests and benchmarks subscribe to categories to
observe protocol behaviour (view installations, flushes, naming-service
reconciliations) without reaching into private state.

Traces round-trip through JSON Lines (:meth:`Tracer.to_jsonl` /
:meth:`Tracer.from_jsonl`), so a run on either backend can be saved and
later diffed or fed through the checkers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union


@dataclass(frozen=True)
class TraceRecord:
    """One traced event."""

    time: int
    category: str
    event: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        detail = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.time:>12}us] {self.category}.{self.event} {detail}".rstrip()


TraceListener = Callable[[TraceRecord], None]


class Tracer:
    """Collects trace records and fans them out to listeners.

    Recording to the in-memory list can be disabled for long benchmark
    runs (listeners still fire) via ``keep_records=False``.

    Listeners subscribe either to every record (``categories=None``) or
    to a set of categories.  :meth:`enabled` answers "would a record in
    this category reach anyone?" in O(1), so hot protocol layers can skip
    building trace fields entirely when nobody is watching — the fast
    path that keeps benchmark and soak runs cheap.
    """

    def __init__(self, clock: Callable[[], int], keep_records: bool = True):
        self._clock = clock
        self._keep = keep_records
        self.records: List[TraceRecord] = []
        #: Registration order, kept for unsubscribe / re-derivation.
        self._subscriptions: List[Tuple[TraceListener, Optional[Tuple[str, ...]]]] = []
        self._wildcard: List[TraceListener] = []
        self._by_category: Dict[str, List[TraceListener]] = {}
        # Lazy indexes for ``select``: built on first use, invalidated
        # by ``emit``/``clear`` (staleness is detected by comparing
        # record counts, so emits merely mark them stale).  Each bucket
        # preserves original record order.
        self._index: Optional[Dict[Tuple[str, str], List[TraceRecord]]] = None
        self._index_by_cat: Dict[str, List[TraceRecord]] = {}
        self._index_by_event: Dict[str, List[TraceRecord]] = {}
        self._index_len = 0

    def emit(self, category: str, event: str, **fields: Any) -> None:
        """Record an event in ``category`` with arbitrary keyword fields."""
        keep = self._keep
        listeners = self._by_category.get(category)
        if not keep and not self._wildcard and not listeners:
            return  # nobody is watching: skip record construction entirely
        record = TraceRecord(self._clock(), category, event, fields)
        if keep:
            self.records.append(record)
        for listener in self._wildcard:
            listener(record)
        if listeners:
            for listener in listeners:
                listener(record)

    def enabled(self, category: str) -> bool:
        """True if an ``emit`` in ``category`` would reach a record list
        or listener — O(1); hot layers guard field construction with it."""
        return self._keep or bool(self._wildcard) or category in self._by_category

    def subscribe(
        self,
        listener: TraceListener,
        categories: Optional[Iterable[str]] = None,
    ) -> None:
        """Register a callback for emitted records.

        With ``categories=None`` the listener sees every record; with a
        category list it sees exactly those categories (and ``enabled``
        stays False for the rest, keeping them on the emit fast path).
        Wildcard listeners always fire before category listeners.
        """
        wanted = None if categories is None else tuple(dict.fromkeys(categories))
        self._subscriptions.append((listener, wanted))
        if wanted is None:
            self._wildcard.append(listener)
        else:
            for category in wanted:
                self._by_category.setdefault(category, []).append(listener)

    def unsubscribe(self, listener: TraceListener) -> None:
        """Remove every subscription of ``listener`` (no-op if absent)."""
        self._subscriptions = [
            (cb, cats) for cb, cats in self._subscriptions if cb is not listener
        ]
        self._wildcard = [cb for cb in self._wildcard if cb is not listener]
        for category in list(self._by_category):
            remaining = [cb for cb in self._by_category[category] if cb is not listener]
            if remaining:
                self._by_category[category] = remaining
            else:
                del self._by_category[category]

    def select(
        self, category: Optional[str] = None, event: Optional[str] = None
    ) -> List[TraceRecord]:
        """Return recorded events filtered by category and/or event name.

        Backed by a lazy ``(category, event)`` index so per-assertion
        selects in checker tests are O(matches), not O(records); the
        index is rebuilt at most once per emit/clear burst.
        """
        if category is None and event is None:
            return list(self.records)
        index = self._index
        if index is None or self._index_len != len(self.records):
            index = {}
            by_cat: Dict[str, List[TraceRecord]] = {}
            by_event: Dict[str, List[TraceRecord]] = {}
            for record in self.records:
                index.setdefault((record.category, record.event), []).append(record)
                by_cat.setdefault(record.category, []).append(record)
                by_event.setdefault(record.event, []).append(record)
            self._index = index
            self._index_by_cat = by_cat
            self._index_by_event = by_event
            self._index_len = len(self.records)
        if category is not None and event is not None:
            return list(index.get((category, event), ()))
        if category is not None:
            return list(self._index_by_cat.get(category, ()))
        assert event is not None  # both-None handled above
        return list(self._index_by_event.get(event, ()))

    def clear(self) -> None:
        """Drop all recorded events (listeners are kept)."""
        self.records.clear()
        # Length comparison cannot distinguish "cleared then refilled"
        # from "unchanged", so drop the indexes outright.
        self._index = None
        self._index_by_cat = {}
        self._index_by_event = {}
        self._index_len = 0

    def to_jsonl(self, path: Union[str, "os.PathLike[str]"]) -> int:
        """Write every kept record to ``path`` as JSON Lines; returns count.

        Fields that are not JSON-native (e.g. view-id objects) are
        stringified — emitters already stringify them for trace
        stability, so in practice records survive the round trip intact.
        """
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(
                    json.dumps(
                        {
                            "time": record.time,
                            "category": record.category,
                            "event": record.event,
                            "fields": record.fields,
                        },
                        sort_keys=True,
                        default=str,
                    )
                )
                fh.write("\n")
        return len(self.records)

    @classmethod
    def from_jsonl(cls, path: Union[str, "os.PathLike[str]"]) -> "Tracer":
        """Load a trace written by :meth:`to_jsonl` into a fresh tracer.

        The returned tracer is a passive record holder (its clock is
        frozen at the last loaded timestamp); use it for selection,
        dumping, merging, or replaying through a checker suite.
        """
        records: List[TraceRecord] = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                records.append(
                    TraceRecord(
                        time=int(obj["time"]),
                        category=obj["category"],
                        event=obj["event"],
                        fields=dict(obj["fields"]),
                    )
                )
        last = records[-1].time if records else 0
        tracer = cls(clock=lambda: last, keep_records=True)
        tracer.records = records
        return tracer

    def dump(self, categories: Optional[Iterable[str]] = None) -> str:
        """Human-readable dump of the trace, optionally restricted by category."""
        wanted = set(categories) if categories is not None else None
        lines = [
            str(record)
            for record in self.records
            if wanted is None or record.category in wanted
        ]
        return "\n".join(lines)


class NullTracer(Tracer):
    """A tracer that drops everything — for hot benchmark loops."""

    def __init__(self) -> None:
        super().__init__(clock=lambda: 0, keep_records=False)

    def emit(self, category: str, event: str, **fields: Any) -> None:  # noqa: D102
        pass
