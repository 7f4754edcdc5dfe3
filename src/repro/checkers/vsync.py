"""Checkers for the virtually-synchronous HWG substrate (paper Section 5.1).

These monitors consume the ``hwg`` trace events emitted by
:class:`~repro.vsync.hwg.HwgEndpoint` and the per-delivery events from
:class:`~repro.vsync.total_order.OrderedChannel`, plus ``network``
crash/recover events for fail-stop bookkeeping.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from ..runtime.trace import TraceRecord
from .base import Checker

#: (group, view) — views are tracked by their string form ("p0#3").
ViewKey = Tuple[str, str]


class ViewAgreementChecker(Checker):
    """Every member that installs a view agrees on its composition.

    * **view agreement** — a view identifier names exactly one member
      list, at every node that installs it;
    * **self-inclusion** — a process only installs views it belongs to.
    """

    name = "view-agreement"
    categories = ("hwg",)

    def __init__(self) -> None:
        super().__init__()
        self._members: Dict[ViewKey, Tuple[str, ...]] = {}

    def on_record(self, record: TraceRecord) -> None:
        if record.event != "view_installed":
            return
        fields = record.fields
        node, group = fields["node"], fields["group"]
        view = fields["view"]
        members = tuple(fields["members"])
        if node not in members:
            self.fail(
                "self-inclusion",
                f"{node} installed view {view} of {group} without being "
                f"a member ({members})",
                record,
            )
        known = self._members.setdefault((group, view), members)
        if known != members:
            self.fail(
                "view agreement",
                f"view {view} of {group} installed with members {members} "
                f"at {node}, but {known} elsewhere",
                record,
            )


class DeliveryChecker(Checker):
    """Ordering and virtual-synchrony invariants of the data path.

    * **contiguous total order** — each member delivers a view's
      sequence numbers 0, 1, 2, ... without gaps or repeats;
    * **order agreement** — sequence number ``s`` of a view carries the
      same message (sender, sender_seq) at every member;
    * **FIFO per sender** — a member delivers each sender's messages in
      strictly increasing sender-sequence order, across views;
    * **same view, same messages** — members making the same view
      transition delivered the same number of messages in the old view
      (the flush equalised them to the cut);
    * **fail-stop** — a crashed node delivers nothing.
    """

    name = "delivery"
    categories = ("hwg", "network")

    def __init__(self) -> None:
        super().__init__()
        self._crashed: Set[str] = set()
        #: (group, node) -> currently installed view (string form).
        self._current: Dict[Tuple[str, str], str] = {}
        #: (group, node, view) -> next expected seq == messages delivered.
        self._next_seq: Dict[Tuple[str, str, str], int] = {}
        #: (group, view, seq) -> (sender, sender_seq) first observed.
        self._order: Dict[Tuple[str, str, int], Tuple[str, int]] = {}
        #: (group, node, sender) -> highest delivered sender_seq.
        self._fifo: Dict[Tuple[str, str, str], int] = {}
        #: (group, old_view, new_view) -> (first node, old-view delivery count).
        self._transitions: Dict[Tuple[str, str, str], Tuple[str, int]] = {}

    # ------------------------------------------------------------------
    def on_record(self, record: TraceRecord) -> None:
        if record.category == "network":
            if record.event == "crash":
                self._on_crash(record.fields["node"])
            elif record.event == "recover":
                self._on_recover(record.fields["node"])
            return
        if record.event == "data_delivered":
            self._on_delivery(record)
        elif record.event == "view_installed":
            self._on_view(record)
        elif record.event == "left":
            self._on_left(record.fields["group"], record.fields["node"])

    def _on_crash(self, node: str) -> None:
        # Fail-stop wipes the process: its channels, views and send
        # counters restart from scratch on recovery, so per-node state
        # must not leak across incarnations.
        self._crashed.add(node)
        for key in [k for k in self._current if k[1] == node]:
            del self._current[key]
        for key in [k for k in self._fifo if k[1] == node]:
            del self._fifo[key]

    def _on_recover(self, node: str) -> None:
        # The new incarnation restarts its sender_seq numbering from 1.
        # Its old messages may still be delivered between the crash and
        # this record (they were ordered before it), so the survivors'
        # memory of it as a sender is forgotten here, not at the crash.
        self._crashed.discard(node)
        for key in [k for k in self._fifo if k[2] == node]:
            del self._fifo[key]

    def _on_left(self, group: str, node: str) -> None:
        # Leaving a group ends the node's channel incarnation for that
        # group: a rejoin restarts its sender_seq numbering from 1 and
        # starts delivering from a fresh channel, so per-sender memory
        # involving the leaver must not span the leave.
        self._current.pop((group, node), None)
        for key in [
            k for k in self._fifo
            if k[0] == group and (k[1] == node or k[2] == node)
        ]:
            del self._fifo[key]

    def _on_delivery(self, record: TraceRecord) -> None:
        fields = record.fields
        node, group, view = fields["node"], fields["group"], fields["view"]
        seq, sender, sender_seq = fields["seq"], fields["sender"], fields["sender_seq"]
        if node in self._crashed:
            self.fail(
                "fail-stop",
                f"crashed node {node} delivered {group} seq {seq} in view {view}",
                record,
            )
        expected = self._next_seq.get((group, node, view), 0)
        if seq != expected:
            self.fail(
                "contiguous total order",
                f"{node} delivered {group} seq {seq} in view {view}, "
                f"expected seq {expected}",
                record,
            )
        self._next_seq[(group, node, view)] = seq + 1
        payload_id = (sender, sender_seq)
        known = self._order.setdefault((group, view, seq), payload_id)
        if known != payload_id:
            self.fail(
                "order agreement",
                f"{group} view {view} seq {seq} is {payload_id} at {node} "
                f"but {known} elsewhere",
                record,
            )
        last = self._fifo.get((group, node, sender), 0)
        if sender_seq <= last:
            self.fail(
                "FIFO per sender",
                f"{node} delivered {group} message {sender}:{sender_seq} "
                f"after already delivering {sender}:{last}",
                record,
            )
        self._fifo[(group, node, sender)] = sender_seq

    def _on_view(self, record: TraceRecord) -> None:
        fields = record.fields
        node, group, view = fields["node"], fields["group"], fields["view"]
        parents = set(fields.get("parents", ()))
        old = self._current.get((group, node))
        if old is not None and old in parents:
            # Same transition => same delivered prefix in the old view.
            # Members of *different* branches legitimately diverge; they
            # make different (old -> new) transitions and are not compared.
            count = self._next_seq.get((group, node, old), 0)
            first = self._transitions.setdefault((group, old, view), (node, count))
            if first[1] != count:
                self.fail(
                    "same view, same messages",
                    f"transition {old} -> {view} of {group}: {node} delivered "
                    f"{count} messages in {old} but {first[0]} delivered "
                    f"{first[1]}",
                    record,
                )
        self._current[(group, node)] = view
