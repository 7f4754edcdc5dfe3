"""Checkers for the light-weight group layer (paper Sections 3-4 and 6).

These monitors consume the ``lwg`` trace events emitted by
:class:`~repro.core.service.LwgService` and
:class:`~repro.core.merge.MergeManager`, plus ``hwg``/``network``
events for flush-point and fail-stop bookkeeping.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..runtime.trace import TraceRecord
from .base import Checker


class LwgAgreementChecker(Checker):
    """View composition and delivery membership at the LWG layer.

    * **LWG view agreement** — an LWG view identifier names one member
      list everywhere it installs, and installers belong to it;
    * **member-only delivery** — LWG data tagged with a view is only
      delivered at members of that view.
    """

    name = "lwg-agreement"
    categories = ("lwg",)

    def __init__(self) -> None:
        super().__init__()
        self._members: Dict[Tuple[str, str], Tuple[str, ...]] = {}

    def on_record(self, record: TraceRecord) -> None:
        fields = record.fields
        if record.event == "lwg_view_installed":
            node, lwg, view = fields["node"], fields["lwg"], fields["view"]
            members = tuple(fields["members"])
            if node not in members:
                self.fail(
                    "LWG self-inclusion",
                    f"{node} installed LWG view {view} of {lwg} without "
                    f"being a member ({members})",
                    record,
                )
            known = self._members.setdefault((lwg, view), members)
            if known != members:
                self.fail(
                    "LWG view agreement",
                    f"LWG view {view} of {lwg} installed with members "
                    f"{members} at {node}, but {known} elsewhere",
                    record,
                )
        elif record.event == "lwg_data_delivered":
            node, lwg, view = fields["node"], fields["lwg"], fields["view"]
            sender = fields["sender"]
            members = self._members.get((lwg, view)) if view else None
            if members is None:
                return
            if node not in members:
                self.fail(
                    "member-only delivery",
                    f"{node} delivered {lwg} data in view {view} without "
                    f"being a member ({members})",
                    record,
                )
            if sender not in members:
                self.fail(
                    "member-only delivery",
                    f"{node} delivered {lwg} data from non-member {sender} "
                    f"in view {view} ({members})",
                    record,
                )


class MergeRoundChecker(Checker):
    """At most one Figure-5 merge round per HWG at a time, per node.

    A node that multicasts MERGE-VIEWS on an HWG must not open a second
    round before the first closes — either at the flush point (the HWG
    view installation) or through the explicit retry reset.  Concurrent
    rounds would double-count ALL-VIEWS answers and defeat the
    one-flush-per-reconciliation amortisation claim.
    """

    name = "merge-round"
    categories = ("lwg", "hwg", "network")

    def __init__(self) -> None:
        super().__init__()
        #: (node, hwg) -> triggering lwg of the open round.
        self._open: Dict[Tuple[str, str], str] = {}

    def on_record(self, record: TraceRecord) -> None:
        fields = record.fields
        if record.category == "network":
            if record.event == "crash":
                node = fields["node"]
                for key in [k for k in self._open if k[0] == node]:
                    del self._open[key]
            return
        if record.category == "hwg":
            if record.event == "view_installed":
                # The flush point: MergeManager.on_hwg_view resets the
                # round state for this HWG right after this event.
                self._open.pop((fields["node"], fields["group"]), None)
            return
        if record.event == "merge_views_triggered":
            key = (fields["node"], fields["hwg"])
            if key in self._open:
                self.fail(
                    "one merge round per HWG",
                    f"{fields['node']} triggered a merge round on "
                    f"{fields['hwg']} (for {fields['lwg']}) while the round "
                    f"for {self._open[key]} is still running",
                    record,
                )
            self._open[key] = fields["lwg"]
        elif record.event in ("merge_round_retry", "merge_round_completed"):
            self._open.pop((fields["node"], fields["hwg"]), None)


class BatchAccountingChecker(Checker):
    """Batch-aware delivery accounting (PROTOCOLS.md §15).

    The packer coalesces LWG DATA payloads into one HWG multicast; the
    receiver demultiplexes them.  Two bookkeeping properties keep the
    batched data path equivalent to the unbatched one:

    * **count agreement** — a batch is unpacked with exactly as many
      entries as it was sent with (identified by ``(sender,
      batch_seq)``), and with the same per-LWG entry breakdown — a
      mixed-LWG batch must not be mistaken for single-group traffic;
    * **at-most-once unpack** — no node unpacks the same batch twice
      (the HWG ordered channel dedups, so a double unpack would mean
      duplicated delivery of every entry).
    """

    name = "batch-accounting"
    categories = ("lwg",)

    def __init__(self) -> None:
        super().__init__()
        #: (sender, batch_seq) -> (entry count, per-LWG counts) at send time.
        self._sent: Dict[Tuple[str, int], Tuple[int, Dict[str, int]]] = {}
        #: (node, sender, batch_seq) already unpacked.
        self._unpacked: Set[Tuple[str, str, int]] = set()

    def on_record(self, record: TraceRecord) -> None:
        fields = record.fields
        if record.event == "batch_sent":
            self._sent[(fields["node"], fields["batch_seq"])] = (
                fields["entries"],
                dict(fields.get("lwgs", {})),
            )
        elif record.event == "batch_unpacked":
            node, sender = fields["node"], fields["sender"]
            batch_seq, entries = fields["batch_seq"], fields["entries"]
            sent = self._sent.get((sender, batch_seq))
            if sent is not None and sent[0] != entries:
                self.fail(
                    "batch count agreement",
                    f"{node} unpacked batch {sender}#{batch_seq} with "
                    f"{entries} entries, but it was sent with {sent[0]}",
                    record,
                )
            lwgs = dict(fields.get("lwgs", {}))
            if sent is not None and sent[1] != lwgs:
                self.fail(
                    "batch per-LWG count agreement",
                    f"{node} unpacked batch {sender}#{batch_seq} with "
                    f"per-LWG counts {lwgs}, but it was sent with {sent[1]}",
                    record,
                )
            key = (node, sender, batch_seq)
            if key in self._unpacked:
                self.fail(
                    "at-most-once unpack",
                    f"{node} unpacked batch {sender}#{batch_seq} twice",
                    record,
                )
            self._unpacked.add(key)


class LwgConvergenceChecker(Checker):
    """At quiesce, every LWG has exactly one view on one HWG.

    The Section-6 pipeline promises that concurrent-view sets detected
    via MULTIPLE-MAPPINGS or local peer discovery converge: once a run
    settles, all members of an LWG must hold the same view, mapped onto
    the same HWG, and the view's member list must be exactly the set of
    processes claiming membership.
    """

    name = "lwg-convergence"

    def at_quiesce(self, cluster) -> None:
        network = cluster.env.fabric
        claims: Dict[str, List[Tuple[str, object, object]]] = {}
        for node, service in cluster.services.items():
            table = getattr(service, "table", None)
            if table is None or not network.is_alive(node):
                continue
            for local in table.locals.values():
                if local.is_member and local.view is not None:
                    claims.setdefault(local.lwg, []).append(
                        (node, local.view, local.hwg)
                    )
        for lwg, entries in sorted(claims.items()):
            ids = {str(view.view_id) for _, view, _ in entries}
            if len(ids) != 1:
                self.fail(
                    "concurrent views converge",
                    f"{lwg} still has concurrent views at quiesce: "
                    f"{sorted((n, str(v.view_id)) for n, v, _ in entries)}",
                )
            hwgs = {hwg for _, _, hwg in entries}
            if len(hwgs) != 1:
                self.fail(
                    "single HWG mapping",
                    f"{lwg} is mapped onto several HWGs at quiesce: "
                    f"{sorted((n, h) for n, _, h in entries)}",
                )
            members = set(entries[0][1].members)
            claimers = {node for node, _, _ in entries}
            if members != claimers:
                self.fail(
                    "membership matches view",
                    f"{lwg} view {entries[0][1].view_id} lists members "
                    f"{sorted(members)} but {sorted(claimers)} claim "
                    f"membership",
                )
