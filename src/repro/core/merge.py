"""Partition reconciliation at the LWG layer (paper Section 6).

Two cooperating pieces:

* :class:`ReconciliationHandler` — steps 1-2.  The naming service's
  MULTIPLE-MAPPINGS callback (global peer discovery) tells an LWG-view
  coordinator that concurrent views of its LWG are mapped onto different
  HWGs; the coordinator deterministically yields to the **highest group
  identifier** — if its own HWG is not the winner it switches its view
  there, otherwise it keeps its mapping ("the view lwg_a needs to be
  switched and the view lwg'_a should keep the same mapping").

* :class:`MergeManager` — steps 3-4, the Figure-5 protocol.  Once
  concurrent LWG views share an HWG view, any member that sees evidence
  of concurrency (a DATA tagged with a concurrent view id — Figure 5
  line 106 — or a concurrent view announcement) multicasts MERGE-VIEWS.
  Every member answers with ALL-VIEWS (its local LWG views on that HWG);
  the HWG coordinator forces a flush; and at the resulting view
  installation every member deterministically merges *all* concurrent
  views of *all* LWGs collected — one flush amortised over every LWG on
  the HWG, which is the protocol's resource-sharing claim.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Set, Tuple

from ..naming.messages import MultipleMappings
from ..naming.records import HwgId, LwgId, MappingRecord
from ..vsync.view import View, ViewId
from .ids import highest_gid
from .lwg_view import merge_lwg_views
from .mapping_table import LocalLwg
from .messages import AllViewsMsg, MergeViewsMsg


class MergeManager:
    """Figure-5 merge-views protocol state, per underlying HWG."""

    def __init__(self, service):
        self.svc = service
        #: hwg -> lwg -> view_id -> view: the AV_p(hwg) sets of Figure 5.
        self._collected: Dict[HwgId, Dict[LwgId, Dict[ViewId, View]]] = {}
        #: HWGs on which we already multicast MERGE-VIEWS this round.
        self._requested: Set[HwgId] = set()
        #: HWGs on which we already answered with ALL-VIEWS this round.
        self._responded: Set[HwgId] = set()
        #: Ordered join/leave requests held back until the round's flush.
        self._deferred: Dict[HwgId, List[Tuple[str, object]]] = {}
        #: Monotonic per-HWG token distinguishing rounds for retry timers.
        self._round_token: Dict[HwgId, int] = {}
        #: hwg -> view ids with an ordered SWITCH-START pending (not yet
        #: committed or aborted) — see :meth:`observe_switch_start`.
        self._switching: Dict[HwgId, Set[ViewId]] = {}
        #: hwg -> view ids whose switch committed: the view left this
        #: HWG at an ordered cut and must never merge here again.
        self._departed: Dict[HwgId, Set[ViewId]] = {}
        self.merges_completed = 0
        self.merge_rounds = 0

    def handlers(self) -> Dict[type, Callable]:
        """The ordered HWG messages this protocol handles, by exact type."""
        return {MergeViewsMsg: self.on_merge_views, AllViewsMsg: self.on_all_views}

    def round_active(self, hwg: HwgId) -> bool:
        """True while a merge round is running on ``hwg``.

        Coordinators must not mint successor LWG views during a round:
        a minted view whose ordered message lands *after* the flush would
        be missing from the equalised collected set, so the merge would
        not descend from it — lineage divergence.  Join/leave requests
        are deferred instead (see :meth:`defer` / :meth:`take_deferred`).
        """
        return hwg in self._responded or hwg in self._requested

    def defer(self, hwg: HwgId, kind: str, message: object) -> None:
        """Hold an ordered request back until the round completes.

        Every member buffers the same ordered prefix, so deferral keeps
        processing uniform across the group.
        """
        self._deferred.setdefault(hwg, []).append((kind, message))

    def take_deferred(self, hwg: HwgId) -> List[Tuple[str, object]]:
        return self._deferred.pop(hwg, [])

    # ------------------------------------------------------------------
    # Triggering (Figure 5, lines 106-107)
    # ------------------------------------------------------------------
    #: If a round's flush has not happened within this window, the round
    #: state is reset and MERGE-VIEWS re-multicast.  A round can wedge
    #: when its trigger message is lost in extreme churn (e.g. a flush
    #: cut drops it and the cross-view republish is cancelled by a
    #: dedup floor that advanced in a concurrent branch); without a
    #: retry, the stuck round would suppress all future triggers.
    ROUND_RETRY_US = 4_000_000

    def trigger(self, hwg: HwgId, lwg: LwgId) -> None:
        """Multicast MERGE-VIEWS on ``hwg`` (once per round, retried)."""
        if hwg in self._requested:
            return
        self._requested.add(hwg)
        self.merge_rounds += 1
        self._round_token[hwg] = self._round_token.get(hwg, 0) + 1
        token = self._round_token[hwg]
        self.svc.trace("merge_views_triggered", hwg=hwg, lwg=lwg)
        self.svc.hwg_send(hwg, MergeViewsMsg(lwg=lwg))

        def retry() -> None:
            if self._round_token.get(hwg) != token:
                return  # a flush completed (or a newer round started)
            # Only a token bump clears ``_requested``: this round is open.
            assert hwg in self._requested
            self.svc.trace("merge_round_retry", hwg=hwg, lwg=lwg)
            self._requested.discard(hwg)
            self._responded.discard(hwg)
            self.trigger(hwg, lwg)

        self.svc.stack.set_timer(self.ROUND_RETRY_US, retry)

    # ------------------------------------------------------------------
    # Protocol messages (ordered on the HWG)
    # ------------------------------------------------------------------
    def on_merge_views(self, hwg: HwgId, message: MergeViewsMsg) -> None:
        """Figure 5, lines 108-111."""
        if hwg not in self._responded:
            self._responded.add(hwg)
            local_views = tuple(
                entry.view
                for entry in self.svc.table.local_lwgs_on(hwg)
                if entry.view is not None
            )
            self.svc.hwg_send(
                hwg, AllViewsMsg(lwg=message.lwg, sender=self.svc.node, views=local_views)
            )
        endpoint = self.svc.hwg_endpoint(hwg)
        if endpoint is not None:
            # "The coordinator of the HWG flushes the HWG" — a no-op at
            # everyone else, and idempotent until a new view installs.
            endpoint.force_refresh()

    def on_all_views(self, hwg: HwgId, message: AllViewsMsg) -> None:
        """Figure 5, lines 112-113: AV_p(hwg) := AV_p(hwg) ∪ V_q."""
        per_lwg = self._collected.setdefault(hwg, {})
        for view in message.views:
            per_lwg.setdefault(view.group, {})[view.view_id] = view
        # A straggler ALL-VIEWS (re-published after a view change) may
        # reveal concurrency we have not merged yet: re-trigger.
        for view in message.views:
            local = self.svc.table.local(view.group)
            if (
                local is not None
                and local.is_member
                and local.hwg == hwg
                and local.ancestors.concurrent_with_current(local.view, view.view_id)
            ):
                self.trigger(hwg, view.group)

    # ------------------------------------------------------------------
    # Switch/merge serialisation
    # ------------------------------------------------------------------
    # The switch protocol and a merge round can race on the same HWG:
    # both ride its total order, but the merge's candidate set is frozen
    # at the flush while a switch moves a view away at its COMMIT.  If
    # the commit is ordered before the flush, the switching member skips
    # the merge ("switched away mid-round") while the others would merge
    # a view whose members are gone — minting a view that only a subset
    # installs and whose coordinator never announces or registers it: a
    # permanent stranding (no naming conflict remains to heal it).  The
    # switch messages are ordered, hence common knowledge: every member
    # excludes in-flight and departed views from the candidate set
    # identically.
    def observe_switch_start(self, hwg: HwgId, view_id: ViewId) -> None:
        self._switching.setdefault(hwg, set()).add(view_id)

    def observe_switch_abort(self, hwg: HwgId, view_id: ViewId) -> None:
        self._switching.get(hwg, set()).discard(view_id)

    def observe_switch_commit(self, hwg: HwgId, view_id: ViewId) -> None:
        self._switching.get(hwg, set()).discard(view_id)
        self._departed.setdefault(hwg, set()).add(view_id)
        # Drop it from any collected set too; a straggler ALL-VIEWS may
        # still re-add it, which is why _merge_one filters as well.
        per_lwg = self._collected.get(hwg)
        if per_lwg:
            for views_by_id in per_lwg.values():
                views_by_id.pop(view_id, None)

    def observe_view_msg(self, hwg: HwgId, view_id: ViewId) -> None:
        """An ordered LWG view message for ``view_id`` landed on ``hwg``.

        Only the view's coordinator multicasts these, and the same
        coordinator multicasts the view's SWITCH-COMMIT — so by
        sender-FIFO ordering, a view message delivered *after* a commit
        was sent after it: the view genuinely returned to this HWG
        (switches can round-trip, e.g. interference policy out,
        reconciliation back).  Lift the departure block, or the view
        could never merge here again.
        """
        self._departed.get(hwg, set()).discard(view_id)

    def _blocked(self, hwg: HwgId) -> Set[ViewId]:
        return self._switching.get(hwg, set()) | self._departed.get(hwg, set())

    def observe_view(self, hwg: HwgId, view: View) -> None:
        """An ordered LWG view message was delivered during a merge round.

        View installations ride the same total order as ALL-VIEWS and the
        flush, so adding them to the collected set keeps it identical at
        every member — this is what makes a view installed *after* a
        member answered ALL-VIEWS (but before the flush) merge correctly
        and uniformly.
        """
        if hwg in self._responded or hwg in self._requested:
            per_lwg = self._collected.setdefault(hwg, {})
            per_lwg.setdefault(view.group, {})[view.view_id] = view

    # ------------------------------------------------------------------
    # The flush point (Figure 5, lines 114-118)
    # ------------------------------------------------------------------
    def on_hwg_view(self, hwg: HwgId, view: View) -> None:
        """An HWG view installed: merge everything collected for it."""
        was_active = hwg in self._requested or hwg in self._responded
        collected = self._collected.pop(hwg, {})
        self._requested.discard(hwg)
        self._responded.discard(hwg)
        self._round_token[hwg] = self._round_token.get(hwg, 0) + 1
        if was_active:
            self.svc.trace("merge_round_completed", hwg=hwg)
        if not collected:
            return
        alive = set(view.members)
        for lwg, views_by_id in sorted(collected.items()):
            self._merge_one(hwg, view, lwg, views_by_id, alive)

    def _merge_one(
        self,
        hwg: HwgId,
        hwg_view: View,
        lwg: LwgId,
        views_by_id: Dict[ViewId, View],
        alive: Set[str],
    ) -> None:
        # Every input below is identical at every member (the collected
        # set is equalised by the flush), so the merge is a pure function
        # of common knowledge — the "decentralized and deterministic"
        # requirement of Figure 5.  No node-local state (our ancestor
        # tracker, our current view) may influence the candidate set:
        # node-dependent inputs make different members mint *different*
        # merged views, which then look mutually concurrent and feed an
        # unbounded merge storm.
        #
        # 1. Views with members that did not survive the flush are left
        #    for the restriction path (a later round unifies the rest).
        #    Views mid-switch or committed away are excluded identically
        #    at every member (their switch messages are ordered — see
        #    the serialisation note above).
        blocked = self._blocked(hwg)
        candidates = [
            v
            for v in views_by_id.values()
            if set(v.members) <= alive and v.view_id not in blocked
        ]
        # 2. Intra-set staleness: a collected view that is an ancestor of
        #    another collected view (judged by the parent chains present
        #    in the set itself) is superseded, not concurrent.
        ids = {v.view_id for v in candidates}
        parent_map = {v.view_id: v.parents for v in candidates}
        stale: Set[ViewId] = set()
        for view in candidates:
            stack = list(view.parents)
            seen: Set[ViewId] = set()
            while stack:
                parent = stack.pop()
                if parent in seen:
                    continue
                seen.add(parent)
                if parent in ids:
                    stale.add(parent)
                stack.extend(parent_map.get(parent, ()))
        candidates = [v for v in candidates if v.view_id not in stale]
        if len({v.view_id for v in candidates}) < 2:
            # One survivor: nothing to merge — but if *our* view was among
            # the stale set, the survivor is a successor of ours that we
            # never installed (we lagged a previous merge flush, e.g. we
            # entered the HWG view just after it).  Adopt it, exactly as
            # if its installation message had reached us.
            local = self.svc.table.local(lwg)
            if (
                len(candidates) == 1
                and local is not None
                and local.is_member
                and local.hwg == hwg
                and local.view is not None
                and local.view.view_id in stale
                and local.view.view_id != candidates[0].view_id
                and self.svc.node in candidates[0].members
            ):
                self.svc.trace(
                    "lwg_view_adopted",
                    lwg=lwg,
                    hwg=hwg,
                    adopted=str(candidates[0].view_id),
                )
                self.svc.install_local_view(local, candidates[0], reason="adopt")
            return
        merged = merge_lwg_views(lwg, sorted(candidates, key=lambda v: v.view_id))
        self.svc.trace(
            "lwg_views_merged",
            lwg=lwg,
            hwg=hwg,
            merged=str(merged.view_id),
            parents=[str(p) for p in merged.parents],
            members=list(merged.members),
        )
        self.merges_completed += 1
        self.svc.table.dir_for(hwg).record_view(merged)
        local = self.svc.table.local(lwg)
        if (
            local is None
            or not local.is_member
            or local.hwg != hwg  # we switched away mid-round
            or self.svc.node not in merged.members
        ):
            return
        assert local.view is not None
        if local.view.view_id == merged.view_id:
            return
        if local.view.view_id not in merged.parents:
            # Our lineage was not part of this round's common knowledge.
            # With minting deferred during rounds this cannot happen in
            # steady state, but a round that straddled our own switch or
            # restriction may still race: skip rather than break the
            # delivered-set continuity; the next round includes us.
            self.svc.trace(
                "merge_skipped_foreign_lineage", lwg=lwg, merged=str(merged.view_id)
            )
            return
        self.svc.install_local_view(local, merged, reason="merge")


#: Identical-signature MULTIPLE-MAPPINGS callbacks the winning
#: coordinator tolerates before declaring the losing branch dead and
#: burying its record.  Callbacks are re-sent per server while the
#: conflict persists, so this spans several renotify periods — long
#: enough for a live loser to switch or re-register.
PERSISTENT_CONFLICT_ROUNDS = 6


class ReconciliationHandler:
    """Steps 1-2: act on MULTIPLE-MAPPINGS callbacks (Section 6.2)."""

    def __init__(self, service):
        self.svc = service
        self.callbacks_received = 0
        self.switches_initiated = 0
        self.views_disowned = 0
        self.branches_buried = 0
        #: lwg -> (loser signature, consecutive identical callbacks).
        self._persistent: Dict[LwgId, Tuple[frozenset, int]] = {}

    def on_multiple_mappings(self, message: MultipleMappings) -> None:
        self.callbacks_received += 1
        disowned = self._disown_defunct_views(message)
        local = self.svc.table.local(message.lwg)
        if local is None or not local.is_member or local.view is None:
            return
        if local.coordinator() != self.svc.node:
            return  # only the view coordinator reconciles
        if local.switch_epoch is not None:
            return  # already switching
        live = [
            r for r in message.records
            if not r.deleted and r.lwg_view not in disowned
        ]
        my_record = [r for r in live if r.lwg_view == local.view.view_id]
        if not my_record:
            return  # the callback is about views we already superseded
        winner = highest_gid({r.hwg for r in live})
        if winner is None or winner == local.hwg:
            # We are on the highest-gid HWG: keep the mapping (the other
            # views switch to us) — unless a loser never does.
            self._bury_unresponsive_losers(message.lwg, local, live)
            return
        self.svc.trace(
            "reconcile_switch",
            lwg=message.lwg,
            from_hwg=local.hwg,
            to_hwg=winner,
        )
        self.switches_initiated += 1
        self.svc.start_switch(local, winner, reason="reconciliation")

    def _bury_unresponsive_losers(
        self, lwg: LwgId, local: LocalLwg, live: List[MappingRecord]
    ) -> None:
        """Retire losing records whose branch never acts on its callbacks.

        Reconciliation normally ends with the *losing* coordinator
        switching its view onto the winning HWG.  If that coordinator
        crashed for good before ever learning of the conflict (the
        notifier targets it on every round, to silence), no switch will
        come, no succession authority applies — the view is not in our
        ancestor set, we never merged with it — and the conflict would
        stand forever.  After :data:`PERSISTENT_CONFLICT_ROUNDS`
        callbacks carrying the *identical* loser set, the winning
        coordinator declares the branch dead and buries each record
        with the weakest-possible tombstone (same version and writer,
        ``deleted`` flipped).  A mis-declared live branch loses only
        its discovery beacon, not its state: its coordinator's periodic
        mapping audit re-registers at a higher version, overriding the
        burial, and reconciliation resumes with both branches alive.
        """
        losers = [
            r for r in live
            if r.lwg_view != local.view.view_id and r.hwg != local.hwg
        ]
        if not losers:
            self._persistent.pop(lwg, None)
            return
        signature = frozenset((str(r.lwg_view), r.hwg) for r in losers)
        previous, count = self._persistent.get(lwg, (None, 0))
        count = count + 1 if signature == previous else 1
        if count < PERSISTENT_CONFLICT_ROUNDS:
            self._persistent[lwg] = (signature, count)
            return
        self._persistent.pop(lwg, None)
        self.svc.trace("reconcile_bury_dead_branch", lwg=lwg, buried=len(losers))
        for r in sorted(losers, key=lambda rec: (rec.lwg_view, rec.hwg)):
            self.branches_buried += 1
            self.svc.naming.unset(replace(r, deleted=True))

    def _disown_defunct_views(self, message: MultipleMappings) -> Set[ViewId]:
        """Tombstone records citing views this node is entitled to retire.

        Two authorities apply, per record:

        * **Minting** — only this node mints ``ViewId(self.node, *)``
          (durable view-seq makes those ids unique across crashes, and a
          hash-minted merged id always has its nominal coordinator as a
          member), so a live record citing one that is not our current
          view of the LWG is defunct — typically resurrected by a
          corrupted name-server store after every replica holding the
          superseding genealogy was lost.
        * **Succession** — as the live *coordinator* of a branch, any
          record citing a view in our ancestor set is superseded by our
          own registered mapping, whoever minted it.  This retires the
          record of a dead fork (e.g. a merged view whose nominal
          coordinator crashed for good) that no other authority can
          clean up.

        Returns the disowned view ids so the caller's switch logic can
        ignore them this round (the tombstones land asynchronously).
        """
        node = self.svc.node
        local = self.svc.table.local(message.lwg)
        member = local is not None and local.is_member and local.view is not None
        current = local.view.view_id if member else None
        disowned: Set[ViewId] = set()
        refreshed = False
        for record in message.records:
            if record.deleted or record.lwg_view == current:
                continue
            minted_here = record.lwg_view.coordinator == node
            superseded = (
                member
                and local.coordinator() == node
                and local.ancestors.is_stale(record.lwg_view)
            )
            if not minted_here and not superseded:
                continue
            if member and record.hwg == local.hwg:
                # The record cites a view we moved past but still points
                # at the HWG our live branch occupies — if newer records
                # were lost (corrupted replica), it is the branch's only
                # discovery beacon, and retiring it would strand the
                # branch in an unmergeable split.  The coordinator plants
                # a fresh beacon first; a mere member leaves the record
                # alone (its coordinator re-registers on the next HWG
                # view change).
                if local.coordinator() != node:
                    continue
                if not refreshed:
                    self.svc.register_mapping(local)
                    refreshed = True
            version = max(self.svc.naming.next_version(), record.version + 1)
            self.svc.naming.observe_version(version)
            self.svc.trace(
                "disown_defunct_view",
                lwg=message.lwg,
                view=str(record.lwg_view),
            )
            self.svc.naming.unset(replace(record, version=version, writer=node, deleted=True))
            self.views_disowned += 1
            disowned.add(record.lwg_view)
        return disowned
