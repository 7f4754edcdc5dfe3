"""View-change orchestration: joins, leaves, suspicions and merges.

One :class:`ViewChangeManager` runs per endpoint.  It accumulates
*triggers* (pending joins, leaves, current suspicions, merge candidates
discovered through presence beacons) and, whenever this endpoint is the
*acting coordinator* of its view, runs restartable view-change rounds:

* flush the local branch (see :mod:`repro.vsync.flush`);
* for merges, ask each foreign branch coordinator to flush its own view
  and report back (``MergeRequest`` / ``BranchFlushed``);
* mint the new view — members in deterministic seniority order, view id
  ``(leader, seq)``, parents = all flushed branch view ids — and install
  it at every member.

The *acting coordinator* is the most senior view member not currently
suspected; when the real coordinator is partitioned away, seniority
hands leadership to the next survivor, which is how each partition side
keeps making progress and how concurrent views arise.  Concurrent merge
leaders are totally ordered by process id: the smaller absorbs, the
larger yields its round and defers its own merges (PROTOCOLS.md §5
lists the livelock each such rule prevents).

Failure handling is uniformly timeout-and-restart: stalled flushes are
retried once, then retried without the silent members; foreign branches
that never report are dropped from the merge; a branch coordinator that
flushed for a merge leader that then vanished installs a recovery view
of its own branch so its members are never stuck.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Set, Tuple

from ..runtime.interfaces import NodeId
from .flush import BranchFlushLeader
from .messages import (
    BranchFlushed,
    InstallView,
    JoinRequest,
    LeaveRequest,
    MergeDecline,
    MergeRequest,
    Presence,
)
from .view import View, ViewId, merge_member_order

#: How long a merge leader waits for BranchFlushed replies.
MERGE_BRANCH_TIMEOUT_US = 900_000
#: How long a subordinate branch waits for the merge leader's InstallView.
INSTALL_TIMEOUT_US = 1_500_000

#: How long a leader-eligible coordinator keeps deferring its own merge
#: rounds after sighting a beacon from a *smaller* live coordinator
#: (who will absorb us; our competing round would only add traffic).
#: A few beacon periods: if the smaller leader dies, its beacons stop
#: and the window lapses.
MERGE_DEFER_WINDOW_US = 2_000_000


class EndpointState(enum.Enum):
    """Lifecycle of an endpoint's group membership."""

    IDLE = "idle"
    JOINING = "joining"
    MEMBER = "member"
    LEAVING = "leaving"


class _BranchStatus(enum.Enum):
    WAITING = "waiting"
    FLUSHED = "flushed"
    DROPPED = "dropped"


class _ForeignBranch:
    """Leader-side record of one foreign branch being merged in."""

    def __init__(self, coordinator: NodeId, view_id: ViewId):
        self.coordinator = coordinator
        self.view_id = view_id
        self.status = _BranchStatus.WAITING
        self.flushed: Optional[BranchFlushed] = None


class _Round:
    """One view-change attempt led by this endpoint."""

    def __init__(self, round_no: int, epoch: int):
        self.round_no = round_no
        self.epoch = epoch
        self.joins: Set[NodeId] = set()
        self.leaves: Set[NodeId] = set()
        self.suspects: Set[NodeId] = set()
        self.refresh = False
        self.foreign: Dict[NodeId, _ForeignBranch] = {}
        self.flush: Optional[BranchFlushLeader] = None
        self.own_done: Optional[Tuple[Tuple[NodeId, ...], Dict[NodeId, int]]] = None
        self.stalls_by_member: Dict[NodeId, int] = {}
        self.installing = False
        self.merge_timer = None


class _Subordinate:
    """State while flushing our branch on behalf of a foreign merge leader."""

    def __init__(self, leader: NodeId, epoch: int, round_no: int):
        self.leader = leader
        self.epoch = epoch
        self.round_no = round_no
        self.flush: Optional[BranchFlushLeader] = None
        self.reported = False
        self.install_timer = None
        #: Flush result, kept so a retrying leader can be re-reported
        #: under its fresh epoch without re-flushing.
        self.survivors: Tuple[NodeId, ...] = ()
        self.dedup: Dict[NodeId, int] = {}


class ViewChangeManager:
    """Coordinates all view changes for one endpoint.

    The ``endpoint`` is the owning :class:`~repro.vsync.hwg.HwgEndpoint`;
    the manager reads its ``node``, ``group``, ``env``, ``stack``,
    ``channel``, ``participant``, ``current_view``, ``state`` and
    ``known_ancestors`` attributes and calls its messaging/upcall helpers.
    """

    def __init__(self, endpoint) -> None:
        self.ep = endpoint
        self.pending_joins: Set[NodeId] = set()
        self.pending_leaves: Set[NodeId] = set()
        self.pending_merges: Dict[NodeId, Presence] = {}
        self.round: Optional[_Round] = None
        self.subordinate: Optional[_Subordinate] = None
        self.highest_round_seen = -1
        self._epoch_counter = 0
        self.refresh_requested = False
        self._abandoned_evidence: Optional[ViewId] = None
        #: Sim-time until which merge-only rounds are deferred because a
        #: smaller live coordinator was sighted.
        self._defer_until = 0

    # ------------------------------------------------------------------
    # Role queries
    # ------------------------------------------------------------------
    def acting_coordinator(self) -> NodeId:
        """Most senior non-suspected member of the current view.

        Only a MEMBER or LEAVING endpoint asks, and its view holds itself,
        so there always is one.
        """
        view = self.ep.current_view
        assert view is not None
        node, fd = self.ep.node, self.ep.fd
        return next(m for m in view.members if m == node or not fd.is_suspected(m))

    def am_leader(self) -> bool:
        return self.acting_coordinator() == self.ep.node

    def _current_suspects(self, view: View) -> Set[NodeId]:
        return {m for m in view.members if m != self.ep.node and self.ep.fd.is_suspected(m)}

    # ------------------------------------------------------------------
    # Trigger intake
    # ------------------------------------------------------------------
    def on_join_request(self, msg: JoinRequest) -> None:
        if self.ep.state is not EndpointState.MEMBER or not self.am_leader():
            return  # the joiner retries against the right coordinator
        view = self.ep.current_view
        if view is not None and msg.joiner in view.members:
            # A JoinRequest from a *current* member means the node
            # restarted under the failure detector's radar: only a
            # JOINING endpoint sends these, so the membership entry is
            # its dead incarnation — still holding a dedup floor that
            # would silently swallow the new life's restarted sender
            # numbering if we re-admitted it as a continuing member.
            # Evict the stale entry first; the joiner keeps retrying and
            # is then admitted as a genuine joiner (fresh floor, state
            # snapshot) once the view has forgotten its previous life.
            self.ep.trace("rejoin_evicts_stale_member", joiner=msg.joiner)
            if self.round is None or msg.joiner not in self.round.leaves:
                # (A retry landing while the eviction round runs must not
                # queue a second one: it would expel the new life too.)
                self.pending_leaves.add(msg.joiner)
            self.maybe_start()
            return
        self.pending_joins.add(msg.joiner)
        self.maybe_start()

    def on_leave_request(self, msg: LeaveRequest) -> None:
        if self.ep.state not in (EndpointState.MEMBER, EndpointState.LEAVING):
            return
        view = self.ep.current_view
        assert view is not None
        if msg.leaver not in view.members:
            # The group already moved on without the leaver: it was
            # excluded as a suspect (e.g. while partitioned away) and is
            # now retrying a leave against a view that forgot it, which
            # no round will ever answer.  Release it directly — an
            # InstallView with no view finishes the leave at a LEAVING
            # endpoint and is ignored in every other state.
            self.ep.trace("leave_release_stale", leaver=msg.leaver)
            self.ep.reliable_send(
                msg.leaver,
                InstallView(group=self.ep.group, view=None,
                            round_no=self.highest_round_seen),
            )
            return
        if not self.am_leader():
            return
        self.pending_leaves.add(msg.leaver)
        self.maybe_start()

    def on_suspicion_change(self, peer: NodeId, suspected: bool) -> None:
        """FD callback: suspicion state of ``peer`` changed."""
        view = self.ep.current_view
        if view is None or peer not in view.members:
            return
        if suspected:
            # Leadership may have shifted to us; a stalled round led by the
            # suspect will be superseded by ours thanks to round precedence.
            self.maybe_start()

    def on_presence(self, src: NodeId, msg: Presence) -> None:
        """A beacon from some view of our group arrived.

        ``src`` is the coordinator that minted the beacon: abandonment
        evidence, merge duel-avoidance and the pending-merge table are
        all keyed by coordinator identity.
        """
        if self.ep.state is not EndpointState.MEMBER:
            return
        view = self.ep.current_view
        if view is None or msg.view_id == view.view_id:
            return
        if msg.view_id in self.ep.known_ancestors:
            return  # a stale beacon from a view we already superseded
        included = self.ep.node in msg.members
        if not included and src == self.acting_coordinator():
            # Our own coordinator is beaconing a view that excludes us
            # and is neither ours nor one we superseded: it moved on
            # without us (we were dropped from a flush while alive — a
            # deferred StopOk, or a one-way reachability glitch).  We are
            # deaf on a stale branch and no retransmission is coming.
            # Two consecutive sightings (beacons are periodic; a racing
            # InstallView lands in between) confirm the strand — then we
            # secede into a singleton view and let the merge machinery
            # reunite us.
            if self._abandoned_evidence == msg.view_id:
                self._abandoned_evidence = None
                self.ep.trace("abandoned_secede", stale_view=str(view.view_id))
                self.ep.secede()
            else:
                self._abandoned_evidence = msg.view_id
            return
        if not self.am_leader():
            return
        # Deterministic duel-avoidance: the coordinator with the smaller
        # process id leads the merge.
        if self.ep.node < src:
            self.pending_merges[src] = msg
            self.maybe_start()
        else:
            # A smaller live coordinator is beaconing.  It will absorb
            # us (everyone yields to the smaller leader), so starting
            # our own merge round toward third parties only adds a
            # competing leader to the heal storm.  Defer merge-only
            # rounds while its beacons stay fresh.
            self._defer_until = self.ep.env.now + MERGE_DEFER_WINDOW_US

    def request_refresh(self) -> None:
        """Force a flush + identity view change (Figure-5 merge support).

        The upper layer (LWG merge protocol) uses this to create a
        synchronisation point: the flush equalises delivery of every
        in-transit ordered message, and the fresh view marks the instant
        at which all members merge their concurrent LWG views.
        """
        self.refresh_requested = True
        self.maybe_start()

    # ------------------------------------------------------------------
    # Round lifecycle
    # ------------------------------------------------------------------
    def maybe_start(self) -> None:
        """Start a view-change round if we lead and there is work to do.

        Every caller runs at a MEMBER or LEAVING endpoint.
        """
        if self.round is not None or self.subordinate is not None:
            return
        if not self.am_leader():
            return
        view = self.ep.current_view
        assert view is not None
        suspects = self._current_suspects(view)
        joins = {j for j in self.pending_joins if j not in view.members}
        leaves = {l for l in self.pending_leaves if l in view.members}
        merges = dict(self.pending_merges)
        refresh = self.refresh_requested
        if not (suspects or joins or leaves or merges or refresh):
            return
        if (
            merges
            and not (suspects or joins or leaves or refresh)
            and self.ep.env.now < self._defer_until
        ):
            # Merge-only work while a smaller coordinator's beacons are
            # fresh: it will absorb us; hold our fire (pending merges
            # stay queued for when the window lapses).
            return
        self.refresh_requested = False
        self._epoch_counter += 1
        rnd = _Round(self._next_round_no(), self._epoch_counter)
        rnd.joins = joins
        rnd.leaves = leaves
        rnd.suspects = suspects
        rnd.refresh = refresh
        self.pending_joins -= joins
        # Every queued leave is spent here: one for a node this view no
        # longer holds must not survive to expel that node once it rejoins.
        self.pending_leaves.clear()
        self.pending_merges.clear()
        self.round = rnd
        self.ep.trace("round_start", round_no=rnd.round_no, joins=sorted(joins),
                      leaves=sorted(leaves), suspects=sorted(suspects),
                      merges=sorted(merges))
        for coordinator, presence in merges.items():
            branch = _ForeignBranch(coordinator, presence.view_id)
            rnd.foreign[coordinator] = branch
            self.ep.reliable_send(
                coordinator,
                MergeRequest(
                    group=self.ep.group,
                    leader=self.ep.node,
                    leader_view_id=view.view_id,
                    target_view_id=presence.view_id,
                    epoch=rnd.epoch,
                ),
            )
        if rnd.foreign:
            rnd.merge_timer = self.ep.env.scheduler.schedule(
                MERGE_BRANCH_TIMEOUT_US, lambda: self._merge_timeout(rnd)
            )
        # _current_suspects() never names us, so we always take part.
        participants = set(view.members) - suspects
        self._flush_branch(rnd, participants, self._own_flush_done, self._own_flush_stalled)

    def _next_round_no(self) -> int:
        """A round number above every one seen, so that the flush it
        labels supersedes any earlier attempt at its participants."""
        self.highest_round_seen += 1
        return self.highest_round_seen

    def _flush_branch(self, owner, participants: Set[NodeId], on_done, on_stalled) -> None:
        """(Re)start flushing our current view among ``participants``.

        ``owner`` is the record the flush runs for — our own
        :class:`_Round` or a :class:`_Subordinate` — and is handed back
        to ``on_done(owner, survivors, dedup)`` / ``on_stalled(owner,
        missing)``, which drop results of a record that is no longer
        current.
        """
        view = self.ep.current_view
        assert view is not None
        owner.flush = BranchFlushLeader(
            host=self.ep,
            old_view=view,
            round_no=owner.round_no,
            participants=participants,
            on_complete=lambda survivors, dedup: on_done(owner, survivors, dedup),
            on_stall=lambda missing: on_stalled(owner, missing),
        )
        owner.flush.start()

    def _own_flush_done(
        self, rnd: _Round, survivors: Tuple[NodeId, ...], dedup: Dict[NodeId, int]
    ) -> None:
        if self.round is not rnd:
            return
        rnd.own_done = (survivors, dedup)
        self._try_finish(rnd)

    def _own_flush_stalled(self, rnd: _Round, missing: Set[NodeId]) -> None:
        """Flush timed out waiting on ``missing``: retry, then exclude them."""
        if self.round is not rnd or rnd.own_done is not None:
            return
        retry_same = True
        for member in missing:
            count = rnd.stalls_by_member.get(member, 0) + 1
            rnd.stalls_by_member[member] = count
            if count > 1:
                retry_same = False
        assert rnd.flush is not None
        participants = set(rnd.flush.participants)
        rnd.flush.abort()
        if not retry_same:
            participants -= missing
            rnd.suspects |= missing
            self.ep.trace("flush_exclude", members=sorted(missing), round_no=rnd.round_no)
        if self.ep.node not in participants or not participants:
            self._abandon_round(rnd)
            return
        rnd.round_no = self._next_round_no()
        self._flush_branch(rnd, participants, self._own_flush_done, self._own_flush_stalled)

    def _merge_timeout(self, rnd: _Round) -> None:
        if self.round is not rnd:
            return
        for branch in rnd.foreign.values():
            if branch.status is _BranchStatus.WAITING:
                branch.status = _BranchStatus.DROPPED
                self.ep.trace("merge_branch_dropped", coordinator=branch.coordinator)
        self._try_finish(rnd)

    def on_branch_flushed(self, msg: BranchFlushed) -> None:
        rnd = self.round
        if rnd is None or msg.epoch > rnd.epoch:
            return
        # A report paired with an *older* epoch of ours is still good:
        # the branch froze at its cut when it flushed and stays frozen
        # until our install, so a reply that congestion pushed past the
        # merge timeout of the round that requested it answers the
        # current round's request just as well.  (Requiring an exact
        # epoch match livelocks under load: every round's replies land
        # just after that round dropped its branches, forever.)  If the
        # branch moved on after all — it gave up waiting and installed
        # a recovery view — our install is refused over there and the
        # merged view's flush stall shrinks it back out.
        branch = rnd.foreign.get(msg.branch_coordinator)
        if branch is None or branch.status is not _BranchStatus.WAITING:
            return
        branch.status = _BranchStatus.FLUSHED
        branch.flushed = msg
        self._try_finish(rnd)

    def on_merge_decline(self, msg: MergeDecline) -> None:
        rnd = self.round
        if rnd is None or msg.epoch != rnd.epoch:
            return
        branch = rnd.foreign.get(msg.decliner)
        if branch is not None and branch.status is _BranchStatus.WAITING:
            branch.status = _BranchStatus.DROPPED
            self._try_finish(rnd)

    def _try_finish(self, rnd: _Round) -> None:
        if self.round is not rnd or rnd.installing or rnd.own_done is None:
            return
        if any(b.status is _BranchStatus.WAITING for b in rnd.foreign.values()):
            return
        rnd.installing = True
        if rnd.merge_timer is not None:
            rnd.merge_timer.cancel()
        self._install_new_view(rnd)

    # ------------------------------------------------------------------
    # New-view construction and installation
    # ------------------------------------------------------------------
    def _install_new_view(self, rnd: _Round) -> None:
        old_view = self.ep.current_view
        assert old_view is not None and rnd.own_done is not None
        survivors, dedup = rnd.own_done
        flushed_any = any(
            b.status is _BranchStatus.FLUSHED for b in rnd.foreign.values()
        )
        if (
            rnd.foreign
            and not flushed_any
            and not rnd.joins
            and not rnd.leaves
            and not rnd.refresh
            and tuple(survivors) == old_view.members == (self.ep.node,)
        ):
            # A merge-only singleton round whose every foreign branch
            # declined or timed out.  Minting an identity view here is
            # not harmless: it bumps our view id, which invalidates the
            # Presence every *other* leader is about to target us with —
            # N healing singletons churn each other's merge targets
            # forever (a beacon-lag livelock).  Keep the current view,
            # resume the channel, and retry on the next beacon.
            self.ep.trace("merge_round_noop", round_no=rnd.round_no)
            self.round = None
            self.ep.participant.reset()
            self.ep.channel.thaw()
            return
        branches = [
            View(self.ep.group, old_view.view_id, tuple(survivors), old_view.parents)
        ]
        merged_dedup: Dict[NodeId, int] = dict(dedup)
        for branch in rnd.foreign.values():
            if branch.status is not _BranchStatus.FLUSHED:
                continue
            flushed = branch.flushed
            assert flushed is not None and flushed.branch_view is not None
            ordered_survivors = tuple(
                m for m in flushed.branch_view.members if m in flushed.survivors
            )
            if not ordered_survivors:
                continue
            branches.append(
                View(
                    self.ep.group,
                    flushed.branch_view.view_id,
                    ordered_survivors,
                    flushed.branch_view.parents,
                )
            )
            for sender, floor in flushed.dedup.items():
                if floor > merged_dedup.get(sender, -1):
                    merged_dedup[sender] = floor
        base_order = merge_member_order(branches)
        members = [m for m in base_order if m not in rnd.leaves]
        for joiner in sorted(rnd.joins):
            if joiner not in members:
                members.append(joiner)
        leavers = set(rnd.leaves) & set(base_order)
        parents = tuple(sorted({b.view_id for b in branches}))
        if not members:
            # Everyone left: no successor view; just release the leavers.
            for leaver in leavers:
                self._send_install(leaver, None, rnd.round_no, old_view.view_id, {})
            self.ep.trace("group_dissolved", view=str(old_view.view_id))
            self.round = None
            return
        new_view = View(
            group=self.ep.group,
            view_id=ViewId(self.ep.node, self.ep.stack.next_view_seq()),
            members=tuple(members),
            parents=parents,
        )
        self.ep.trace(
            "view_minted",
            view=str(new_view.view_id),
            members=list(new_view.members),
            parents=[str(p) for p in parents],
        )
        recipients = set(members) | leavers
        via: Dict[NodeId, Optional[ViewId]] = {}
        for branch in branches:
            for member in branch.members:
                via[member] = branch.view_id
        # State transfer: joiners (no flush context) receive a snapshot
        # captured now — after our branch flushed, at the delivery cut.
        joiners = {m for m in new_view.members if via.get(m) is None}
        # A joiner starts a fresh channel incarnation (sender_seq restarts
        # from 1).  A floor remembered from a previous incarnation of the
        # same node — it left or seceded, then rejoined — would make the
        # sequencer silently swallow its first messages.
        for joiner in joiners:
            merged_dedup.pop(joiner, None)
        app_state = self.ep.capture_state() if joiners else None
        local_install: Optional[InstallView] = None
        for recipient in sorted(recipients):
            is_joiner = recipient in joiners
            install = InstallView(
                group=self.ep.group,
                view=new_view if recipient in new_view.members else None,
                round_no=rnd.round_no,
                via_branch=via.get(recipient),
                dedup=dict(merged_dedup),
                app_state=app_state if is_joiner else None,
                app_state_size=256 if (is_joiner and app_state is not None) else 0,
            )
            if recipient == self.ep.node:
                local_install = install
            else:
                self.ep.reliable_send(recipient, install)
        # Install locally last so self-state stays consistent while sending.
        if local_install is not None:
            self.ep.apply_install(self.ep.node, local_install)

    def _send_install(
        self,
        recipient: NodeId,
        view: Optional[View],
        round_no: int,
        via_branch: Optional[ViewId],
        dedup: Dict[NodeId, int],
    ) -> None:
        install = InstallView(
            group=self.ep.group, view=view, round_no=round_no,
            via_branch=via_branch, dedup=dedup,
        )
        if recipient == self.ep.node:
            self.ep.apply_install(self.ep.node, install)
        else:
            self.ep.reliable_send(recipient, install)

    def _abandon_round(self, rnd: _Round) -> None:
        if rnd.flush is not None:
            rnd.flush.abort()
        if rnd.merge_timer is not None:
            rnd.merge_timer.cancel()
        if self.round is rnd:
            self.round = None

    def round_completed(self) -> None:
        """Called by the endpoint after a view installs; clears round state."""
        if self.round is not None:
            self._abandon_round(self.round)
        if self.subordinate is not None:
            self._clear_subordinate()

    def observed_round(self, round_no: int) -> None:
        """Track the highest round number seen as a participant."""
        if round_no > self.highest_round_seen:
            self.highest_round_seen = round_no

    # ------------------------------------------------------------------
    # Subordinate side of a merge (we flush for a foreign leader)
    # ------------------------------------------------------------------
    def on_merge_request(self, src: NodeId, msg: MergeRequest) -> None:
        view = self.ep.current_view
        decline = MergeDecline(group=self.ep.group, decliner=self.ep.node, epoch=msg.epoch)
        sub = self.subordinate
        if sub is not None:
            if sub.leader == msg.leader:
                # The leader's previous round moved on before our flush
                # report reached it and it is retrying.  Our branch is
                # frozen at the reported cut, so pair with the retry's
                # epoch (and re-report if the flush already finished)
                # instead of busy-declining — a mass heal would
                # otherwise burn one install timeout per absorbed
                # branch.
                sub.epoch = msg.epoch
                if sub.reported:
                    self.ep.trace("merge_rereport", leader=msg.leader, epoch=msg.epoch)
                    self._report_flush(sub)
                return
            self.ep.reliable_send(src, decline)
            return
        # Note: msg.target_view_id is deliberately *not* matched against
        # our current view.  The request targets whatever Presence the
        # leader saw last; under a mass heal our view id may have moved
        # on by the time it lands.  The flush covers our *current* view
        # and BranchFlushed carries that view explicitly, so a stale
        # hint is harmless — declining it would leave two healing
        # coordinators chasing each other's beacons forever.
        if (
            self.ep.state is not EndpointState.MEMBER
            or view is None
            or not self.am_leader()
            or not (msg.leader < self.ep.node)
        ):
            self.ep.reliable_send(src, decline)
            return
        if self.round is not None:
            # We lead our own round, but a *smaller* leader wants to
            # absorb us.  Busy-declining here livelocks a symmetric merge
            # storm (N singleton leaders each perpetually mid-round,
            # declining each other forever); yielding to the smaller id
            # makes the order total — the globally smallest leader never
            # yields, so some merge always completes.
            self.ep.trace("merge_yield", to=msg.leader)
            self._abandon_round(self.round)
        self._accept_merge(msg)

    def _accept_merge(self, msg: MergeRequest) -> None:
        """Become the subordinate of ``msg.leader``: flush our branch."""
        view = self.ep.current_view
        assert view is not None
        sub = _Subordinate(leader=msg.leader, epoch=msg.epoch, round_no=self._next_round_no())
        self.subordinate = sub
        participants = set(view.members) - self._current_suspects(view)
        self.ep.trace("merge_accept", leader=msg.leader, epoch=msg.epoch)
        self._flush_branch(sub, participants, self._subordinate_flushed, self._subordinate_stalled)

    def _subordinate_flushed(
        self, sub: _Subordinate, survivors: Tuple[NodeId, ...], dedup: Dict[NodeId, int]
    ) -> None:
        if self.subordinate is not sub or sub.reported:
            return
        sub.reported = True
        sub.survivors = tuple(survivors)
        sub.dedup = dict(dedup)
        self._report_flush(sub)

    def _report_flush(self, sub: _Subordinate) -> None:
        """(Re-)send BranchFlushed to the merge leader and (re-)arm the
        install timeout."""
        view = self.ep.current_view
        assert view is not None
        self.ep.reliable_send(
            sub.leader,
            BranchFlushed(
                group=self.ep.group,
                epoch=sub.epoch,
                branch_view=view,
                survivors=sub.survivors,
                dedup=dict(sub.dedup),
                branch_coordinator=self.ep.node,
            ),
        )
        if sub.install_timer is not None:
            sub.install_timer.cancel()
        sub.install_timer = self.ep.env.scheduler.schedule(
            INSTALL_TIMEOUT_US,
            lambda: self._subordinate_install_timeout(sub, sub.survivors, sub.dedup),
        )

    def _subordinate_stalled(self, sub: _Subordinate, missing: Set[NodeId]) -> None:
        """A member of our branch went silent mid-merge-flush: shrink and retry."""
        if self.subordinate is not sub or sub.reported:
            return
        assert sub.flush is not None
        participants = set(sub.flush.participants) - missing
        sub.flush.abort()
        if self.ep.node not in participants or not participants:
            self._clear_subordinate()
            return
        sub.round_no = self._next_round_no()
        self._flush_branch(sub, participants, self._subordinate_flushed, self._subordinate_stalled)

    def _subordinate_install_timeout(
        self, sub: _Subordinate, survivors: Tuple[NodeId, ...], dedup: Dict[NodeId, int]
    ) -> None:
        """The merge leader vanished after we flushed: self-install a recovery view."""
        if self.subordinate is not sub:
            return
        view = self.ep.current_view
        assert view is not None
        if view.members == (self.ep.node,) and tuple(survivors) == view.members:
            # Singleton branch: there is nobody a recovery *install*
            # would tell anything new — minting a fresh view id here
            # only invalidates the (still retrying, merely congested)
            # leader's round and restarts the chase.  Resume the current
            # view instead; the next MergeRequest re-flushes from
            # scratch, so messages published after the thaw are covered.
            self.ep.trace("merge_recovery_noop", round_no=sub.round_no)
            self._clear_subordinate()
            self.ep.participant.reset()
            self.ep.channel.thaw()
            return
        recovery = View(
            group=self.ep.group,
            view_id=ViewId(self.ep.node, self.ep.stack.next_view_seq()),
            members=tuple(m for m in view.members if m in survivors),
            parents=(view.view_id,),
        )
        self.ep.trace("merge_recovery_view", view=str(recovery.view_id))
        for member in recovery.members:
            self._send_install(member, recovery, sub.round_no, view.view_id, dict(dedup))

    def _clear_subordinate(self) -> None:
        sub = self.subordinate
        if sub is None:
            return
        if sub.flush is not None:
            sub.flush.abort()
        if sub.install_timer is not None:
            sub.install_timer.cancel()
        self.subordinate = None

    # ------------------------------------------------------------------
    # Reset (used on leave/crash)
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop every pending trigger and active round."""
        if self.round is not None:
            self._abandon_round(self.round)
        self._clear_subordinate()
        self.pending_joins.clear()
        self.pending_leaves.clear()
        self.pending_merges.clear()
