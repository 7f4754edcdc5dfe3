"""The flush procedure — the core of every view change.

"The core of these protocols is a *flush* procedure, that makes sure
that all in-transit messages are delivered before a new view is
installed" (paper Section 3.1).

A *branch* is one old view being flushed within one partition block.
The branch leader (its acting coordinator) drives three phases:

1. ``Stop`` to every participant — members stop sending, raise the
   ``Stop`` upcall to their user, and after ``StopOk`` report their
   delivery state (``FlushState``), including copies of every ordered
   message they hold beyond the leader's own prefix.
2. The leader computes the *cut*: the longest contiguous prefix covered
   by the union of all holdings (never less than anyone's delivered
   prefix), then sends each participant the messages it is missing
   (``FlushFill``).
3. Participants deliver up to the cut and acknowledge (``FlushDone``).

When every participant has acknowledged, all of them have delivered
exactly the same sequence of messages in the old view — the virtual
synchrony guarantee — and the leader may install the next view.

The engine is deliberately leader-crash-agnostic: it reports progress
and timeouts to the membership layer, which restarts rounds with a new
leader or a reduced participant set.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from ..runtime.interfaces import NodeId
from .messages import FlushDone, FlushFill, FlushState, Ordered, Stop
from .view import View, ViewId

#: Leader-side wait for FlushState / FlushDone before reporting a stall.
FLUSH_TIMEOUT_US = 400_000


class BranchFlushLeader:
    """Leader-side state machine flushing one branch (one old view).

    ``host`` must provide ``node``, ``group``, ``env``,
    ``reliable_send(dst, msg)``, ``on_message(src, msg)`` (which takes
    the leader's own Stop and fill at once), and a local
    :class:`OrderedChannel` as ``host.channel``.  Completion and stalls
    are reported through the
    ``on_complete(survivors, dedup)`` and ``on_stall(missing)`` callbacks.
    """

    def __init__(
        self,
        host,
        old_view: View,
        round_no: int,
        participants: Set[NodeId],
        on_complete: Callable[[Tuple[NodeId, ...], Dict[NodeId, int]], None],
        on_stall: Callable[[Set[NodeId]], None],
    ):
        if host.node not in participants:
            raise ValueError("flush leader must participate in its own flush")
        self.host = host
        self.old_view = old_view
        self.round_no = round_no
        self.participants = set(participants)
        self.on_complete = on_complete
        self.on_stall = on_stall
        self._states: Dict[NodeId, FlushState] = {}
        self._done: Set[NodeId] = set()
        self.cut: Optional[int] = None
        self.finished = False
        self.aborted = False
        self._timer = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Send Stop to every participant (including ourselves, locally)."""
        stop = Stop(
            group=self.host.group,
            view_id=self.old_view.view_id,
            round_no=self.round_no,
            leader=self.host.node,
            leader_have_upto=self.host.channel.have_upto(),
        )
        for member in sorted(self.participants):
            if member == self.host.node:
                self.host.on_message(self.host.node, stop)
            else:
                self.host.reliable_send(member, stop)
        self._arm_timer()

    def abort(self) -> None:
        """Stop reacting to further replies (round superseded)."""
        self.aborted = True
        if self._timer is not None:
            self._timer.cancel()

    def _arm_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()

        def check() -> None:
            if self.finished or self.aborted:
                return
            missing = self.missing_participants()
            if missing:
                self.on_stall(missing)

        self._timer = self.host.env.scheduler.schedule(FLUSH_TIMEOUT_US, check)

    def missing_participants(self) -> Set[NodeId]:
        """Participants we are still waiting on (states or dones)."""
        if self.cut is None:
            return self.participants - set(self._states)
        return self.participants - self._done

    # ------------------------------------------------------------------
    def on_flush_state(self, msg: FlushState) -> None:
        """Collect a participant's state; compute and send fills when complete."""
        if self.aborted or self.finished or self.cut is not None:
            return
        if msg.view_id != self.old_view.view_id or msg.round_no != self.round_no:
            return
        if msg.member not in self.participants:
            return
        self._states[msg.member] = msg
        if set(self._states) == self.participants:
            self._compute_and_fill()

    def _compute_and_fill(self) -> None:
        # Union of all held messages above the leader's prefix.
        union: Dict[int, Ordered] = {}
        for state in self._states.values():
            for seq, message in state.extra.items():
                union.setdefault(seq, message)
        leader_upto = self.host.channel.have_upto()
        for seq, message in self.host.channel.messages_above(-1).items():
            union.setdefault(seq, message)
        # The cut: longest contiguous coverage from sequence 0.
        cut = leader_upto
        while (cut + 1) in union:
            cut += 1
        self.cut = cut
        self._arm_timer()
        for member, state in self._states.items():
            needed = {
                seq: union[seq]
                for seq in range(state.have_upto + 1, cut + 1)
                if seq in union and seq not in state.extra
            }
            fill = FlushFill(
                group=self.host.group,
                view_id=self.old_view.view_id,
                round_no=self.round_no,
                cut=cut,
                missing=needed,
            )
            if member == self.host.node:
                self.host.on_message(self.host.node, fill)
            else:
                self.host.reliable_send(member, fill)

    def on_flush_done(self, msg: FlushDone) -> None:
        """Collect completion acks; fire ``on_complete`` when all are in."""
        if self.aborted or self.finished or self.cut is None:
            return
        if msg.view_id != self.old_view.view_id or msg.round_no != self.round_no:
            return
        if msg.member not in self.participants:
            return
        self._done.add(msg.member)
        if self._done == self.participants:
            self.finished = True
            if self._timer is not None:
                self._timer.cancel()
            survivors = tuple(
                m for m in self.old_view.members if m in self.participants
            )
            self.on_complete(survivors, self.host.channel.floor_snapshot())


class FlushParticipant:
    """Member-side flush logic for one endpoint.

    Tracks the highest-precedence round seen for the current view so
    that restarted rounds (higher ``round_no``, or equal round from a
    more senior leader) supersede stale ones.
    """

    def __init__(self, host) -> None:
        self.host = host
        self.active_view_id: Optional[ViewId] = None
        self.round_no = -1
        self.leader: Optional[NodeId] = None
        self.stop_acked = False
        self._pending_stop: Optional[Stop] = None

    def reset(self) -> None:
        """Forget flush state (a new view was installed)."""
        self.active_view_id = None
        self.round_no = -1
        self.leader = None
        self.stop_acked = False
        self._pending_stop = None

    def _precedes(self, view: View, msg_round: int, msg_leader: NodeId) -> bool:
        """True if an incoming round supersedes (or equals) the current one.

        Round numbers start at 0, so an equal round was seen before and
        ``self.leader`` is set.
        """
        if msg_round > self.round_no:
            return True
        if msg_round < self.round_no:
            return False
        assert self.leader is not None
        try:
            return view.rank_of(msg_leader) <= view.rank_of(self.leader)
        except ValueError:
            return False

    # ------------------------------------------------------------------
    def on_stop(self, msg: Stop) -> None:
        """Handle a Stop: freeze, raise the Stop upcall, then report state."""
        view = self.host.current_view
        if view is None or msg.view_id != view.view_id:
            return
        if not self._precedes(view, msg.round_no, msg.leader):
            return
        is_new_round = (msg.round_no, msg.leader) != (self.round_no, self.leader)
        self.active_view_id = msg.view_id
        self.round_no = msg.round_no
        self.leader = msg.leader
        if not is_new_round and self._pending_stop is not None:
            return  # duplicate while awaiting StopOk
        self.host.channel.freeze()
        if self.stop_acked:
            # The user already StopOk'd for this view change; a restarted
            # round only needs a fresh state report.
            self._send_state(msg)
            return
        self._pending_stop = msg
        self.host.raise_stop()  # user calls back via stop_acknowledged()

    def stop_acknowledged(self) -> None:
        """The user confirmed Stop (StopOk downcall)."""
        if self.stop_acked or self._pending_stop is None:
            return
        self.stop_acked = True
        msg, self._pending_stop = self._pending_stop, None
        self._send_state(msg)

    def _send_state(self, stop: Stop) -> None:
        state = FlushState(
            group=self.host.group,
            view_id=stop.view_id,
            round_no=stop.round_no,
            member=self.host.node,
            have_upto=self.host.channel.have_upto(),
            extra=self.host.channel.messages_above(stop.leader_have_upto),
        )
        if stop.leader == self.host.node:
            self.host.on_message(self.host.node, state)
        else:
            self.host.reliable_send(stop.leader, state)

    def on_fill(self, msg: FlushFill) -> None:
        """Apply a fill: deliver to the cut, acknowledge FlushDone."""
        view = self.host.current_view
        if view is None or msg.view_id != view.view_id:
            return
        if msg.round_no != self.round_no:
            return
        self.host.channel.apply_fill(msg.cut, msg.missing)
        done = FlushDone(
            group=self.host.group,
            view_id=msg.view_id,
            round_no=msg.round_no,
            member=self.host.node,
        )
        if self.leader == self.host.node:
            self.host.on_message(self.host.node, done)
        else:
            assert self.leader is not None
            self.host.reliable_send(self.leader, done)
