"""Per-process protocol stack: transport, failure detector, endpoints.

One :class:`ProtocolStack` runs on every simulated process.  It owns

* a :class:`~repro.sim.transport.ReliableTransport` for control traffic,
* one shared :class:`~repro.vsync.failure_detector.FailureDetector`
  (shared across every group on the node — a resource the light-weight
  group service deliberately does *not* duplicate per group), and
* the node's :class:`~repro.vsync.hwg.HwgEndpoint` instances, one per
  heavy-weight group, with message dispatch by group id.

It also drives the periodic machinery: heartbeat emission, suspicion
checks and presence beacons.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Set, Tuple, Type, Union

from ..runtime.interfaces import NodeId, Runtime
from ..sim.process import Process
from ..sim.transport import ReliableTransport, _Segment
from .failure_detector import FailureDetector
from .hwg import HwgEndpoint, HwgListener
from .locator import GroupAddressing
from .messages import Heartbeat, VsyncMessage
from .view import GroupId, ViewId

#: ``handler(src, msg) -> bool``: True when the handler consumed ``msg``.
Handler = Callable[[NodeId, Any], bool]
#: The message classes a handler consumes (``issubclass`` semantics).
Kinds = Union[Type[Any], Tuple[Type[Any], ...]]


#: How often the failure detector checks its peers for timeouts.
FD_CHECK_PERIOD_US = 50_000
#: Presence-beacon period (merge discovery).
BEACON_PERIOD_US = 400_000
#: Stability-tick period of every ordered channel.
STABILITY_PERIOD_US = 500_000
#: Installed views remembered for :meth:`ProtocolStack.is_stale_view`.
VIEW_HISTORY_LIMIT = 64


@dataclass
class VsyncConfig:
    """Tunables of the virtual-synchrony substrate (times in microseconds).

    Every other substrate timer is a constant of the one module that
    reads it, like the tick periods above.
    """

    heartbeat_period_us: int = 100_000
    fd_timeout_us: int = 350_000


class ProtocolStack(Process):
    """All vsync machinery hosted by one simulated process."""

    def __init__(
        self,
        env: Runtime,
        node: NodeId,
        addressing: GroupAddressing,
        config: Optional[VsyncConfig] = None,
    ):
        super().__init__(env, node)
        self.addressing = addressing
        self.config = config or VsyncConfig()
        self.transport = ReliableTransport(env, node, self._deliver_control)
        self.fd = FailureDetector(
            env, node, self._fd_multicast,
            timeout_us=self.config.fd_timeout_us,
        )
        self.fd.subscribe(self._on_suspicion_change)
        self.endpoints: Dict[GroupId, HwgEndpoint] = {}
        #: Bumped on every endpoint creation/drop/state change; lets the
        #: layers above cache endpoint-derived sets (e.g. the member-HWG
        #: list the mapping policies consult) without rescans.
        self.endpoint_epoch = 0
        # Components above vsync (naming client, LWG layer) register
        # handlers here with the message classes they consume; a handler
        # returning True consumes the message.  ``_routes`` memoizes, per
        # concrete message class, the handlers whose kinds it subclasses,
        # in registration order, so a message is offered only to the
        # handlers that declared it.
        self._handlers: List[Tuple[Kinds, Handler]] = []
        self._routes: Dict[type, Tuple[Handler, ...]] = {}
        # A restart is ``on_recover`` on this same object, so the node's
        # identity carries over from one life to the next: the view-id
        # counter, the installed-view history and (in the transport) the
        # incarnation.
        self._view_seq = 0
        #: ``(group, view id, incarnation)`` of the latest installed views.
        self._view_history: Deque[Tuple[GroupId, ViewId, int]] = deque(
            maxlen=VIEW_HISTORY_LIMIT
        )
        self.set_periodic(
            self.config.heartbeat_period_us,
            self.fd.tick_heartbeat,
            jitter_stream=f"hb:{node}",
        )
        self.set_periodic(FD_CHECK_PERIOD_US, self.fd.tick_check)
        self.set_periodic(
            BEACON_PERIOD_US, self._tick_beacons, jitter_stream=f"beacon:{node}"
        )
        self.set_periodic(
            STABILITY_PERIOD_US,
            self._tick_stability,
            jitter_stream=f"stability:{node}",
        )

    # ------------------------------------------------------------------
    # Endpoint management
    # ------------------------------------------------------------------
    def endpoint(self, group: GroupId, listener: Optional[HwgListener] = None) -> HwgEndpoint:
        """Return (creating on first use) this node's endpoint for ``group``."""
        ep = self.endpoints.get(group)
        if ep is None:
            ep = HwgEndpoint(self, group, listener)
            self.endpoints[group] = ep
            self.endpoint_epoch += 1
        elif listener is not None:
            ep.listener = listener
        return ep

    def drop_endpoint(self, group: GroupId) -> None:
        """Forget an endpoint (after it left its group)."""
        self.endpoints.pop(group, None)
        self.endpoint_epoch += 1

    def next_view_seq(self) -> int:
        """Monotonic per-process counter for minting view identifiers.

        The counter survives a crash with this object, so a ViewId
        minted after a restart can never collide with one from a
        previous incarnation — which is what makes installed-view
        history a sound staleness judgement (see :meth:`is_stale_view`).
        """
        self._view_seq += 1
        return self._view_seq

    def note_view_installed(self, group: GroupId, view_id: ViewId) -> None:
        """Record an installed view in the bounded per-node history."""
        self._view_history.append((group, view_id, self.transport.incarnation))

    def is_stale_view(self, group: GroupId, view_id: ViewId) -> bool:
        """True if this node installed ``view_id`` in a *previous* life.

        A recovered node re-joins its groups from scratch; an InstallView
        for a view it already sat in before the crash is leftovers from
        the dead incarnation and must not be re-installed (the live
        members have moved on — re-accepting it would fork the group's
        view history).
        """
        current = self.transport.incarnation
        for entry_group, entry_view, entry_incarnation in self._view_history:
            if (
                entry_group == group
                and entry_view == view_id
                and entry_incarnation < current
            ):
                return True
        return False

    # ------------------------------------------------------------------
    # Messaging helpers used by endpoints
    # ------------------------------------------------------------------
    def reliable_send(self, dst: NodeId, msg: VsyncMessage, size: int) -> None:
        # A flush or view-change leader hands its own copies straight to
        # ``HwgEndpoint.on_message`` / ``apply_install``; they never get here.
        self.transport.send(dst, msg, size)

    def raw_multicast(self, dsts: Iterable[NodeId], msg: VsyncMessage, size: int) -> None:
        self.multicast(dsts, msg, size)

    def _fd_multicast(self, peers: Set[NodeId], msg: Heartbeat, size: int) -> None:
        self.multicast(peers, msg, msg.size_bytes())

    # ------------------------------------------------------------------
    # Inbound dispatch
    # ------------------------------------------------------------------
    def on_message(self, src: NodeId, msg: Any, size: int) -> None:
        self.fd.on_heartbeat(src)  # any traffic is evidence of liveness
        if type(msg) is _Segment:
            self.transport.on_segment(src, msg)
            return
        self._dispatch(src, msg)

    def _deliver_control(self, src: NodeId, msg: Any, size: int) -> None:
        self._dispatch(src, msg)

    def _dispatch(self, src: NodeId, msg: Any) -> None:
        if isinstance(msg, Heartbeat):
            return
        kind = type(msg)
        route = self._routes.get(kind)
        if route is None:
            route = self._routes[kind] = tuple(
                handler for kinds, handler in self._handlers if issubclass(kind, kinds)
            )
        for handler in route:
            if handler(src, msg):
                return
        if not isinstance(msg, VsyncMessage):
            return
        endpoint = self.endpoints.get(msg.group)
        if endpoint is not None:
            endpoint.on_message(src, msg)

    def register_handler(self, kinds: Kinds, handler: Handler) -> None:
        """Register ``handler(src, msg) -> bool`` for messages of ``kinds``.

        ``kinds`` is a class or a tuple of classes; the handler is offered
        exactly the messages that are instances of one of them, after
        every earlier-registered handler that also claims the message.
        """
        self._handlers.append((kinds, handler))
        self._routes.clear()

    # ------------------------------------------------------------------
    # Periodic machinery
    # ------------------------------------------------------------------
    def _tick_beacons(self) -> None:
        for endpoint in list(self.endpoints.values()):
            endpoint.beacon()

    def _tick_stability(self) -> None:
        for endpoint in list(self.endpoints.values()):
            endpoint.channel.tick_stability()

    def _on_suspicion_change(self, peer: NodeId, suspected: bool) -> None:
        for endpoint in list(self.endpoints.values()):
            endpoint.on_suspicion_change(peer, suspected)

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        self.transport.stop()
        self.addressing.unsubscribe_all(self.node)
        for endpoint in self.endpoints.values():
            endpoint.channel.freeze()  # its timers must not outlive this life
        self.endpoints.clear()
        self.fd.reset()

    def on_recover(self) -> None:
        # A recovered process comes back with a clean slate: applications
        # re-join their groups, which the merge machinery treats like any
        # other concurrent-view bootstrap.
        self.transport.restart()
        # Each life advances the incarnation by two (``restart``'s bump
        # and this one), the numbering the pinned fuzz digests record.
        self.transport.incarnation += 1
        self._trace_recovered()

    def _trace_recovered(self) -> None:
        self.env.tracer.emit(
            "recovery",
            "stack_recovered",
            node=self.node,
            incarnation=self.transport.incarnation,
        )
