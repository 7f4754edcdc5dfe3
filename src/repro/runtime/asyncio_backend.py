"""Real-time runtime backend: asyncio timers and UDP datagrams.

This is the second implementation of the :mod:`repro.runtime` protocols.
Where the simulator models the paper's testbed, this backend *is* a tiny
testbed: timers come from the event loop's wall clock, and every node
owns a real UDP socket on localhost, so the same unmodified protocol
code (failure detector, HWG membership, LWG service, naming) runs over
real sockets.  ``python -m repro run --backend asyncio`` replays fuzz
schedules on it, under the same checkers as the simulator.

Design notes:

* **Time** is integer microseconds since a configurable epoch on
  ``CLOCK_MONOTONIC``.  On Linux that clock is system-wide, so multiple
  OS processes given the same epoch produce directly comparable trace
  timestamps.
* **Partitions** are a userspace drop-filter (no iptables, no root):
  :meth:`UdpFabric.set_partitions` assigns nodes to blocks and datagrams
  crossing blocks are dropped on *both* the send and the receive path.
  Receive-side filtering is what makes cross-process partitions work —
  each process installs the same block map and discards traffic from the
  other side, regardless of what the sender believed when it transmitted
  (this also cuts messages already in flight, like the simulator does).
* **Group addressing** is broadcast: :class:`BroadcastAddressing`
  reports every fabric node as a potential subscriber and receivers
  filter, exactly the split UDP broadcast on a shared medium gives you.
  A process with no endpoint for a group silently ignores its traffic
  (see ``ProtocolStack._dispatch``), so probes and presence beacons
  reach group members without any cross-process registry.
"""

from __future__ import annotations

import asyncio
import socket
import time
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .codec import OversizeDatagramError, decode_datagram, encode_datagram
from .interfaces import Addressing, DeliveryCallback, FailureFeed, NodeId
from .rng import RngRegistry
from .trace import Tracer

#: Address of one node's UDP endpoint.
HostPort = Tuple[str, int]


class WallClock:
    """Integer-microsecond wall clock on ``CLOCK_MONOTONIC``.

    Processes that share an ``epoch`` (a ``time.monotonic()`` value)
    produce comparable timestamps on the same host.
    """

    def __init__(self, epoch: Optional[float] = None):
        self._epoch = time.monotonic() if epoch is None else epoch

    @property
    def epoch(self) -> float:
        """The ``time.monotonic()`` instant this clock calls zero."""
        return self._epoch

    @property
    def now(self) -> int:
        return int((time.monotonic() - self._epoch) * 1_000_000)


class AsyncioTimerHandle:
    """Cancellation handle for a timer on the event loop."""

    __slots__ = ("_handle", "fired", "cancelled")

    def __init__(self) -> None:
        self._handle: Optional[asyncio.TimerHandle] = None
        self.fired = False
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()

    @property
    def pending(self) -> bool:
        return not (self.fired or self.cancelled)


class AsyncioScheduler:
    """One-shot microsecond timers over ``loop.call_later``."""

    def __init__(self, loop: asyncio.AbstractEventLoop, clock: WallClock):
        self._loop = loop
        self._clock = clock

    def schedule(
        self, delay: int, callback: Callable[[], None]
    ) -> AsyncioTimerHandle:
        handle = AsyncioTimerHandle()

        def fire() -> None:
            handle.fired = True
            callback()

        handle._handle = self._loop.call_later(max(0, delay) / 1_000_000, fire)
        return handle

    def schedule_at(
        self, time: int, callback: Callable[[], None]
    ) -> AsyncioTimerHandle:
        return self.schedule(max(0, time - self._clock.now), callback)


class UdpFabric:
    """A message fabric of real UDP sockets on localhost.

    ``node_addrs`` maps node ids to ``(host, port)`` endpoints; nodes
    attached without a mapping bind an ephemeral port and the chosen
    address is recorded, so a single-process fabric needs no
    configuration at all.  For multi-process operation every process is
    given the same full map and attaches only its local nodes.

    Datagrams carry ``(src, payload, size)`` in the one wire format of
    :mod:`repro.runtime.codec`, so payloads must be plain data or
    registered message dataclasses: anything else raises
    :class:`~repro.runtime.codec.CodecError` from :meth:`send` /
    :meth:`multicast`, and an undecodable datagram is counted as dropped.
    """

    #: Conservative ceiling under the 64 KiB UDP datagram limit.
    MAX_DATAGRAM = 60_000
    #: Receive buffer large enough to absorb protocol bursts.
    RCVBUF = 1 << 20

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        tracer: Tracer,
        node_addrs: Optional[Dict[NodeId, HostPort]] = None,
        host: str = "127.0.0.1",
    ):
        self._loop = loop
        self.tracer = tracer
        self.host = host
        #: Known endpoints, local and remote.  Updated as nodes attach.
        self.addrs: Dict[NodeId, HostPort] = dict(node_addrs or {})
        self._sockets: Dict[NodeId, socket.socket] = {}
        self._callbacks: Dict[NodeId, DeliveryCallback] = {}
        self._alive: Dict[NodeId, bool] = {}
        self._partition_of: Dict[NodeId, int] = {}
        # Counters, mirroring the simulated Network for metric parity.
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def attach(self, node: NodeId, callback: DeliveryCallback) -> None:
        """Bind ``node``'s socket and register its delivery callback."""
        if node in self._sockets:
            self._callbacks[node] = callback
            self._alive[node] = True
            return
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, self.RCVBUF)
        sock.bind(self.addrs.get(node, (self.host, 0)))
        sock.setblocking(False)
        self.addrs[node] = sock.getsockname()[:2]
        self._sockets[node] = sock
        self._callbacks[node] = callback
        self._alive[node] = True
        self._partition_of.setdefault(node, 0)
        self._loop.add_reader(sock.fileno(), self._on_readable, node, sock)

    def detach(self, node: NodeId) -> None:
        """Close ``node``'s socket and remove it from the fabric."""
        sock = self._sockets.pop(node, None)
        if sock is not None:
            self._loop.remove_reader(sock.fileno())
            sock.close()
        self._callbacks.pop(node, None)
        self._alive.pop(node, None)
        self._partition_of.pop(node, None)
        self.addrs.pop(node, None)

    def close(self) -> None:
        """Detach every local node (teardown)."""
        for node in list(self._sockets):
            self.detach(node)

    @property
    def nodes(self) -> List[NodeId]:
        """All known node ids — attached locally or mapped remotely."""
        return sorted(set(self._callbacks) | set(self.addrs))

    # ------------------------------------------------------------------
    # Liveness (crash/recovery)
    # ------------------------------------------------------------------
    def is_alive(self, node: NodeId) -> bool:
        """True unless the node is locally attached and crashed.

        Remote nodes (mapped but not attached here) are assumed alive:
        their own process is the authority on their liveness, and its
        drop-filter enforces it.
        """
        if node in self._callbacks:
            return self._alive.get(node, False)
        return node in self.addrs

    def has_node(self, node: NodeId) -> bool:
        return node in self._callbacks or node in self.addrs

    def set_alive(self, node: NodeId, alive: bool) -> None:
        if node not in self._callbacks:
            raise KeyError(f"node {node!r} is not attached in this process")
        self._alive[node] = alive
        self.tracer.emit("network", "crash" if not alive else "recover", node=node)

    # ------------------------------------------------------------------
    # Partitions (userspace drop-filter)
    # ------------------------------------------------------------------
    def set_partitions(self, blocks: Sequence[Iterable[NodeId]]) -> None:
        """Install the drop-filter.  Unnamed nodes join block 0."""
        assignment: Dict[NodeId, int] = {}
        for index, block in enumerate(blocks):
            for node in block:
                if node in assignment:
                    raise ValueError(f"node {node!r} appears in two partition blocks")
                assignment[node] = index
        for node in self.nodes:
            self._partition_of[node] = assignment.get(node, 0)
        self.tracer.emit(
            "network", "partition",
            blocks=[sorted(n for n in self.nodes if self._partition_of[n] == i)
                    for i in range(len(blocks) or 1)],
        )

    def heal(self) -> None:
        for node in self._partition_of:
            self._partition_of[node] = 0
        self.tracer.emit("network", "heal")

    def partition_blocks(self) -> List[FrozenSet[NodeId]]:
        by_block: Dict[int, Set[NodeId]] = {}
        for node in self.nodes:
            by_block.setdefault(self._partition_of.get(node, 0), set()).add(node)
        return [frozenset(nodes) for _, nodes in sorted(by_block.items())]

    def reachable(self, a: NodeId, b: NodeId) -> bool:
        return (
            self.is_alive(a)
            and self.is_alive(b)
            and self._partition_of.get(a, 0) == self._partition_of.get(b, 0)
        )

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _encode(self, src: NodeId, payload: Any, size: int) -> bytes:
        data = encode_datagram(src, payload, size)
        if len(data) > self.MAX_DATAGRAM:
            raise OversizeDatagramError(src, len(data), self.MAX_DATAGRAM)
        return data

    def _tx_socket(self, src: NodeId) -> socket.socket:
        sock = self._sockets.get(src)
        if sock is None:
            raise KeyError(f"sender {src!r} is not attached in this process")
        return sock

    def _sendto(self, sock: socket.socket, data: bytes, dst: NodeId) -> bool:
        addr = self.addrs.get(dst)
        if addr is None:
            return False
        try:
            sock.sendto(data, addr)
        except OSError:
            return False  # transient kernel-buffer pressure: UDP may drop
        return True

    def send(self, src: NodeId, dst: NodeId, payload: Any, size: int = 256) -> bool:
        """Send a unicast datagram.  Returns False if dropped at the source."""
        self.messages_sent += 1
        self.bytes_sent += size
        if not self.reachable(src, dst):
            self.messages_dropped += 1
            return False
        if not self._sendto(self._tx_socket(src), self._encode(src, payload, size), dst):
            self.messages_dropped += 1
            return False
        return True

    def multicast(
        self, src: NodeId, dsts: Iterable[NodeId], payload: Any, size: int = 256
    ) -> int:
        """Send one payload to many destinations (one datagram each).

        Loopback to ``src`` goes through the socket like any other
        destination, preserving the asynchronous-delivery contract.
        Unreachable destinations and failed sends count as per-receiver
        drops, as in the simulated ``Network.multicast``.
        """
        self.messages_sent += 1
        self.bytes_sent += size
        if not self.is_alive(src):
            self.messages_dropped += 1
            return 0
        sock = self._tx_socket(src)
        data = self._encode(src, payload, size)
        sent = 0
        for dst in sorted(set(dsts)):
            reachable = dst == src or self.reachable(src, dst)
            if reachable and self._sendto(sock, data, dst):
                sent += 1
            else:
                self.messages_dropped += 1
        return sent

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------
    def _on_readable(self, node: NodeId, sock: socket.socket) -> None:
        while True:
            try:
                data, _ = sock.recvfrom(self.MAX_DATAGRAM + 4096)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # socket closed under us during teardown
            try:
                src, payload, size = decode_datagram(data)
            except Exception:
                self.messages_dropped += 1
                continue
            # Receive-side drop-filter: enforces THIS process's view of
            # partitions and liveness, whatever the sender believed.
            if not self.reachable(src, node):
                self.messages_dropped += 1
                continue
            callback = self._callbacks.get(node)
            if callback is None or not self._alive.get(node, False):
                self.messages_dropped += 1
                continue
            self.messages_delivered += 1
            callback(src, payload, size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"UdpFabric(local={len(self._sockets)}, known={len(self.nodes)}, "
            f"sent={self.messages_sent}, delivered={self.messages_delivered})"
        )


class BroadcastAddressing:
    """Group addressing with UDP-broadcast semantics.

    ``subscribers`` reports *every* fabric node: transmissions reach the
    whole medium and receivers filter (a stack with no endpoint for the
    group drops the message).  Local subscriptions are still tracked so
    ``groups_of`` works for teardown and debugging.
    """

    def __init__(self, fabric: UdpFabric):
        self._fabric = fabric
        self._local: Dict[str, Set[NodeId]] = {}

    def subscribe(self, group: str, node: NodeId) -> None:
        self._local.setdefault(group, set()).add(node)

    def unsubscribe(self, group: str, node: NodeId) -> None:
        members = self._local.get(group)
        if members is not None:
            members.discard(node)
            if not members:
                del self._local[group]

    def unsubscribe_all(self, node: NodeId) -> None:
        for group in list(self._local):
            self.unsubscribe(group, node)

    def subscribers(self, group: str) -> Set[NodeId]:
        return set(self._fabric.nodes)

    def groups_of(self, node: NodeId) -> Set[str]:
        return {g for g, members in self._local.items() if node in members}


class AsyncioRuntime:
    """The real-time :class:`~repro.runtime.interfaces.Runtime` bundle."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        wall_clock: WallClock,
        udp_fabric: UdpFabric,
        rng: RngRegistry,
        tracer: Tracer,
        failures: FailureFeed,
    ):
        self.loop = loop
        self._clock = wall_clock
        self._scheduler = AsyncioScheduler(loop, wall_clock)
        self._fabric = udp_fabric
        self._rng = rng
        self._tracer = tracer
        self._failures = failures

    @classmethod
    def create(
        cls,
        seed: int = 0,
        node_addrs: Optional[Dict[NodeId, HostPort]] = None,
        keep_trace: bool = True,
        epoch: Optional[float] = None,
        host: str = "127.0.0.1",
    ) -> "AsyncioRuntime":
        """Build a fresh real-time runtime.

        Pass the same ``epoch`` (a ``time.monotonic()`` value) and
        ``node_addrs`` map to every cooperating OS process.
        """
        loop = asyncio.new_event_loop()
        clock = WallClock(epoch)
        rng = RngRegistry(seed)
        tracer = Tracer(clock=lambda: clock.now, keep_records=keep_trace)
        fabric = UdpFabric(loop, tracer, node_addrs=node_addrs, host=host)
        failures = FailureFeed(fabric)
        return cls(loop, clock, fabric, rng, tracer, failures)

    # ------------------------------------------------------------------
    # Runtime protocol surface
    # ------------------------------------------------------------------
    @property
    def clock(self) -> WallClock:
        return self._clock

    @property
    def scheduler(self) -> AsyncioScheduler:
        return self._scheduler

    @property
    def fabric(self) -> UdpFabric:
        return self._fabric

    @property
    def rng(self) -> RngRegistry:
        return self._rng

    @property
    def tracer(self) -> Tracer:
        return self._tracer

    @property
    def failures(self) -> FailureFeed:
        return self._failures

    @property
    def now(self) -> int:
        return self._clock.now

    def run_for(self, duration_us: int) -> None:
        """Run the event loop for ``duration_us`` of wall time."""
        if duration_us > 0:
            self.loop.run_until_complete(asyncio.sleep(duration_us / 1_000_000))

    def group_addressing(self) -> Addressing:
        return BroadcastAddressing(self._fabric)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every socket and the event loop."""
        self._fabric.close()
        if not self.loop.is_closed():
            self.loop.close()

    def __enter__(self) -> "AsyncioRuntime":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
