"""Real-time runtime backend: asyncio timers and UDP datagrams.

This is the second implementation of the :mod:`repro.runtime` protocols.
Where the simulator models the paper's testbed, this backend *is* a tiny
testbed: timers come from the event loop's wall clock, and every node
owns a real UDP socket on localhost, so the same unmodified protocol
code (failure detector, HWG membership, LWG service, naming) runs over
real sockets.  ``python -m repro run --backend asyncio`` replays fuzz
schedules on it, under the same checkers as the simulator.

Design notes:

* **Time** is integer microseconds since the runtime was created, on
  ``CLOCK_MONOTONIC``.
* **Partitions and crashes** are the simulator's own rules, from the
  shared :class:`~repro.runtime.interfaces.Fabric`, enforced as a
  userspace drop-filter (no iptables, no root) on *both* the send and
  the receive path.  The receive-side filter discards traffic from the
  other side regardless of what the sender believed when it transmitted
  (this also cuts messages already in flight, like the simulator does).
* **Group addressing** is the simulator's too: every node runs in this
  one OS process, so one :class:`~repro.vsync.locator.GroupAddressing`
  registry holds every subscription.
"""

from __future__ import annotations

import asyncio
import socket
import time
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from .codec import OversizeDatagramError, decode_datagram, encode_datagram
from .interfaces import DeliveryCallback, Fabric, FailureFeed, NodeId
from .rng import RngRegistry
from .trace import Tracer

#: Address of one node's UDP endpoint.
HostPort = Tuple[str, int]


class WallClock:
    """Integer-microsecond wall clock on ``CLOCK_MONOTONIC``, zero at
    construction."""

    def __init__(self) -> None:
        self._epoch = time.monotonic()

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


class UdpFabric(Fabric):
    """A message fabric of real UDP sockets on localhost.

    Each attached node binds an ephemeral port on 127.0.0.1 and the
    chosen address is recorded, so the fabric needs no configuration.
    The node registry, liveness and partition rules are the shared
    :class:`~repro.runtime.interfaces.Fabric`; this class adds the
    sockets.

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

    def __init__(self, loop: asyncio.AbstractEventLoop, tracer: Tracer):
        super().__init__(tracer)
        self._loop = loop
        #: node -> bound endpoint, recorded as nodes attach.
        self.addrs: Dict[NodeId, HostPort] = {}
        self._sockets: Dict[NodeId, socket.socket] = {}

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def attach(self, node: NodeId, callback: DeliveryCallback) -> None:
        """Bind ``node``'s socket and register its delivery callback."""
        super().attach(node, callback)
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, self.RCVBUF)
        sock.bind(("127.0.0.1", 0))
        sock.setblocking(False)
        self.addrs[node] = sock.getsockname()[:2]
        self._sockets[node] = sock
        self._loop.add_reader(sock.fileno(), self._on_readable, node, sock)

    def detach(self, node: NodeId) -> None:
        """Close ``node``'s socket and remove it from the fabric."""
        super().detach(node)
        sock = self._sockets.pop(node, None)
        if sock is not None:
            self._loop.remove_reader(sock.fileno())
            sock.close()
        self.addrs.pop(node, None)

    def close(self) -> None:
        """Detach every node (teardown)."""
        for node in list(self._sockets):
            self.detach(node)

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
            raise KeyError(f"sender {src!r} is not attached")
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
            # Receive-side drop-filter: partitions and liveness as they
            # are now, whatever the sender believed.
            if not self.reachable(src, node):
                self.messages_dropped += 1
                continue
            self.messages_delivered += 1
            self._callbacks[node](src, payload, size)


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
        self.clock = wall_clock
        self.scheduler = AsyncioScheduler(loop, wall_clock)
        self.fabric = udp_fabric
        self.rng = rng
        self.tracer = tracer
        self.failures = failures

    @classmethod
    def create(cls, seed: int = 0, keep_trace: bool = True) -> "AsyncioRuntime":
        """Build a fresh real-time runtime."""
        loop = asyncio.new_event_loop()
        clock = WallClock()
        rng = RngRegistry(seed)
        tracer = Tracer(clock=lambda: clock.now, keep_records=keep_trace)
        fabric = UdpFabric(loop, tracer)
        failures = FailureFeed(fabric)
        return cls(loop, clock, fabric, rng, tracer, failures)

    @property
    def now(self) -> int:
        return self.clock.now

    def run_for(self, duration_us: int) -> None:
        """Run the event loop for ``duration_us`` of wall time."""
        if duration_us > 0:
            self.loop.run_until_complete(asyncio.sleep(duration_us / 1_000_000))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every socket and the event loop."""
        self.fabric.close()
        if not self.loop.is_closed():
            self.loop.close()

    def __enter__(self) -> "AsyncioRuntime":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
