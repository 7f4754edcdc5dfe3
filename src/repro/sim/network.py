"""Simulated network: topology, latency/bandwidth model, partitions, multicast.

The model reproduces the first-order costs of the paper's testbed (a
loaded 10 Mbps shared Ethernet with IP multicast):

* **Shared medium** — transmissions serialize on one global channel, so
  unrelated traffic delays everyone (the paper's "interference through
  a common multicast transport channel").
* **Multicast** — one transmission reaches any number of destinations
  (IP-multicast semantics); the *receivers* each pay a per-message
  processing cost, so delivering a message to processes that will only
  filter it out is not free (the paper's "need to filter information at
  the LWG layer").
* **Partitions** — the shared :class:`~repro.runtime.interfaces.Fabric`
  rules: messages between blocks are dropped both at send and at
  delivery time, so a partition event cuts messages already in flight.

Delivery callbacks are registered per node via :meth:`Network.attach`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, Optional, Tuple

from ..runtime.interfaces import DeliveryCallback, Fabric, NodeId
from ..runtime.rng import RngRegistry
from ..runtime.trace import Tracer
from .engine import Simulation

__all__ = ["DeliveryCallback", "LinkModel", "Network", "NodeId"]

#: Bound on the sorted-destination memo (distinct destination sets are
#: few — view memberships and name-server peer sets — but churny
#: workloads must not grow the cache without limit).
_SORTED_DSTS_MEMO_MAX = 1024

@dataclass
class LinkModel:
    """Cost model for message transmission and reception.

    Attributes:
        latency_us: one-way propagation latency in microseconds.
        jitter_us: uniform jitter added to the latency, ``[0, jitter_us]``.
        bandwidth_bps: channel bandwidth in bits per second; serialization
            delay for a message of ``size`` bytes is ``size*8/bandwidth``.
        per_message_overhead_bytes: fixed framing overhead added to every
            message before the serialization delay is computed.
        rx_cost_us: receiver CPU cost to process one incoming message —
            paid per destination, which is what makes over-wide multicast
            groups expensive.
        loss_probability: independent per-delivery drop probability
            (unicast) or per-receiver drop probability (multicast).
    """

    latency_us: int = 500
    jitter_us: int = 100
    bandwidth_bps: int = 10_000_000
    per_message_overhead_bytes: int = 64
    rx_cost_us: int = 50
    loss_probability: float = 0.0

    def serialization_us(self, size: int) -> int:
        """Time to put ``size`` bytes on the wire."""
        total_bits = (size + self.per_message_overhead_bytes) * 8
        return max(1, int(total_bits * 1_000_000 / self.bandwidth_bps))


class Network(Fabric):
    """A partitionable broadcast-domain network of named nodes.

    The node registry, liveness and partition rules are the shared
    :class:`~repro.runtime.interfaces.Fabric`; this class adds the wire.
    """

    def __init__(
        self,
        sim: Simulation,
        rng: RngRegistry,
        tracer: Optional[Tracer] = None,
        link: Optional[LinkModel] = None,
    ):
        super().__init__(tracer or Tracer(clock=lambda: sim.now, keep_records=False))
        self.sim = sim
        self.link = link or LinkModel()
        self._rng = rng.stream("network")
        # Busy-until times for the serialization model.
        self._medium_free_at = 0
        self._rx_free_at: Dict[NodeId, int] = {}
        self.deliveries_scheduled = 0
        # Fan-out memo effectiveness: a sender whose destination set
        # changes every round defeats the sorted-destination memo and
        # shows up as a miss-heavy ratio in bench snapshots.
        self.fanout_memo_hits = 0
        self.fanout_memo_misses = 0
        # Hot-path cache (see docs/PERFORMANCE.md).  The sorted-
        # destination memo preserves the replay-critical sorted iteration
        # order of ``multicast`` while paying the sort once per distinct
        # destination set; it is invalidated whenever the node population
        # changes.
        self._sorted_dsts: Dict[FrozenSet[NodeId], Tuple[NodeId, ...]] = {}

    def attach(self, node: NodeId, callback: DeliveryCallback) -> None:
        """Register ``node`` with its delivery callback.  Node starts alive."""
        super().attach(node, callback)
        self._sorted_dsts.clear()

    def detach(self, node: NodeId) -> None:
        """Remove ``node`` from the network entirely."""
        super().detach(node)
        self._sorted_dsts.clear()

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _transmission_end(self, size: int) -> int:
        """Reserve the medium for ``size`` bytes; return when they are on the wire."""
        link = self.link
        # ``link.serialization_us(size)`` inlined: one frame per transmission.
        serialization = max(
            1,
            int((size + link.per_message_overhead_bytes) * 8 * 1_000_000 / link.bandwidth_bps),
        )
        end = max(self.sim.now, self._medium_free_at) + serialization
        self._medium_free_at = end
        return end

    def _delivery_time(self, dst: NodeId, wire_done: int) -> int:
        """Arrival + receiver-processing completion time for one delivery."""
        link = self.link
        arrival = wire_done + link.latency_us
        jitter_us = link.jitter_us
        if jitter_us:
            # ``randint(0, jitter_us)`` without its three Python frames:
            # CPython's ``_randbelow`` rejection loop over ``getrandbits``,
            # which consumes exactly the same stream (see multicast).
            bound = jitter_us + 1
            bits = bound.bit_length()
            getrandbits = self._rng.getrandbits
            jitter = getrandbits(bits)
            while jitter >= bound:
                jitter = getrandbits(bits)
            arrival += jitter
        rx_start = max(arrival, self._rx_free_at.get(dst, 0))
        rx_done = rx_start + link.rx_cost_us
        self._rx_free_at[dst] = rx_done
        return rx_done

    def _deliver(self, src: NodeId, dst: NodeId, payload: Any, size: int) -> None:
        # Re-check reachability at delivery: a partition or crash that
        # happened while the message was in flight drops it.  The test is
        # ``reachable`` inlined — every delivery funnels through here.
        alive = self._alive
        partition_of = self._partition_of
        if not (
            alive.get(src, False)
            and alive.get(dst, False)
            and partition_of.get(src) == partition_of.get(dst)
        ):
            self.messages_dropped += 1
            return
        callback = self._callbacks.get(dst)
        if callback is None:
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        callback(src, payload, size)

    def send(self, src: NodeId, dst: NodeId, payload: Any, size: int = 256) -> bool:
        """Send a unicast message.  Returns False if dropped at the source."""
        self.messages_sent += 1
        self.bytes_sent += size
        if not self.reachable(src, dst):
            self.messages_dropped += 1
            return False
        if self.link.loss_probability and self._rng.random() < self.link.loss_probability:
            self.messages_dropped += 1
            return False
        done = self._delivery_time(dst, self._transmission_end(size))
        self.deliveries_scheduled += 1
        self.sim.schedule_at(done, self._deliver, src, dst, payload, size)
        return True

    def multicast(
        self, src: NodeId, dsts: Iterable[NodeId], payload: Any, size: int = 256
    ) -> int:
        """Send one transmission to many destinations (IP-multicast model).

        The medium is reserved once; every reachable destination pays its
        own receive-processing cost.  Returns the number of scheduled
        deliveries.  Unreachable destinations count as per-receiver drops
        (mirroring the unicast ``send`` accounting).
        """
        self.messages_sent += 1
        self.bytes_sent += size
        if not self._alive.get(src, False):
            self.messages_dropped += 1
            return 0
        wire_done = self._transmission_end(size)
        scheduled = 0
        # Iterate destinations in sorted order: callers often pass sets,
        # and the per-receiver jitter draws below must not depend on a
        # hash-randomized iteration order or runs stop being replayable
        # across interpreter processes.  The sort is memoized per distinct
        # destination set — protocol layers multicast to the same view
        # membership over and over.
        key = frozenset(dsts)
        order = self._sorted_dsts.get(key)
        if order is None:
            self.fanout_memo_misses += 1
            if len(self._sorted_dsts) >= _SORTED_DSTS_MEMO_MAX:
                self._sorted_dsts.clear()
            order = self._sorted_dsts[key] = tuple(sorted(key))
        else:
            self.fanout_memo_hits += 1
        # The per-destination body below is ``_delivery_time`` +
        # ``reachable`` inlined with hoisted attribute lookups: the
        # fan-out loop is the fabric's hottest code.  The logic (including
        # the order of RNG draws) must stay exactly equivalent to the
        # helper methods or replays diverge.  Each delivery is one
        # handle-free heap entry firing ``self._deliver``, read here at
        # send time so an instance-level wrap (``FabricMeter``) sees it.
        link = self.link
        loss = link.loss_probability
        jitter_us = link.jitter_us
        latency_us = link.latency_us
        rx_cost_us = link.rx_cost_us
        rng = self._rng
        # Jitter is ``rng.randint(0, jitter_us)`` spelled out as CPython's
        # ``_randbelow`` rejection loop: ``getrandbits(k)`` for the bound's
        # bit length, redrawn while out of range.  Same calls on the same
        # generator, so the same stream, without the ``randint`` ->
        # ``randrange`` -> ``_randbelow`` frames.
        getrandbits = rng.getrandbits
        jitter_bound = jitter_us + 1
        jitter_bits = jitter_bound.bit_length()
        alive = self._alive
        partition_of = self._partition_of
        src_block = partition_of.get(src)
        rx_free_at = self._rx_free_at
        deliver = self._deliver
        schedule_at = self.sim.schedule_at
        dropped = 0
        for dst in order:
            if dst == src:
                # Loopback delivery skips the network but keeps rx cost.
                arrival = self.sim.now + latency_us
                if jitter_us:
                    jitter = getrandbits(jitter_bits)
                    while jitter >= jitter_bound:
                        jitter = getrandbits(jitter_bits)
                    arrival += jitter
            else:
                if not alive.get(dst, False) or partition_of.get(dst) != src_block:
                    dropped += 1
                    continue
                if loss and rng.random() < loss:
                    dropped += 1
                    continue
                arrival = wire_done + latency_us
                if jitter_us:
                    jitter = getrandbits(jitter_bits)
                    while jitter >= jitter_bound:
                        jitter = getrandbits(jitter_bits)
                    arrival += jitter
            rx_start = rx_free_at.get(dst, 0)
            if arrival > rx_start:
                rx_start = arrival
            done = rx_start + rx_cost_us
            rx_free_at[dst] = done
            schedule_at(done, deliver, src, dst, payload, size)
            scheduled += 1
        self.messages_dropped += dropped
        self.deliveries_scheduled += scheduled
        return scheduled
