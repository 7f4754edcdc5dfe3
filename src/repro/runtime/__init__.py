"""Backend-agnostic runtime layer.

Everything above the wire — the reliable transport, the virtual-synchrony
stack, the naming service and the LWG service — depends only on the
narrow surface defined here: a :class:`~repro.runtime.interfaces.Clock`,
a :class:`~repro.runtime.interfaces.Scheduler` (timers with
cancellation), a :class:`~repro.runtime.interfaces.Fabric` (per-node
attach / send / multicast with partition drop-filters, the one class
both backends' fabrics subclass) and the
:class:`~repro.runtime.interfaces.Runtime` bundle that also carries the
:class:`~repro.runtime.rng.RngRegistry` and
:class:`~repro.runtime.trace.Tracer`.

Two backends implement it:

* ``repro.sim`` — the deterministic discrete-event backend
  (:class:`~repro.sim.process.SimRuntime`), where time is simulated and
  every run replays bit-identically from its seed;
* :mod:`repro.runtime.asyncio_backend` — a real-time backend
  (:class:`~repro.runtime.asyncio_backend.AsyncioRuntime`) over
  wall-clock asyncio timers and UDP datagrams on localhost, so the same
  unmodified protocol code runs over real sockets.

``python -m repro run --backend {sim,asyncio}`` replays one fuzz
schedule on either backend, under the same checkers.
"""

from .interfaces import (
    MS,
    SECOND,
    Clock,
    DeliveryCallback,
    Fabric,
    FailureFeed,
    NodeId,
    Runtime,
    Scheduler,
    TimerHandle,
)
from .rng import RngRegistry
from .trace import NullTracer, TraceRecord, Tracer

__all__ = [
    "MS",
    "SECOND",
    "Clock",
    "DeliveryCallback",
    "Fabric",
    "FailureFeed",
    "NodeId",
    "NullTracer",
    "RngRegistry",
    "Runtime",
    "Scheduler",
    "TimerHandle",
    "TraceRecord",
    "Tracer",
]
