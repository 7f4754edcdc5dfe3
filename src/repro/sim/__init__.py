"""Discrete-event simulation backend.

This package stands in for the paper's physical testbed (Sparc10
workstations on a loaded 10 Mbps Ethernet): a deterministic event loop,
a partitionable broadcast network with latency/bandwidth/receive-cost
modelling and crash injection.  Scripted faults (partitions, heals,
crashes, churn) are :class:`repro.fuzz.Schedule` steps.

It is one implementation of the backend-agnostic runtime interfaces in
:mod:`repro.runtime` — :class:`Simulation` is the clock and scheduler,
:class:`Network` the fabric, and :class:`SimRuntime` the bundle handed
to protocol code.  The real-time counterpart is
:mod:`repro.runtime.asyncio_backend`.
"""

from ..runtime.rng import RngRegistry
from ..runtime.trace import NullTracer, TraceRecord, Tracer
from .engine import MS, SECOND, EventHandle, Simulation, SimulationError
from .network import LinkModel, Network, NodeId
from .process import Process, SimRuntime
from .transport import ReliableTransport

__all__ = [
    "SimRuntime",
    "MS",
    "SECOND",
    "EventHandle",
    "Simulation",
    "SimulationError",
    "LinkModel",
    "Network",
    "NodeId",
    "Process",
    "RngRegistry",
    "NullTracer",
    "TraceRecord",
    "Tracer",
    "ReliableTransport",
]
