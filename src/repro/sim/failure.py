"""Crash and recovery injection.

Crashes are *fail-stop*: a crashed node neither sends nor receives, and
messages in flight to it are dropped.  Recovery brings the node back with
whatever volatile protocol state its process chooses to rebuild (the
process is notified through its ``on_crash`` / ``on_recover`` hooks, see
:mod:`repro.sim.process`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .engine import Simulation
from .network import Network, NodeId


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled crash or recovery."""

    time: int
    node: NodeId
    crash: bool  # True = crash, False = recover


class FailureInjector:
    """Schedules crash/recovery events and notifies interested parties."""

    def __init__(self, sim: Simulation, network: Network):
        self.sim = sim
        self.network = network
        self.events: List[FailureEvent] = []
        self._hooks: Dict[NodeId, List[Callable[[bool], None]]] = {}

    def on_transition(self, node: NodeId, hook: Callable[[bool], None]) -> None:
        """Register ``hook(crashed)`` called when ``node`` crashes/recovers."""
        self._hooks.setdefault(node, []).append(hook)

    def crash_at(self, time: int, node: NodeId) -> "FailureInjector":
        """Schedule a fail-stop crash of ``node`` at ``time``."""
        self.events.append(FailureEvent(time, node, crash=True))
        self.sim.schedule_at(time, self._apply, node, True)
        return self

    def recover_at(self, time: int, node: NodeId) -> "FailureInjector":
        """Schedule recovery of ``node`` at ``time``."""
        self.events.append(FailureEvent(time, node, crash=False))
        self.sim.schedule_at(time, self._apply, node, False)
        return self

    def crash_now(self, node: NodeId) -> None:
        """Crash ``node`` immediately."""
        self._apply(node, crash=True)

    def recover_now(self, node: NodeId) -> None:
        """Recover ``node`` immediately."""
        self._apply(node, crash=False)

    def _apply(self, node: NodeId, crash: bool) -> None:
        want_alive = not crash
        if self.network.has_node(node) and self.network.is_alive(node) == want_alive:
            # Already in the requested state: crashing a crashed node or
            # recovering a live one is a no-op, and in particular the
            # transition hooks must not fire a second time (they wipe
            # and rebuild protocol state).  Unknown nodes still raise,
            # via set_alive below.
            return
        self.network.set_alive(node, want_alive)
        for hook in self._hooks.get(node, []):
            hook(crash)
