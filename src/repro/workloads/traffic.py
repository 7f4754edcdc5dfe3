"""Traffic generation and probing listeners.

Probe payloads are ``(kind, seq, sent_at_us)`` tuples; the
:class:`ProbeListener` reads the timestamp back at delivery to feed the
latency collector, counts deliveries, and feeds every view
installation to the recovery timer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from ..core.service import LwgListener
from ..metrics.collectors import LatencyCollector, RecoveryTimer
from ..runtime.interfaces import Runtime
from ..vsync.view import View


@dataclass
class ProbeHub:
    """Shared measurement sinks for a scenario's probe listeners."""

    env: Runtime
    latency: LatencyCollector = field(default_factory=LatencyCollector)
    recovery: RecoveryTimer = field(default_factory=RecoveryTimer)
    deliveries: int = 0
    views_seen: int = 0


class ProbeListener(LwgListener):
    """Per-(node, group) listener wired into a :class:`ProbeHub`."""

    def __init__(self, hub: ProbeHub, node: str):
        self.hub = hub
        self.node = node
        self.views: List[View] = []
        self.delivered: List[Tuple[str, Any]] = []

    def on_view(self, lwg: str, view: View) -> None:
        self.views.append(view)
        self.hub.views_seen += 1
        self.hub.recovery.note_view(lwg, self.node, view.members, self.hub.env.now)

    def on_data(self, lwg: str, src: str, payload: Any, size: int) -> None:
        self.delivered.append((src, payload))
        self.hub.deliveries += 1
        if isinstance(payload, tuple) and len(payload) == 3 and payload[0] == "probe":
            _, _, sent_at = payload
            self.hub.latency.record(lwg, sent_at, self.hub.env.now)

    @property
    def current_view(self) -> Optional[View]:
        return self.views[-1] if self.views else None


def probe_payload(env: Runtime, seq: int) -> Tuple[str, int, int]:
    """A latency-probe payload carrying its send timestamp."""
    return ("probe", seq, env.now)


class PeriodicSender:
    """Sends 256-byte probe payloads on a handle at a fixed period until
    stopped."""

    def __init__(self, env: Runtime, stack, handle, period_us: int):
        self.env = env
        self.stack = stack
        self.handle = handle
        self.period_us = period_us
        self.sent = 0
        self._stopped = False

    def start(self) -> None:
        self._tick()

    def stop(self) -> None:
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        self.handle.send(probe_payload(self.env, self.sent), 256)
        self.sent += 1
        self.stack.set_timer(self.period_us, self._tick)
