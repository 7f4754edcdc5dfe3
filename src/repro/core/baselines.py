"""The Figure-2 comparison services: no-LWG and static-LWG.

The paper's evaluation compares three ways to run the same user groups:

* **no LWG service** — every user group is its own virtually synchronous
  (heavy-weight) group.  :class:`NoLwgService` is a thin facade mapping
  the user API directly onto :class:`~repro.vsync.hwg.HwgEndpoint`, with
  no LWG layer at all (no encapsulation, no filtering, no naming
  traffic) — exactly what an application would do without the service.
* **static LWG service** — every user group is an LWG statically mapped
  onto one global HWG shared by everybody.  Implemented as the real
  :class:`~repro.core.service.LwgService` with a
  :class:`~repro.core.mapping_policy.StaticMappingPolicy` and the
  adaptive machinery disabled, so it pays the full interference cost the
  dynamic policies exist to avoid.
* **dynamic LWG service** — the real thing (:func:`make_dynamic_service`).

All three expose the same ``join(name, listener) -> handle`` shape so
benchmarks drive them identically.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional

from ..naming.client import NamingClient
from ..vsync.hwg import HwgListener
from ..vsync.view import View
from .config import LwgConfig
from .mapping_policy import StaticMappingPolicy
from .service import DEFAULT_PAYLOAD_BYTES, LwgListener, LwgService


class _DirectAdapter(HwgListener):
    """Adapts HWG upcalls to the LwgListener shape for the no-LWG facade."""

    def __init__(self, name: str, listener: LwgListener):
        self.name = name
        self.listener = listener

    def on_view(self, group, view: View) -> None:
        self.listener.on_view(self.name, view)

    def on_data(self, group, src, payload, size) -> None:
        self.listener.on_data(self.name, src, payload, size)

    def on_left(self, group) -> None:
        self.listener.on_left(self.name)


class DirectHandle:
    """Handle over a raw HWG endpoint (API-compatible with LwgHandle)."""

    def __init__(self, endpoint, name: str):
        self._endpoint = endpoint
        self.lwg = name

    def send(self, payload: Any, size: Optional[int] = None) -> None:
        self._endpoint.send(payload, size if size is not None else DEFAULT_PAYLOAD_BYTES)

    def leave(self) -> None:
        self._endpoint.leave()

    @property
    def view(self) -> Optional[View]:
        return self._endpoint.current_view

    @property
    def is_member(self) -> bool:
        return self._endpoint.current_view is not None

    @property
    def hwg(self) -> str:
        return self._endpoint.group


class NoLwgService:
    """Baseline: one heavy-weight group per user group, no LWG layer."""

    def __init__(self, stack):
        self.stack = stack
        self.node = stack.node
        self._handles: Dict[str, DirectHandle] = {}

    @staticmethod
    def _group_for(name: str) -> str:
        # A dedicated HWG per user group; same id at every process.
        return f"hwg:direct:{name}"

    def join(self, name: str, listener: Optional[LwgListener] = None) -> DirectHandle:
        group = self._group_for(name)
        endpoint = self.stack.endpoint(
            group, _DirectAdapter(name, listener or LwgListener())
        )
        endpoint.join()
        handle = DirectHandle(endpoint, name)
        self._handles[name] = handle
        return handle

    def leave(self, name: str) -> None:
        handle = self._handles.pop(name, None)
        if handle is not None:
            handle.leave()

    def send(self, name: str, payload: Any, size: Optional[int] = None) -> None:
        self._handles[name].send(payload, size)


def static_config(base: Optional[LwgConfig] = None) -> LwgConfig:
    """The static service: no policies, no reconciliation, fixed mapping."""
    base = base or LwgConfig()
    return replace(base, enable_policies=False, enable_reconciliation=False)


def make_static_service(
    stack,
    naming: NamingClient,
    config: Optional[LwgConfig] = None,
    hwg: str = "hwg:static:000000",
) -> LwgService:
    """A static light-weight group service: everything on one global HWG."""
    return LwgService(
        stack,
        naming,
        config=static_config(config),
        mapping_policy=StaticMappingPolicy(hwg),
    )


def make_dynamic_service(
    stack,
    naming: NamingClient,
    config: Optional[LwgConfig] = None,
) -> LwgService:
    """The paper's transparent dynamic (and partitionable) LWG service."""
    return LwgService(stack, naming, config=config)
