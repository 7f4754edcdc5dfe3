"""Client side of the naming service (the Table-2 interface).

A :class:`NamingClient` lives on every application process, piggybacked
on its protocol stack.  It exposes the paper's three primitives —
``set``, ``read`` and ``testset`` — in their view-augmented form, as
asynchronous calls (the simulation is event-driven): each returns via a
completion callback carrying the live records the contacted server
holds for the LWG.

Partition tolerance comes from retry-and-rotate: a request that times
out is retried against the next server in the list, forever — the
deployment assumption (Section 5.2) is that every partition retains at
least one reachable server.  All operations are idempotent (records are
versioned, testset re-proposes the same record), so retries are safe.
Every server holds every record, so any server can answer any request.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..runtime.interfaces import NodeId
from ..vsync.view import ViewId
from .messages import MultipleMappings, NamingMessage, NsRequest, NsResponse
from .records import LwgId, MappingRecord

ReplyCallback = Callable[[Tuple[MappingRecord, ...]], None]
MultipleMappingsHandler = Callable[[MultipleMappings], None]

#: Per-attempt RPC timeout before rotating to the next server; doubled
#: on every retry of the same call up to the cap.  A fixed retry
#: interval would be fine if a timeout only ever meant "server
#: unreachable", but during a mass heal it means "wire congested" — and
#: re-sending every 150 ms then multiplies every in-flight request by
#: the latency/timeout ratio, which is what *keeps* the wire congested
#: (classic retry-induced congestion collapse).
RPC_TIMEOUT_US = 150_000
RPC_BACKOFF_CAP_US = 4_800_000


class _PendingCall:
    """One outstanding RPC with its retry state."""

    def __init__(self, request: NsRequest, on_reply: Optional[ReplyCallback]):
        self.request = request
        self.on_reply = on_reply
        self.attempts = 0
        self.timer = None


class NamingClient:
    """Naming-service access for one application process."""

    def __init__(self, stack, servers: Sequence[NodeId]):
        if not servers:
            raise ValueError("naming client needs at least one server")
        self.stack = stack
        self.env = stack.env
        self.node: NodeId = stack.node
        self.servers: List[NodeId] = list(servers)
        self._request_counter = 0
        self._version_counter = 0
        self._pending: Dict[int, _PendingCall] = {}
        # Spread first-choice servers across clients deterministically.
        self._server_offset = sum(ord(c) for c in self.node) % len(self.servers)
        self.on_multiple_mappings: Optional[MultipleMappingsHandler] = None
        self.requests_sent = 0
        self.retries = 0
        stack.register_handler(NamingMessage, self._handle_message)

    # ------------------------------------------------------------------
    # Public API (Table 2, view-augmented per Section 5.2)
    # ------------------------------------------------------------------
    def next_version(self) -> int:
        """Monotonic version stamp for records written by this process."""
        self._version_counter += 1
        return self._version_counter

    def observe_version(self, version: int) -> None:
        """Raise the version floor (single-writer monotonic discipline)
        after overwriting a record that already carried ``version``."""
        self._version_counter = max(self._version_counter, version)

    def set(
        self,
        record: MappingRecord,
        parents: Sequence[ViewId] = (),
        on_reply: Optional[ReplyCallback] = None,
    ) -> None:
        """ns.set: establish/update a mapping for an LWG view."""
        self._call("set", record.lwg, record, tuple(parents), on_reply)

    def read(self, lwg: LwgId, on_reply: ReplyCallback) -> None:
        """ns.read: fetch the live mappings currently stored for ``lwg``."""
        self._call("read", lwg, None, (), on_reply)

    def testset(
        self,
        record: MappingRecord,
        parents: Sequence[ViewId] = (),
        on_reply: Optional[ReplyCallback] = None,
    ) -> None:
        """ns.testset: return the current mapping, installing ours if none.

        The reply carries the winning records — compare against the
        proposal to learn whether it was accepted.
        """
        self._call("testset", record.lwg, record, tuple(parents), on_reply)

    def unset(
        self,
        record: MappingRecord,
        on_reply: Optional[ReplyCallback] = None,
    ) -> None:
        """Remove a mapping via tombstone (LWG destroyed)."""
        self._call("unset", record.lwg, record, (), on_reply)

    # ------------------------------------------------------------------
    # RPC machinery
    # ------------------------------------------------------------------
    def _call(
        self,
        op: str,
        lwg: LwgId,
        record: Optional[MappingRecord],
        parents: Tuple[ViewId, ...],
        on_reply: Optional[ReplyCallback],
    ) -> None:
        self._request_counter += 1
        request = NsRequest(
            request_id=self._request_counter,
            op=op,
            lwg=lwg,
            record=record,
            parents=parents,
        )
        call = _PendingCall(request, on_reply)
        self._pending[request.request_id] = call
        self._attempt(call)

    def _attempt(self, call: _PendingCall) -> None:
        server = self.servers[(self._server_offset + call.attempts) % len(self.servers)]
        call.attempts += 1
        if call.attempts > 1:
            self.retries += 1
        self.requests_sent += 1
        self.stack.send(server, call.request, call.request.size_bytes())
        delay = min(RPC_TIMEOUT_US << (call.attempts - 1), RPC_BACKOFF_CAP_US)
        call.timer = self.stack.set_timer(delay, lambda: self._attempt(call))

    def _handle_message(self, src: NodeId, msg: NamingMessage) -> bool:
        # Registered for every NamingMessage: server-to-server traffic
        # that reaches a client is consumed and ignored.
        if isinstance(msg, NsResponse):
            call = self._pending.pop(msg.request_id, None)
            if call is not None:
                if call.timer is not None:
                    call.timer.cancel()
                if call.on_reply is not None:
                    call.on_reply(msg.records)
        elif isinstance(msg, MultipleMappings):
            if self.on_multiple_mappings is not None:
                self.on_multiple_mappings(msg)
        return True

    def cancel_all(self) -> None:
        """Drop every outstanding call (process shutdown)."""
        for call in self._pending.values():
            if call.timer is not None:
                call.timer.cancel()
        self._pending.clear()
