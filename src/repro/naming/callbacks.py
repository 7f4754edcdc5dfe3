"""Conflict detection and MULTIPLE-MAPPINGS notification.

The paper rejects polling ("this could load the servers with
unnecessary requests") in favour of callbacks: whenever a server's
database holds live mappings of one LWG onto *different* HWGs, it
notifies the coordinators of all affected LWG views (Section 6.1).

Notifications are re-sent periodically while a conflict persists —
callbacks ride the unreliable network, coordinators change, and the
switch that resolves the conflict may itself be disrupted by further
membership churn.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Tuple

from ..vsync.view import ProcessId
from .database import NamingDatabase
from .messages import MultipleMappings
from .records import LwgId

#: A conflict's identity: the set of (lwg_view, hwg) pairs involved.
ConflictSignature = FrozenSet[Tuple[str, str]]

SendCallback = Callable[[ProcessId, MultipleMappings], None]


class ConflictNotifier:
    """Tracks conflicts in a database and dispatches callbacks."""

    def __init__(
        self,
        server_id: ProcessId,
        send: SendCallback,
        clock: Callable[[], int],
        renotify_period_us: int = 600_000,
    ):
        self.server_id = server_id
        self.send = send
        self.clock = clock
        self.renotify_period_us = renotify_period_us
        self._last_sent: Dict[LwgId, Tuple[ConflictSignature, int]] = {}
        self.notifications_sent = 0

    @staticmethod
    def signature(records) -> ConflictSignature:
        return frozenset((str(r.lwg_view), r.hwg) for r in records)

    def check(self, db: NamingDatabase) -> int:
        """Scan ``db`` for conflicts; notify new or still-unresolved ones.

        Returns the number of MULTIPLE-MAPPINGS messages sent.
        """
        now = self.clock()
        sent = 0
        conflicts = db.conflicts()
        for lwg in list(self._last_sent):
            if lwg not in conflicts:
                del self._last_sent[lwg]  # resolved
        for lwg, records in conflicts.items():
            signature = self.signature(records)
            previous = self._last_sent.get(lwg)
            if previous is not None:
                prev_sig, prev_time = previous
                fresh = prev_sig == signature
                recent = (now - prev_time) < self.renotify_period_us
                if fresh and recent:
                    continue
            sent += self._notify(lwg, records)
            self._last_sent[lwg] = (signature, now)
        self.notifications_sent += sent
        return sent

    def _notify(self, lwg: LwgId, records) -> int:
        message = MultipleMappings(lwg=lwg, records=tuple(records), server=self.server_id)
        targets = sorted({record.coordinator for record in records})
        for target in targets:
            self.send(target, message)
        return len(targets)
