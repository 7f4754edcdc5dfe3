"""Initial mapping policies: where does a brand-new LWG go?

The dynamic service uses the paper's optimistic rule: "The new LWG is
mapped onto some existing HWG and if the choice is later proven to be
inappropriate, the LWG will be switched onto a more appropriate HWG"
(Section 3.2).  The static service pins everything to one global HWG,
and the isolated policy gives every LWG a private HWG (an LWG-layer
analogue of running without the service, useful for ablations).
"""

from __future__ import annotations

from typing import Optional

from ..naming.records import HwgId, LwgId
from ..vsync.membership import EndpointState
from .ids import is_hwg_id


class InitialMappingPolicy:
    """Strategy interface: pick the HWG for a newly created LWG."""

    def choose(self, lwg: LwgId, service) -> Optional[HwgId]:
        """Return an existing HWG id, or None to mint a fresh HWG."""
        raise NotImplementedError


class DynamicMappingPolicy(InitialMappingPolicy):
    """Optimistic reuse: join the highest-gid HWG we already belong to.

    Deterministic (identifier total order) and maximises sharing; the
    interference rule later evicts LWGs that turn out to be minorities.
    """

    def choose(self, lwg: LwgId, service) -> Optional[HwgId]:
        member_hwgs = service.member_hwgs()
        return member_hwgs[-1] if member_hwgs else None


class StaticMappingPolicy(InitialMappingPolicy):
    """Every LWG maps onto one fixed global HWG (the paper's static service)."""

    def __init__(self, hwg: HwgId = "hwg:static:000000"):
        self.hwg = hwg

    def choose(self, lwg: LwgId, service) -> Optional[HwgId]:
        return self.hwg


class IsolatedMappingPolicy(InitialMappingPolicy):
    """Every LWG gets a private, freshly minted HWG."""

    def choose(self, lwg: LwgId, service) -> Optional[HwgId]:
        return None


class HintedMappingPolicy(InitialMappingPolicy):
    """Isis-style mapping from declared target memberships (Section 2).

    The Isis light-weight group service "require[s] the specification of
    the target membership of a user group to make appropriate mapping
    decisions" — the application announces who will eventually join, and
    the creator maps the group onto the HWG whose membership best covers
    that target (falling back to a fresh HWG when nothing covers it
    acceptably).  Implemented here as an ablation against the paper's
    *transparent* service: same machinery, but mapping quality depends on
    hint accuracy instead of run-time adaptation.
    """

    def __init__(self, hints: Optional[dict] = None, k_c: int = 4):
        #: lwg id -> iterable of expected member process ids.
        self.hints = dict(hints or {})
        self.k_c = k_c

    def set_hint(self, lwg: LwgId, expected_members) -> None:
        self.hints[lwg] = frozenset(expected_members)

    def choose(self, lwg: LwgId, service) -> Optional[HwgId]:
        from .policies import is_close_enough

        hint = self.hints.get(lwg)
        if hint is None:
            return DynamicMappingPolicy().choose(lwg, service)
        hint = frozenset(hint)
        candidates = []
        for group, endpoint in service.stack.endpoints.items():
            if not is_hwg_id(group):
                continue
            if endpoint.state is not EndpointState.MEMBER or endpoint.current_view is None:
                continue
            members = frozenset(endpoint.current_view.members)
            if hint <= members and is_close_enough(hint, members, self.k_c):
                candidates.append(group)
        return max(candidates) if candidates else None
