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
