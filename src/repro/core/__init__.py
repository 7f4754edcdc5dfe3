"""The paper's contribution: the partitionable light-weight group service.

Public surface:

* :class:`~repro.core.service.LwgService` — the dynamic, transparent,
  partitionable LWG service (Sections 3-6).
* :class:`~repro.core.service.LwgListener` / ``LwgHandle`` — the user API.
* :class:`~repro.core.baselines.NoLwgService` and
  :func:`~repro.core.baselines.make_static_service` — the Figure-2
  comparison baselines.
* :class:`~repro.core.policies.PolicyEngine` — the Figure-1 heuristics.
"""

from .baselines import (
    DirectHandle,
    NoLwgService,
    make_dynamic_service,
    make_static_service,
)
from .config import LwgConfig
from .ids import (
    highest_gid,
    is_hwg_id,
    is_lwg_id,
    lwg_id,
    mint_hwg_id,
)
from .lwg_view import merge_lwg_views, merged_view_id, restrict_view
from .mapping_policy import (
    DynamicMappingPolicy,
    InitialMappingPolicy,
    StaticMappingPolicy,
)
from .mapping_table import LocalLwg, LwgState, MappingTable
from .merge import MergeManager, ReconciliationHandler
from .policies import (
    LeaveHwgAction,
    PolicyEngine,
    PolicySnapshot,
    SwitchAction,
    is_close_enough,
    is_minority,
    share_rule_applies,
)
from .service import LwgHandle, LwgListener, LwgService, LwgStats

__all__ = [
    "DirectHandle",
    "NoLwgService",
    "make_dynamic_service",
    "make_static_service",
    "LwgConfig",
    "highest_gid",
    "is_hwg_id",
    "is_lwg_id",
    "lwg_id",
    "mint_hwg_id",
    "merge_lwg_views",
    "merged_view_id",
    "restrict_view",
    "DynamicMappingPolicy",
    "InitialMappingPolicy",
    "StaticMappingPolicy",
    "LocalLwg",
    "LwgState",
    "MappingTable",
    "MergeManager",
    "ReconciliationHandler",
    "LeaveHwgAction",
    "PolicyEngine",
    "PolicySnapshot",
    "SwitchAction",
    "is_close_enough",
    "is_minority",
    "share_rule_applies",
    "LwgHandle",
    "LwgListener",
    "LwgService",
    "LwgStats",
]
