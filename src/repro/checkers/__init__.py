"""Online safety-invariant checkers for the LWG stack.

The paper's guarantees are safety properties; this package turns every
simulation run into a continuous test of them.  See ``docs/PROTOCOLS.md``
("Checked invariants") for the monitor-by-monitor catalogue.
"""

from .base import Checker, CheckerSuite, InvariantViolation
from .lwg import (
    BatchAccountingChecker,
    LwgAgreementChecker,
    LwgConvergenceChecker,
    MergeRoundChecker,
)
from .naming import GenealogyGcChecker, NamingConvergenceChecker
from .recovery import RecoveryConvergenceChecker
from .vsync import DeliveryChecker, ViewAgreementChecker

__all__ = [
    "Checker",
    "CheckerSuite",
    "InvariantViolation",
    "ViewAgreementChecker",
    "DeliveryChecker",
    "LwgAgreementChecker",
    "BatchAccountingChecker",
    "MergeRoundChecker",
    "LwgConvergenceChecker",
    "GenealogyGcChecker",
    "NamingConvergenceChecker",
    "RecoveryConvergenceChecker",
]
