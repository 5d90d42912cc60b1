"""Chase engines for tgds and egds, plus the guarded chase forest."""

from .tgd_chase import (
    ChaseBudgetExceeded,
    ChaseResult,
    ChaseRun,
    ChaseStep,
    chase,
    chase_query,
    chase_terminates,
)
from .egd_chase import (
    EGDChaseFailure,
    EGDChaseResult,
    EGDChaseStep,
    chased_query,
    egd_chase,
    egd_chase_query,
)
from .guarded_forest import (
    GuardedChaseForest,
    guarded_chase_forest,
    guarded_chase_join_tree,
)
from .preservation import (
    PreservationReport,
    egd_chase_preserves_acyclicity,
    tgd_chase_preserves_acyclicity,
)
from .termination import (
    ChaseComparison,
    TerminationCertificate,
    certify_termination,
    chase_depth_bound,
    compare_chase_variants,
    full_chase_size_bound,
    recommended_step_budget,
)

__all__ = [
    "ChaseBudgetExceeded",
    "ChaseComparison",
    "ChaseResult",
    "ChaseRun",
    "ChaseStep",
    "EGDChaseFailure",
    "EGDChaseResult",
    "EGDChaseStep",
    "GuardedChaseForest",
    "PreservationReport",
    "TerminationCertificate",
    "certify_termination",
    "chase",
    "chase_depth_bound",
    "chase_query",
    "chase_terminates",
    "chased_query",
    "compare_chase_variants",
    "egd_chase",
    "egd_chase_query",
    "egd_chase_preserves_acyclicity",
    "full_chase_size_bound",
    "guarded_chase_forest",
    "guarded_chase_join_tree",
    "recommended_step_budget",
    "tgd_chase_preserves_acyclicity",
]
