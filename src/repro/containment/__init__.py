"""Containment and equivalence of CQs and UCQs, with and without constraints."""

from .cq_containment import (
    canonical_database_and_answer,
    cq_contained_in,
    cq_contained_in_ucq,
    cq_equivalent,
    ucq_contained_in_ucq,
)
from .constrained import (
    ContainmentConfig,
    ContainmentOutcome,
    DEFAULT_CONFIG,
    contained_under_egds,
    contained_under_tgds,
    cq_contained_in_ucq_under_tgds,
    equivalent_under_egds,
    equivalent_under_tgds,
)
from .ucq_containment import (
    ucq_contained_under_tgds,
    ucq_equivalent_under_tgds,
)
from .implication import (
    dependency_implied,
    minimal_cover,
    redundant_dependencies,
)

__all__ = [
    "ContainmentConfig",
    "ContainmentOutcome",
    "DEFAULT_CONFIG",
    "canonical_database_and_answer",
    "contained_under_egds",
    "contained_under_tgds",
    "cq_contained_in",
    "dependency_implied",
    "minimal_cover",
    "redundant_dependencies",
    "cq_contained_in_ucq",
    "cq_contained_in_ucq_under_tgds",
    "cq_equivalent",
    "equivalent_under_egds",
    "equivalent_under_tgds",
    "ucq_contained_in_ucq",
    "ucq_contained_under_tgds",
    "ucq_equivalent_under_tgds",
]
