"""Semantic acyclicity under constraints: deciders, approximations, reductions."""

from .semantic_acyclicity import (
    DEFAULT_SEMAC_CONFIG,
    SemAcConfig,
    SemAcDecision,
    decide_semantic_acyclicity,
    decide_semantic_acyclicity_egds,
    decide_semantic_acyclicity_fds,
    decide_semantic_acyclicity_tgds,
    decide_semantic_acyclicity_unconstrained,
)
from .approximations import (
    ApproximationResult,
    acyclic_approximations,
    trivial_acyclic_queries,
)
from .ucq_acyclicity import (
    UCQSemAcDecision,
    decide_ucq_semantic_acyclicity,
)
from .pcp import (
    PCPInstance,
    pcp_query,
    pcp_tgds,
    solution_path_query,
    word_path_query,
)
from .reductions import (
    Proposition5Instance,
    SemAcReduction,
    containment_via_proposition5,
    decide_containment_via_semac,
    direct_containment,
    proposition5_instance,
    reduce_containment_to_semac,
)
from . import candidates

__all__ = [
    "ApproximationResult",
    "DEFAULT_SEMAC_CONFIG",
    "PCPInstance",
    "Proposition5Instance",
    "SemAcConfig",
    "SemAcDecision",
    "SemAcReduction",
    "UCQSemAcDecision",
    "acyclic_approximations",
    "candidates",
    "containment_via_proposition5",
    "decide_semantic_acyclicity",
    "decide_semantic_acyclicity_egds",
    "decide_semantic_acyclicity_fds",
    "decide_semantic_acyclicity_tgds",
    "decide_containment_via_semac",
    "decide_semantic_acyclicity_unconstrained",
    "decide_ucq_semantic_acyclicity",
    "direct_containment",
    "pcp_query",
    "pcp_tgds",
    "proposition5_instance",
    "reduce_containment_to_semac",
    "solution_path_query",
    "trivial_acyclic_queries",
    "word_path_query",
]
