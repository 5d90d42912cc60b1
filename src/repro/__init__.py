"""repro — Semantic Acyclicity Under Constraints (Barceló, Gottlob, Pieris, PODS 2016).

A from-scratch implementation of the paper's machinery: conjunctive queries
and their hypergraphs, tgds/egds with the chase, containment and UCQ
rewriting, and on top of those the semantic-acyclicity decision procedures,
acyclic approximations and the evaluation algorithms for semantically acyclic
queries.

Quick start::

    from repro import parse_query, parse_tgd, decide_semantic_acyclicity

    q = parse_query("q(x, y) :- Interest(x, z), Class(y, z), Owns(x, y)")
    tgd = parse_tgd("Interest(x, z), Class(y, z) -> Owns(x, y)")
    decision = decide_semantic_acyclicity(q, [tgd])
    print(decision.semantically_acyclic, decision.witness)
"""

from .datamodel import (
    Atom,
    Constant,
    Database,
    Instance,
    Null,
    Predicate,
    Schema,
    Variable,
)
from .queries import ConjunctiveQuery, UnionOfConjunctiveQueries, core
from .dependencies import (
    EGD,
    TGD,
    DependencyClass,
    FunctionalDependency,
    classify,
    is_guarded_set,
    is_non_recursive_set,
    is_sticky_set,
)
from .chase import chase, chase_query, egd_chase, egd_chase_query
from .containment import (
    ContainmentOutcome,
    contained_under_egds,
    contained_under_tgds,
    cq_contained_in,
    cq_equivalent,
    equivalent_under_egds,
    equivalent_under_tgds,
)
from .rewriting import rewrite, ucq_rewritable_height_bound
from .evaluation import (
    Relation,
    ScanCache,
    YannakakisEvaluator,
    evaluate_acyclic,
    evaluate_batch,
    evaluate_generic,
    evaluate_iter,
    explain,
    query_covers_database,
)
from .analysis import (
    Diagnostic,
    PlanVerificationError,
    Severity,
    check_dependencies,
    check_query,
    check_workload,
    verify_plan,
)
from .core import (
    SemAcConfig,
    SemAcDecision,
    acyclic_approximations,
    decide_semantic_acyclicity,
    decide_semantic_acyclicity_egds,
    decide_semantic_acyclicity_fds,
    decide_semantic_acyclicity_tgds,
    decide_ucq_semantic_acyclicity,
    find_acyclic_reformulation_tgds,
    is_semantically_acyclic,
)
from .parser import (
    parse_atom,
    parse_dependency,
    parse_egd,
    parse_program,
    parse_query,
    parse_tgd,
    parse_ucq,
)

__version__ = "1.0.0"

__all__ = [
    "Atom",
    "ConjunctiveQuery",
    "Constant",
    "ContainmentOutcome",
    "Database",
    "DependencyClass",
    "Diagnostic",
    "EGD",
    "FunctionalDependency",
    "Instance",
    "Null",
    "PlanVerificationError",
    "Predicate",
    "Relation",
    "Schema",
    "Severity",
    "SemAcConfig",
    "SemAcDecision",
    "TGD",
    "UnionOfConjunctiveQueries",
    "Variable",
    "ScanCache",
    "YannakakisEvaluator",
    "acyclic_approximations",
    "chase",
    "chase_query",
    "check_dependencies",
    "check_query",
    "check_workload",
    "classify",
    "contained_under_egds",
    "contained_under_tgds",
    "core",
    "cq_contained_in",
    "cq_equivalent",
    "decide_semantic_acyclicity",
    "decide_semantic_acyclicity_egds",
    "decide_semantic_acyclicity_fds",
    "decide_semantic_acyclicity_tgds",
    "decide_ucq_semantic_acyclicity",
    "egd_chase",
    "egd_chase_query",
    "equivalent_under_egds",
    "equivalent_under_tgds",
    "evaluate_acyclic",
    "evaluate_batch",
    "evaluate_generic",
    "evaluate_iter",
    "explain",
    "find_acyclic_reformulation_tgds",
    "is_guarded_set",
    "is_non_recursive_set",
    "is_semantically_acyclic",
    "is_sticky_set",
    "parse_atom",
    "parse_dependency",
    "parse_egd",
    "parse_program",
    "parse_query",
    "parse_tgd",
    "parse_ucq",
    "query_covers_database",
    "rewrite",
    "ucq_rewritable_height_bound",
    "verify_plan",
    "__version__",
]
