"""Conjunctive queries, unions thereof, homomorphisms and minimisation."""

from .homomorphism import (
    Homomorphism,
    compose,
    find_homomorphism,
    has_homomorphism,
    homomorphically_equivalent,
    homomorphisms,
    is_homomorphism,
)
from .cq import ConjunctiveQuery, boolean_query, query_from_instance
from .ucq import UCQ, UnionOfConjunctiveQueries
from .core_minimization import (
    core,
    fold_once,
    is_core,
    is_semantically_acyclic_unconstrained,
)
from .gaifman import (
    gaifman_graph_of_atoms,
    gaifman_graph_of_instance,
    max_clique_lower_bound,
)

__all__ = [
    "ConjunctiveQuery",
    "Homomorphism",
    "UCQ",
    "UnionOfConjunctiveQueries",
    "boolean_query",
    "compose",
    "core",
    "find_homomorphism",
    "fold_once",
    "gaifman_graph_of_atoms",
    "gaifman_graph_of_instance",
    "has_homomorphism",
    "homomorphically_equivalent",
    "homomorphisms",
    "is_core",
    "is_homomorphism",
    "is_semantically_acyclic_unconstrained",
    "max_clique_lower_bound",
    "query_from_instance",
]
