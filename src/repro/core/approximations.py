"""Acyclic approximations of CQs under constraints (Section 8.2).

When a CQ ``q`` is not semantically acyclic under ``Σ``, one can still look
for an *acyclic approximation*: an acyclic CQ ``q'`` with ``q' ⊆_Σ q`` that
is maximal with that property (no acyclic ``q''`` satisfies
``q' ⊊_Σ q'' ⊆_Σ q``).  Evaluating an approximation gives sound ("quick")
answers to ``q`` in fixed-parameter tractable time; when ``q`` *is*
semantically acyclic the approximation is equivalent to ``q``.

The search space mirrors the small-query properties (Propositions 8/15): it
is populated by the candidate generators of :mod:`repro.core.candidates`
plus the trivial one-variable queries that Section 8.2 uses to show
approximations always exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from ..datamodel import Atom, Variable
from ..queries.cq import ConjunctiveQuery
from .candidates import fast_candidates
from .semantic_acyclicity import (
    DEFAULT_SEMAC_CONFIG,
    Constraints,
    SemAcConfig,
    chase_of_query,
    containment_test,
    split_constraints,
)


@dataclass
class ApproximationResult:
    """Maximally contained acyclic CQs of a query under constraints."""

    query: ConjunctiveQuery
    #: The maximal elements found (incomparable under ⊆_Σ).
    approximations: List[ConjunctiveQuery] = field(default_factory=list)
    #: ``True`` when some approximation is equivalent to the query under Σ
    #: (i.e. the query is semantically acyclic and the approximation exact).
    exact: bool = False
    #: Number of contained acyclic candidates considered.
    candidates_considered: int = 0


def trivial_acyclic_queries(query: ConjunctiveQuery) -> List[ConjunctiveQuery]:
    """The single-variable queries of Section 8.2 (one per predicate of ``q``).

    For a Boolean query, ``∃x R(x, ..., x)`` is contained in nothing but
    itself in general — the paper uses the conjunction over *all* predicates
    of the schema, which is what we return (a single query with one atom per
    predicate, all positions filled with one shared variable).  Non-Boolean
    queries have no trivial approximation of this form, so an empty list is
    returned for them.
    """
    if query.head:
        return []
    x = Variable("x_trivial")
    atoms = [
        Atom(predicate, tuple(x for _ in range(predicate.arity)))
        for predicate in sorted(query.predicates())
    ]
    return [ConjunctiveQuery((), atoms, name=f"{query.name}_trivial")]


def acyclic_approximations(
    query: ConjunctiveQuery,
    constraints: Constraints = (),
    config: SemAcConfig = DEFAULT_SEMAC_CONFIG,
    max_candidates: int = 5_000,
) -> ApproximationResult:
    """Compute maximally contained acyclic CQs of ``query`` under ``constraints``."""
    tgds, egds = split_constraints(constraints)
    contained = containment_test(tgds, egds, config)
    chase_result, _, answer = chase_of_query(query, tgds, egds, config)
    result = ApproximationResult(query=query)

    size_bound = max(2 * len(query), 2)
    contained_candidates: List[ConjunctiveQuery] = []
    seen: Set[ConjunctiveQuery] = set()

    def consider(candidate: ConjunctiveQuery) -> None:
        if candidate in seen:
            return
        seen.add(candidate)
        if not candidate.is_acyclic():
            return
        if contained(candidate, query):
            contained_candidates.append(candidate)

    for candidate, _ in fast_candidates(query, chase_result.instance, answer, size_bound):
        if result.candidates_considered >= max_candidates:
            break
        result.candidates_considered += 1
        consider(candidate)
    for candidate in trivial_acyclic_queries(query):
        result.candidates_considered += 1
        consider(candidate)

    # Keep the maximal elements under ⊆_Σ.
    maximal: List[ConjunctiveQuery] = []
    for candidate in contained_candidates:
        dominated = False
        for other in contained_candidates:
            if other is candidate:
                continue
            if contained(candidate, other) and not contained(other, candidate):
                dominated = True
                break
        if not dominated and candidate not in maximal:
            maximal.append(candidate)

    # Deduplicate Σ-equivalent maximal elements.
    unique: List[ConjunctiveQuery] = []
    for candidate in maximal:
        if not any(
            contained(candidate, kept) and contained(kept, candidate) for kept in unique
        ):
            unique.append(candidate)

    result.approximations = unique
    result.exact = any(contained(query, candidate) for candidate in unique)
    return result
