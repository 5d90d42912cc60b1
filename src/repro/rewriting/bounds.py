"""Size bounds on UCQ rewritings (the functions ``f_C`` of Section 5).

For a CQ ``q`` and a set ``Σ`` of tgds, let ``p_{q,Σ}`` be the number of
predicates occurring in ``q`` and ``Σ`` and ``a_{q,Σ}`` the maximum arity of
those predicates.  Propositions 17 and 19 give, for non-recursive and sticky
sets respectively, the bound

    f_C(q, Σ) = p_{q,Σ} · (a_{q,Σ} · |q| + 1) ^ a_{q,Σ}

on the height (maximal disjunct size) of a UCQ rewriting, which in turn
bounds (after doubling, Proposition 15) the size of the acyclic witness that
the SemAc procedures must guess.
"""

from __future__ import annotations

from typing import Sequence, Set

from ..datamodel import Predicate
from ..dependencies.tgd import TGD, tgd_set_predicates
from ..queries.cq import ConjunctiveQuery


def predicates_of_problem(query: ConjunctiveQuery, tgds: Sequence[TGD]) -> Set[Predicate]:
    """The predicates occurring in ``q`` or ``Σ`` (the set behind ``p_{q,Σ}``)."""
    return query.predicates() | tgd_set_predicates(tgds)


def predicate_count(query: ConjunctiveQuery, tgds: Sequence[TGD]) -> int:
    """``p_{q,Σ}``: number of predicates in the problem."""
    return len(predicates_of_problem(query, tgds))


def max_arity(query: ConjunctiveQuery, tgds: Sequence[TGD]) -> int:
    """``a_{q,Σ}``: maximum arity over the problem's predicates."""
    predicates = predicates_of_problem(query, tgds)
    return max((p.arity for p in predicates), default=0)


def ucq_rewritable_height_bound(query: ConjunctiveQuery, tgds: Sequence[TGD]) -> int:
    """The bound ``f_C(q, Σ)`` of Propositions 17 and 19."""
    p = predicate_count(query, tgds)
    a = max_arity(query, tgds)
    if a == 0:
        return max(p, 1)
    return p * (a * len(query) + 1) ** a


def small_query_bound_guarded(query: ConjunctiveQuery) -> int:
    """Acyclic-witness size bound for acyclicity-preserving classes (Prop. 8)."""
    return 2 * len(query)


def small_query_bound_ucq_rewritable(query: ConjunctiveQuery, tgds: Sequence[TGD]) -> int:
    """Acyclic-witness size bound for UCQ-rewritable classes (Prop. 15)."""
    return 2 * ucq_rewritable_height_bound(query, tgds)
