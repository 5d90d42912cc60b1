"""Classical (constraint-free) CQ and UCQ containment.

Chandra–Merlin: ``q ⊆ q'`` over all databases iff the frozen head ``c(x̄)``
of ``q`` belongs to ``q'(D_q)`` where ``D_q`` is the canonical database of
``q``.  These checks are the base case of everything done under constraints
and are also the workhorse of the rewriting-based procedures (Definition 2
reduces containment under Σ to UCQ evaluation over canonical databases).
"""

from __future__ import annotations

from typing import Tuple

from ..datamodel import Constant, Database
from ..queries.cq import ConjunctiveQuery
from ..queries.ucq import UnionOfConjunctiveQueries


def canonical_database_and_answer(
    query: ConjunctiveQuery,
) -> Tuple[Database, Tuple[Constant, ...]]:
    """Return ``(D_q, c(x̄))`` for a CQ ``q(x̄)``."""
    database, freezing = query.freeze()
    answer = tuple(freezing[v] for v in query.head)
    return database, answer


def cq_contained_in(left: ConjunctiveQuery, right: ConjunctiveQuery) -> bool:
    """``left ⊆ right`` over all databases (no constraints)."""
    if len(left.head) != len(right.head):
        return False
    database, answer = canonical_database_and_answer(left)
    return right.holds_in(database, answer)


def cq_equivalent(left: ConjunctiveQuery, right: ConjunctiveQuery) -> bool:
    """``left ≡ right`` over all databases (no constraints)."""
    return cq_contained_in(left, right) and cq_contained_in(right, left)


def cq_contained_in_ucq(left: ConjunctiveQuery, right: UnionOfConjunctiveQueries) -> bool:
    """``left ⊆ Q`` for a UCQ ``Q``: some disjunct of ``Q`` maps into ``D_left``."""
    if len(left.head) != right.arity:
        return False
    database, answer = canonical_database_and_answer(left)
    return right.holds_in(database, answer)


def ucq_contained_in_ucq(
    left: UnionOfConjunctiveQueries, right: UnionOfConjunctiveQueries
) -> bool:
    """``Q ⊆ Q'`` for UCQs: every disjunct of ``Q`` is contained in ``Q'``."""
    return all(cq_contained_in_ucq(disjunct, right) for disjunct in left)
