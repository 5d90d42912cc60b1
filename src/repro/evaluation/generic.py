"""Generic (backtracking-join) CQ evaluation — the NP baseline.

This is simply the homomorphism-search evaluation of
:mod:`repro.queries.homomorphism`, wrapped so that the benchmarks can compare
it against Yannakakis' algorithm (Experiment E15) and against the
existential 1-cover game (Experiment E12) under one interface.
"""

from __future__ import annotations

from typing import Set, Tuple

from ..datamodel import Instance, Term
from ..queries.cq import ConjunctiveQuery


def evaluate_generic(query: ConjunctiveQuery, database: Instance) -> Set[Tuple[Term, ...]]:
    """Evaluate ``query`` over ``database`` by exhaustive homomorphism search."""
    return query.evaluate(database)


def membership_generic(
    query: ConjunctiveQuery, database: Instance, answer: Tuple[Term, ...]
) -> bool:
    """Check ``answer ∈ q(D)`` by homomorphism search."""
    return query.holds_in(database, answer)
