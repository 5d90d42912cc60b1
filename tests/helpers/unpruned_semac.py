"""The fast phase of the tgd decider, verifying every candidate it proposes.

:func:`repro.core.semantic_acyclicity.decide_semantic_acyclicity_tgds` skips
two kinds of candidates that are certain to fail: sub-instances of the
chase below one whose ``candidate ⊆_Σ q`` came back definitely false, and
the chase sub-instance walk when the chase has rank ≤ 2 and every
homomorphism image of ``q`` in it is cyclic.  This module is the reference
without either: the candidate stream as it was before the pruning, with the
chase sub-instances enumerated by the per-subset oracle of
:mod:`helpers.chase_subinstances`, each candidate verified by the same
``_TgdVerifier``.  The verdict, witness and method must agree with the
production decider, and the production decider may only check fewer
candidates.  Only the fast phase is reproduced; the exhaustive phase is not
pruned.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from repro.chase import chase_query
from repro.core.candidates import (
    acyclic_quotients_in_instance,
    acyclic_subqueries,
    compact_witnesses_from_acyclic_instance,
)
from repro.core.semantic_acyclicity import (
    DEFAULT_SEMAC_CONFIG,
    SemAcConfig,
    SemAcDecision,
    _reachable_tgds,
    _strategy_for,
    _TgdVerifier,
)
from repro.datamodel import Constant, Instance
from repro.dependencies.tgd import TGD
from repro.queries.core_minimization import core
from repro.queries.cq import ConjunctiveQuery
from repro.rewriting.bounds import small_query_bound_guarded, small_query_bound_ucq_rewritable
from repro.rewriting.ucq_rewriting import RewritingBudgetExceeded, rewrite

from helpers.chase_subinstances import acyclic_chase_subinstances_per_subset


def unpruned_candidates(
    query: ConjunctiveQuery,
    chase_instance: Instance,
    answer: Sequence[Constant],
    size_bound: int,
    rewriting_disjuncts: Sequence[ConjunctiveQuery] = (),
) -> Iterator[ConjunctiveQuery]:
    """The fast candidate stream, in order, without duplicates or pruning."""

    def stream() -> Iterator[ConjunctiveQuery]:
        yield from acyclic_subqueries(query)
        core_query = core(query)
        if core_query.is_acyclic():
            yield core_query
        for disjunct in rewriting_disjuncts:
            if len(disjunct.body) <= max(size_bound, len(query.body)):
                yield from acyclic_subqueries(disjunct)
        yield from acyclic_quotients_in_instance(query, chase_instance, answer)
        yield from compact_witnesses_from_acyclic_instance(query, chase_instance, answer)
        yield from acyclic_chase_subinstances_per_subset(
            query, chase_instance, answer, max_atoms=min(size_bound, 2 * len(query))
        )

    seen = set()
    for candidate in stream():
        if candidate not in seen:
            seen.add(candidate)
            yield candidate


def decide_tgds_unpruned(
    query: ConjunctiveQuery,
    tgds: Sequence[TGD],
    config: SemAcConfig = DEFAULT_SEMAC_CONFIG,
) -> SemAcDecision:
    """The tgd decider's fast phase with every proposed candidate verified.

    Like the decider, it searches under the tgds reachable from the query's
    predicates; unlike it, it never lets the core decide alone.
    """
    tgd_list = _reachable_tgds(query, list(tgds))
    strategy, class_label = _strategy_for(tgd_list)
    if class_label in ("non-recursive", "sticky"):
        size_bound = small_query_bound_ucq_rewritable(query, tgd_list)
    else:
        size_bound = small_query_bound_guarded(query)
    notes: List[str] = []
    if query.is_acyclic():
        return SemAcDecision(True, query, f"syntactic/{class_label}", size_bound, 1, True, notes)

    chase_result, freezing = chase_query(query, tgd_list, max_steps=config.chase_max_steps)
    answer = tuple(freezing[v] for v in query.head)
    query_rewriting = None
    if class_label in ("non-recursive", "sticky"):
        try:
            query_rewriting = rewrite(query, tgd_list)
        except RewritingBudgetExceeded:
            pass
    rewriting_disjuncts: Sequence[ConjunctiveQuery] = (
        list(query_rewriting) if query_rewriting is not None else ()
    )
    verifier = _TgdVerifier(
        query, tgd_list, config, strategy, chase_result, answer, query_rewriting
    )

    checked = 0
    for candidate in unpruned_candidates(
        query, chase_result.instance, answer, size_bound, rewriting_disjuncts
    ):
        if checked >= config.max_candidates_checked:
            break
        checked += 1
        if verifier.equivalent(candidate):
            return SemAcDecision(
                True, candidate, f"fast/{class_label}", size_bound, checked, False, notes
            )
    return SemAcDecision(False, None, f"search/{class_label}", size_bound, checked, False, notes)
