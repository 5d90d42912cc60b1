"""Semantic acyclicity for unions of conjunctive queries (Section 8.1).

A UCQ ``Q`` is semantically acyclic under ``Σ`` when there is a union of
acyclic CQs equivalent to ``Q`` under ``Σ``.  Propositions 33/34 give the
small-query property behind the decision procedure: if ``Q`` is semantically
acyclic then each disjunct ``q`` either (i) has a bounded-size acyclic CQ
equivalent to it under ``Σ``, or (ii) is redundant in ``Q`` (contained under
``Σ`` in another disjunct).

The decision procedure below mirrors that case split: for every disjunct it
first tests redundancy, then falls back to the CQ-level SemAc search; the
witness union collects the per-disjunct witnesses of the non-redundant
disjuncts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..queries.cq import ConjunctiveQuery
from ..queries.ucq import UnionOfConjunctiveQueries
from .semantic_acyclicity import (
    DEFAULT_SEMAC_CONFIG,
    Constraints,
    SemAcConfig,
    SemAcDecision,
    containment_test,
    decide_semantic_acyclicity,
    split_constraints,
)


@dataclass
class UCQSemAcDecision:
    """Outcome of the UCQ semantic-acyclicity decision."""

    semantically_acyclic: bool
    #: Union of acyclic CQs equivalent to the input (when the answer is yes).
    witness: Optional[UnionOfConjunctiveQueries]
    #: Per-disjunct outcome: ``"acyclic-witness"``, ``"redundant"`` or ``"stuck"``.
    disjunct_status: Dict[int, str] = field(default_factory=dict)
    #: The per-disjunct CQ decisions (for non-redundant disjuncts).
    cq_decisions: Dict[int, SemAcDecision] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.semantically_acyclic


def decide_ucq_semantic_acyclicity(
    ucq: UnionOfConjunctiveQueries,
    constraints: Constraints = (),
    config: SemAcConfig = DEFAULT_SEMAC_CONFIG,
) -> UCQSemAcDecision:
    """Decide whether a UCQ is equivalent to a union of acyclic CQs under Σ."""
    constraint_list = list(constraints)
    contained = containment_test(*split_constraints(constraint_list), config)

    decision = UCQSemAcDecision(semantically_acyclic=True, witness=None)
    witness_disjuncts: List[ConjunctiveQuery] = []
    disjuncts = list(ucq.disjuncts)

    # Case (ii) first: drop redundant disjuncts.  Redundancy is computed
    # sequentially against the not-yet-dropped disjuncts so that a cycle of
    # mutually Σ-equivalent disjuncts keeps exactly one representative.
    dropped: set = set()
    for index, disjunct in enumerate(disjuncts):
        for other_index, other in enumerate(disjuncts):
            if other_index == index or other_index in dropped:
                continue
            if contained(disjunct, other):
                dropped.add(index)
                break

    for index, disjunct in enumerate(disjuncts):
        if index in dropped:
            decision.disjunct_status[index] = "redundant"
            continue

        # Case (i): the disjunct itself is semantically acyclic under Σ.
        cq_decision = decide_semantic_acyclicity(disjunct, constraint_list, config)
        decision.cq_decisions[index] = cq_decision
        if cq_decision.semantically_acyclic and cq_decision.witness is not None:
            decision.disjunct_status[index] = "acyclic-witness"
            witness_disjuncts.append(cq_decision.witness)
        else:
            decision.disjunct_status[index] = "stuck"
            decision.semantically_acyclic = False

    if decision.semantically_acyclic:
        if not witness_disjuncts:
            # Every disjunct was redundant in another one — this can only
            # happen through Σ-equivalences; keep one witness per equivalence
            # class by re-running the CQ decision on the first disjunct.
            fallback = decide_semantic_acyclicity(disjuncts[0], constraint_list, config)
            if fallback.semantically_acyclic and fallback.witness is not None:
                witness_disjuncts.append(fallback.witness)
            else:
                decision.semantically_acyclic = False
        if witness_disjuncts:
            decision.witness = UnionOfConjunctiveQueries(
                witness_disjuncts, name=f"{ucq.name}_acyclic"
            )
    return decision
