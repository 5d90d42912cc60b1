"""UCQ containment and equivalence under tgds (Section 8.1 support).

Containment of UCQs under a set of tgds reduces to CQ-in-UCQ containment
disjunct by disjunct: ``Q ⊆_Σ Q'`` iff every disjunct of ``Q`` is contained
in ``Q'`` under ``Σ``.  The functions below lift the chase-based procedures
of :mod:`repro.containment.constrained` accordingly and are used by the UCQ
variant of semantic acyclicity.
"""

from __future__ import annotations

from typing import Sequence

from ..dependencies.tgd import TGD
from ..queries.ucq import UnionOfConjunctiveQueries
from .constrained import (
    ContainmentConfig,
    ContainmentOutcome,
    DEFAULT_CONFIG,
    cq_contained_in_ucq_under_tgds,
)


def ucq_contained_under_tgds(
    left: UnionOfConjunctiveQueries,
    right: UnionOfConjunctiveQueries,
    tgds: Sequence[TGD],
    config: ContainmentConfig = DEFAULT_CONFIG,
) -> ContainmentOutcome:
    """Decide ``Q ⊆_Σ Q'`` under a set of tgds, disjunct by disjunct."""
    saw_unknown = False
    for disjunct in left:
        outcome = cq_contained_in_ucq_under_tgds(disjunct, right, tgds, config)
        if outcome is ContainmentOutcome.FALSE:
            return ContainmentOutcome.FALSE
        if outcome is ContainmentOutcome.UNKNOWN:
            saw_unknown = True
    return ContainmentOutcome.UNKNOWN if saw_unknown else ContainmentOutcome.TRUE


def ucq_equivalent_under_tgds(
    left: UnionOfConjunctiveQueries,
    right: UnionOfConjunctiveQueries,
    tgds: Sequence[TGD],
    config: ContainmentConfig = DEFAULT_CONFIG,
) -> ContainmentOutcome:
    """Decide ``Q ≡_Σ Q'`` under a set of tgds."""
    forward = ucq_contained_under_tgds(left, right, tgds, config)
    if forward is ContainmentOutcome.FALSE:
        return ContainmentOutcome.FALSE
    backward = ucq_contained_under_tgds(right, left, tgds, config)
    if backward is ContainmentOutcome.FALSE:
        return ContainmentOutcome.FALSE
    if forward is ContainmentOutcome.TRUE and backward is ContainmentOutcome.TRUE:
        return ContainmentOutcome.TRUE
    return ContainmentOutcome.UNKNOWN
