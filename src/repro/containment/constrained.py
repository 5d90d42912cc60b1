"""CQ containment and equivalence under tgds and egds (Lemma 1).

``q ⊆_Σ q'`` iff ``c(x̄) ∈ q'(chase(q, Σ))``.  For egds the chase always
terminates, so the check is a decision procedure.  For tgds the chase may be
infinite; the functions below therefore return a three-valued
:class:`ContainmentOutcome`:

* ``TRUE`` — a homomorphism witnessing the containment was found (sound for
  any chase prefix, hence always correct);
* ``FALSE`` — the chase terminated and no witness exists (correct);
* ``UNKNOWN`` — the step/depth budget was exhausted before either of the
  above; callers may retry with a larger budget or switch to the
  rewriting-based procedure (exact for the UCQ-rewritable classes).

For the classes used in the paper's positive results the outcome is always
definite in practice: non-recursive and weakly-acyclic sets have terminating
chases, sticky sets are handled through UCQ rewriting, and guarded examples
terminate within generous budgets (the default budget can be raised).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from ..chase.egd_chase import egd_chase_query
from ..chase.tgd_chase import ChaseRun
from ..datamodel import TermFactory, freeze_variable
from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..queries.cq import ConjunctiveQuery
from ..queries.ucq import UnionOfConjunctiveQueries
from .cq_containment import cq_contained_in


class ContainmentOutcome(enum.Enum):
    """Three-valued outcome of a chase-based containment check."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:
        return self is ContainmentOutcome.TRUE

    @property
    def is_definite(self) -> bool:
        return self is not ContainmentOutcome.UNKNOWN


@dataclass
class ContainmentConfig:
    """Budgets for the chase-based containment procedures."""

    max_steps: int = 10_000
    max_depth: Optional[int] = None
    chase_variant: str = "restricted"
    #: The right-hand query is evaluated every ``check_interval`` chase steps,
    #: so positive containments are detected long before the step budget is
    #: spent even when the chase does not terminate (TRUE is sound on any
    #: chase prefix).
    check_interval: int = 200


DEFAULT_CONFIG = ContainmentConfig()


def _chase_until_witness(
    left: ConjunctiveQuery,
    right_holds,
    tgds: Sequence[TGD],
    config: ContainmentConfig,
) -> ContainmentOutcome:
    """Shared incremental loop behind the chase-based containment checks.

    One resumable chase of the canonical database of ``left`` is advanced in
    chunks of ``config.check_interval`` steps; after every chunk the witness
    test ``right_holds(instance)`` is evaluated.  A positive test on any
    prefix is sound (the prefix embeds into every chase result), a negative
    test on a terminated chase is exact, and running out of budget (or a
    depth budget that suppresses every remaining trigger) yields ``UNKNOWN``.
    """
    database, _ = left.freeze()
    run = ChaseRun(
        database,
        tgds,
        variant=config.chase_variant,
        max_depth=config.max_depth,
        term_factory=TermFactory(null_prefix="cont_n"),
    )
    result = run.result
    interval = max(config.check_interval, 1)
    while not run.finished and len(result.steps) < config.max_steps:
        if right_holds(result.instance):
            return ContainmentOutcome.TRUE
        run.advance(min(interval, config.max_steps - len(result.steps)))
    if right_holds(result.instance):
        return ContainmentOutcome.TRUE
    return ContainmentOutcome.FALSE if result.terminated else ContainmentOutcome.UNKNOWN


def contained_under_tgds(
    left: ConjunctiveQuery,
    right: ConjunctiveQuery,
    tgds: Sequence[TGD],
    config: ContainmentConfig = DEFAULT_CONFIG,
) -> ContainmentOutcome:
    """Decide ``left ⊆_Σ right`` for a set of tgds via the chase (Lemma 1)."""
    if len(left.head) != len(right.head):
        return ContainmentOutcome.FALSE
    if not tgds:
        return (
            ContainmentOutcome.TRUE
            if cq_contained_in(left, right)
            else ContainmentOutcome.FALSE
        )
    answer = tuple(freeze_variable(v) for v in left.head)
    return _chase_until_witness(
        left, lambda instance: right.holds_in(instance, answer), tgds, config
    )


def equivalent_under_tgds(
    left: ConjunctiveQuery,
    right: ConjunctiveQuery,
    tgds: Sequence[TGD],
    config: ContainmentConfig = DEFAULT_CONFIG,
) -> ContainmentOutcome:
    """Decide ``left ≡_Σ right`` under tgds (conjunction of two containments)."""
    forward = contained_under_tgds(left, right, tgds, config)
    if forward is ContainmentOutcome.FALSE:
        return ContainmentOutcome.FALSE
    backward = contained_under_tgds(right, left, tgds, config)
    if backward is ContainmentOutcome.FALSE:
        return ContainmentOutcome.FALSE
    if forward is ContainmentOutcome.TRUE and backward is ContainmentOutcome.TRUE:
        return ContainmentOutcome.TRUE
    return ContainmentOutcome.UNKNOWN


def contained_under_egds(
    left: ConjunctiveQuery,
    right: ConjunctiveQuery,
    egds: Sequence[EGD],
) -> bool:
    """Decide ``left ⊆_Σ right`` for a set of egds (always terminating).

    A failing chase means the canonical database of ``left`` cannot satisfy
    the egds at all; in that case ``left`` is unsatisfiable w.r.t. ``Σ`` over
    consistent databases and the containment holds vacuously.
    """
    if len(left.head) != len(right.head):
        return False
    if not egds:
        return cq_contained_in(left, right)
    result, freezing = egd_chase_query(left, egds, on_failure="return")
    if result.failed:
        return True
    answer = tuple(result.resolve(freezing[v]) for v in left.head)
    return right.holds_in(result.instance, answer)


def equivalent_under_egds(
    left: ConjunctiveQuery,
    right: ConjunctiveQuery,
    egds: Sequence[EGD],
) -> bool:
    """Decide ``left ≡_Σ right`` under egds."""
    return contained_under_egds(left, right, egds) and contained_under_egds(
        right, left, egds
    )


def cq_contained_in_ucq_under_tgds(
    left: ConjunctiveQuery,
    right: UnionOfConjunctiveQueries,
    tgds: Sequence[TGD],
    config: ContainmentConfig = DEFAULT_CONFIG,
) -> ContainmentOutcome:
    """Decide ``left ⊆_Σ Q`` for a UCQ ``Q`` under tgds via the chase."""
    if len(left.head) != right.arity:
        return ContainmentOutcome.FALSE
    if not tgds:
        from .cq_containment import cq_contained_in_ucq

        return (
            ContainmentOutcome.TRUE
            if cq_contained_in_ucq(left, right)
            else ContainmentOutcome.FALSE
        )
    answer = tuple(freeze_variable(v) for v in left.head)
    return _chase_until_witness(
        left, lambda instance: right.holds_in(instance, answer), tgds, config
    )
