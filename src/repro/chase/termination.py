"""Chase termination certificates and budget estimation.

The chase under arbitrary tgds need not terminate, and whether it does is
undecidable in general.  The classes of tgds the paper works with, however,
come with well-known *sufficient* termination conditions:

* **full** sets (no existential variables) never invent fresh nulls, so the
  chase stops after at most ``|schema|·|adom|^arity`` atoms;
* **non-recursive** sets (Section 2) have an acyclic predicate graph, so the
  chase proceeds stratum by stratum and stops after ``stratification_depth``
  rounds;
* **weakly acyclic** sets (Fagin et al., used by the paper to delimit the
  undecidable territory of Theorem 7) bound the "rank" of every null by the
  number of positions of the schema, which again forces termination.

This module turns those observations into explicit, testable
:class:`TerminationCertificate` objects, provides step/size budget estimates
that the SemAc procedures and the benchmarks can use instead of guessing
budgets, and offers a side-by-side comparison of the restricted and
oblivious chase variants (the ablation called out in ``DESIGN.md``).

A certificate with ``guaranteed=False`` means "no sufficient condition
applies", never "the chase diverges".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..datamodel import Instance
from ..dependencies.predicate_graph import (
    is_non_recursive,
    is_weakly_acyclic,
    position_dependency_graph,
    stratification_depth,
)
from ..dependencies.tgd import TGD, tgd_set_predicates
from ..queries.cq import ConjunctiveQuery
from .tgd_chase import ChaseResult, chase


# ----------------------------------------------------------------------
# Certificates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TerminationCertificate:
    """A sufficient-condition certificate that the chase terminates.

    Attributes:
        guaranteed: ``True`` iff some sufficient condition applies.
        reason: which condition fired (``"empty"``, ``"full"``,
            ``"non-recursive"``, ``"weakly-acyclic"``) or ``"none"``.
        depth_bound: when available, a bound on the derivation depth of every
            chase atom (``None`` when the condition bounds the size but not
            the depth, or when no condition applies).
        explanation: a human-readable sentence describing the certificate.
    """

    guaranteed: bool
    reason: str
    depth_bound: Optional[int] = None
    explanation: str = ""

    def __bool__(self) -> bool:
        return self.guaranteed


def certify_termination(tgds: Sequence[TGD]) -> TerminationCertificate:
    """Return the strongest applicable termination certificate for ``tgds``.

    The conditions are checked from the most informative to the most general:
    empty set, non-recursive set (which yields a depth bound), full set,
    weakly acyclic set.
    """
    tgd_list = list(tgds)
    if not tgd_list:
        return TerminationCertificate(
            guaranteed=True,
            reason="empty",
            depth_bound=0,
            explanation="an empty set of tgds never fires a chase step",
        )

    if is_non_recursive(tgd_list):
        depth = stratification_depth(tgd_list)
        return TerminationCertificate(
            guaranteed=True,
            reason="non-recursive",
            depth_bound=depth,
            explanation=(
                f"the predicate graph is acyclic with stratification depth "
                f"{depth}, so the chase proceeds through at most {depth} strata"
            ),
        )

    if all(tgd.is_full() for tgd in tgd_list):
        return TerminationCertificate(
            guaranteed=True,
            reason="full",
            depth_bound=None,
            explanation=(
                "full tgds create no nulls, so the chase stops once every "
                "derivable atom over the active domain has been added"
            ),
        )

    if is_weakly_acyclic(tgd_list):
        positions = len(position_dependency_graph(tgd_list).positions)
        return TerminationCertificate(
            guaranteed=True,
            reason="weakly-acyclic",
            depth_bound=positions,
            explanation=(
                "no cycle of the position dependency graph uses a special "
                f"edge, so the rank of every null is bounded by the {positions} "
                "positions of the schema"
            ),
        )

    return TerminationCertificate(
        guaranteed=False,
        reason="none",
        depth_bound=None,
        explanation=(
            "no sufficient termination condition applies (the chase may still "
            "terminate on particular instances)"
        ),
    )


def chase_depth_bound(tgds: Sequence[TGD]) -> Optional[int]:
    """Return a depth bound for the chase, if a certificate provides one."""
    return certify_termination(tgds).depth_bound


# ----------------------------------------------------------------------
# Size / step budget estimation
# ----------------------------------------------------------------------
def full_chase_size_bound(instance_or_query, tgds: Sequence[TGD]) -> int:
    """Upper bound on ``|chase(I, Σ)|`` when ``Σ`` is a set of full tgds.

    Full tgds never extend the active domain, so the chase result is a subset
    of all atoms over the predicates of ``I ∪ Σ`` and the active domain of
    ``I``; the bound is ``Σ_R |adom|^{arity(R)}``.

    Raises:
        ValueError: if some tgd is not full (the bound would be wrong).
    """
    tgd_list = list(tgds)
    if any(not tgd.is_full() for tgd in tgd_list):
        raise ValueError("full_chase_size_bound requires a set of full tgds")
    if isinstance(instance_or_query, ConjunctiveQuery):
        domain_size = len(instance_or_query.terms())
        predicates = instance_or_query.predicates() | tgd_set_predicates(tgd_list)
    else:
        domain_size = len(instance_or_query.active_domain())
        predicates = set(instance_or_query.predicates()) | tgd_set_predicates(tgd_list)
    return sum(domain_size ** predicate.arity for predicate in predicates)


def recommended_step_budget(
    instance_or_query,
    tgds: Sequence[TGD],
    default: int = 10_000,
    cap: int = 1_000_000,
) -> int:
    """A step budget that is provably sufficient when a certificate applies.

    For full sets the budget is the size bound of :func:`full_chase_size_bound`
    (every productive step adds at least one atom); for the other certified
    classes the default is kept (their bounds are instance-independent and
    already generous); uncertified sets also keep the default.  The result is
    capped so that callers never accidentally ask for an astronomically large
    budget.
    """
    certificate = certify_termination(tgds)
    if certificate.reason == "full":
        return min(max(default, full_chase_size_bound(instance_or_query, tgds) + 1), cap)
    return min(default, cap)


# ----------------------------------------------------------------------
# Restricted vs oblivious comparison (ablation support)
# ----------------------------------------------------------------------
@dataclass
class ChaseComparison:
    """Side-by-side outcome of the restricted and oblivious chase variants."""

    restricted: ChaseResult
    oblivious: ChaseResult

    @property
    def both_terminated(self) -> bool:
        return self.restricted.terminated and self.oblivious.terminated

    @property
    def restricted_size(self) -> int:
        return len(self.restricted.instance)

    @property
    def oblivious_size(self) -> int:
        return len(self.oblivious.instance)

    @property
    def restricted_steps(self) -> int:
        return self.restricted.step_count

    @property
    def oblivious_steps(self) -> int:
        return self.oblivious.step_count

    def oblivious_overhead(self) -> float:
        """Size of the oblivious result relative to the restricted one (≥ 1.0)."""
        if self.restricted_size == 0:
            return 1.0
        return self.oblivious_size / self.restricted_size

    def summary(self) -> str:
        return (
            f"restricted: {self.restricted_size} atoms / {self.restricted_steps} steps; "
            f"oblivious: {self.oblivious_size} atoms / {self.oblivious_steps} steps"
        )


def compare_chase_variants(
    instance: Instance,
    tgds: Sequence[TGD],
    max_steps: int = 10_000,
    max_depth: Optional[int] = None,
) -> ChaseComparison:
    """Run both chase variants on the same input and package the results.

    The oblivious chase fires every trigger exactly once regardless of
    whether the head is already satisfied, so its result is never smaller
    than the restricted one; the comparison quantifies that overhead, which
    is what the restricted-vs-oblivious ablation in the benchmarks reports.
    """
    restricted = chase(
        instance, list(tgds), variant="restricted", max_steps=max_steps, max_depth=max_depth
    )
    oblivious = chase(
        instance, list(tgds), variant="oblivious", max_steps=max_steps, max_depth=max_depth
    )
    return ChaseComparison(restricted=restricted, oblivious=oblivious)
