"""Acyclicity-preservation instrumentation for the chase (Definition 1).

A class of dependencies has *acyclicity-preserving chase* when chasing an
acyclic CQ can never produce a cyclic instance.  The paper proves that
guarded tgds (Proposition 12) and keys over unary/binary predicates
(Proposition 22) enjoy the property, while non-recursive and sticky sets
(Example 2) and keys over higher arities (Examples 4/5) do not.

This module offers empirical checks of the property for concrete inputs:
chase the query, then test the acyclicity of the result.  The benchmarks use
them to regenerate the paper's examples and to measure how often randomly
generated sets preserve acyclicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..hypergraph import is_acyclic_instance
from ..queries.cq import ConjunctiveQuery
from .egd_chase import egd_chase_query
from .tgd_chase import chase_query


@dataclass
class PreservationReport:
    """Outcome of an acyclicity-preservation experiment on one query."""

    query_acyclic: bool
    chase_acyclic: bool
    chase_terminated: bool
    chase_size: int

    @property
    def preserved(self) -> bool:
        """Acyclicity preserved (only meaningful when the query was acyclic)."""
        return (not self.query_acyclic) or self.chase_acyclic


def tgd_chase_preserves_acyclicity(
    query: ConjunctiveQuery,
    tgds: Sequence[TGD],
    max_steps: int = 5_000,
    max_depth: Optional[int] = None,
) -> PreservationReport:
    """Chase an acyclic CQ with tgds and check whether acyclicity survived.

    When the chase does not terminate within the budget the report still
    checks the truncated result; a cyclic truncated chase already refutes
    preservation (the truncated chase is a subset of every chase result only
    up to homomorphism, but cycles found among the produced atoms are
    genuine products of the chase steps performed).
    """
    result, _ = chase_query(query, tgds, max_steps=max_steps, max_depth=max_depth)
    return PreservationReport(
        query_acyclic=query.is_acyclic(),
        chase_acyclic=is_acyclic_instance(result.instance),
        chase_terminated=result.terminated,
        chase_size=len(result.instance),
    )


def egd_chase_preserves_acyclicity(
    query: ConjunctiveQuery,
    egds: Sequence[EGD],
) -> PreservationReport:
    """Chase an acyclic CQ with egds and check whether acyclicity survived."""
    result, _ = egd_chase_query(query, egds, on_failure="return")
    return PreservationReport(
        query_acyclic=query.is_acyclic(),
        chase_acyclic=is_acyclic_instance(result.instance),
        chase_terminated=not result.failed,
        chase_size=len(result.instance),
    )
