"""The chase procedure for equality-generating dependencies.

Applying an egd ``φ(x̄) → x_i = x_j`` to an instance identifies the two
images ``h(x_i)`` and ``h(x_j)`` whenever a violating homomorphism ``h``
exists.  If both images are (genuine) constants the chase **fails**; if one
is a constant the null is replaced by it; if both are nulls one replaces the
other.  Frozen query constants ``c(x)`` are treated as nulls, exactly as the
paper prescribes for chasing queries with egds.

The egd chase always terminates (every step strictly decreases the number of
distinct terms) and is unique up to null renaming, so no budgets are needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..datamodel import (
    Atom,
    Constant,
    GroundTerm,
    Instance,
    Term,
    Variable,
    is_frozen_constant,
)
from ..dependencies.egd import EGD
from ..queries.cq import ConjunctiveQuery
from ..queries.homomorphism import homomorphisms


class EGDChaseFailure(RuntimeError):
    """Raised when an egd tries to identify two distinct genuine constants."""


@dataclass
class EGDChaseStep:
    """A single egd chase step: the egd, the violating trigger, the merge."""

    egd_index: int
    egd: EGD
    kept: GroundTerm
    replaced: GroundTerm


@dataclass
class EGDChaseResult:
    """Result of chasing an instance with a set of egds."""

    instance: Instance
    steps: List[EGDChaseStep] = field(default_factory=list)
    #: Composition of all merges applied so far: original term → representative.
    substitution: Dict[GroundTerm, GroundTerm] = field(default_factory=dict)
    failed: bool = False

    def resolve(self, term: GroundTerm) -> GroundTerm:
        """Return the representative of ``term`` after all identifications."""
        current = term
        seen = set()
        while current in self.substitution and current not in seen:
            seen.add(current)
            current = self.substitution[current]
        return current


def _is_rigid(term: GroundTerm) -> bool:
    """Genuine constants cannot be renamed by the egd chase."""
    return isinstance(term, Constant) and not is_frozen_constant(term)


def _choose_representative(left: GroundTerm, right: GroundTerm) -> Tuple[GroundTerm, GroundTerm]:
    """Decide which of two identified terms survives (kept, replaced).

    Preference: genuine constants > frozen constants > nulls; ties are broken
    by string order for determinism.
    """
    def rank(term: GroundTerm) -> int:
        if _is_rigid(term):
            return 0
        if isinstance(term, Constant):
            return 1
        return 2

    left_rank, right_rank = rank(left), rank(right)
    if left_rank < right_rank:
        return left, right
    if right_rank < left_rank:
        return right, left
    return (left, right) if str(left) <= str(right) else (right, left)


def egd_chase(
    instance: Instance,
    egds: Sequence[EGD],
    on_failure: str = "raise",
) -> EGDChaseResult:
    """Chase ``instance`` with ``egds`` until no violation remains.

    Args:
        instance: the instance to chase (not modified).
        egds: the egds to enforce.
        on_failure: ``"raise"`` (default) raises :class:`EGDChaseFailure` when
            two genuine constants must be identified; ``"return"`` returns a
            result with ``failed=True`` instead.
    """
    # The search reads the copy's term index: build it on the input, where
    # later chases of the same input find it.
    instance.index_terms()
    result = EGDChaseResult(instance=instance.copy())

    changed = True
    while changed:
        changed = False
        for egd_index, egd in enumerate(egds):
            violation: Optional[Dict[Term, Term]] = None
            for mapping in homomorphisms(egd.body, result.instance):
                if mapping[egd.left] != mapping[egd.right]:
                    violation = mapping
                    break
            if violation is None:
                continue

            left_value = violation[egd.left]
            right_value = violation[egd.right]
            if _is_rigid(left_value) and _is_rigid(right_value):
                result.failed = True
                if on_failure == "raise":
                    raise EGDChaseFailure(
                        f"egd {egd} requires identifying distinct constants "
                        f"{left_value} and {right_value}"
                    )
                return result

            kept, replaced = _choose_representative(left_value, right_value)
            result.instance = result.instance.apply({replaced: kept})
            result.substitution[replaced] = kept
            result.steps.append(
                EGDChaseStep(egd_index=egd_index, egd=egd, kept=kept, replaced=replaced)
            )
            changed = True
            break  # restart the scan on the updated instance
    return result


def egd_chase_query(
    query: ConjunctiveQuery,
    egds: Sequence[EGD],
    on_failure: str = "raise",
) -> Tuple[EGDChaseResult, Dict[Variable, Constant]]:
    """Chase a CQ with egds: freeze the query, then run the egd chase.

    Frozen constants are treated as nulls by the chase, per Section 2.
    Returns the chase result plus the freezing map.
    """
    database, freezing = query.freeze()
    result = egd_chase(database, egds, on_failure=on_failure)
    return result, freezing


def chased_query(
    query: ConjunctiveQuery,
    egds: Sequence[EGD],
    name: Optional[str] = None,
) -> ConjunctiveQuery:
    """Return the CQ obtained by chasing ``query`` with ``egds``.

    The chased instance is translated back into a query: frozen constants
    become variables again (their original names where possible) and the
    head follows the identifications made by the chase.  This is the "apply
    the key on the query" operation of Examples 4 and 5.
    """
    result, freezing = egd_chase_query(query, egds)
    reverse: Dict[Term, Variable] = {}
    for variable, constant in freezing.items():
        representative = result.resolve(constant)
        if representative not in reverse:
            if is_frozen_constant(representative):
                reverse[representative] = variable
    # Nulls never appear here (egds introduce no fresh terms) but genuine
    # constants may: keep them as constants.
    counter = 0
    body: List[Atom] = []
    for atom in result.instance.sorted_atoms():
        terms: List[Term] = []
        for term in atom.terms:
            if _is_rigid(term):
                terms.append(term)
                continue
            if term not in reverse:
                reverse[term] = Variable(f"merged_{counter}")
                counter += 1
            terms.append(reverse[term])
        body.append(Atom(atom.predicate, tuple(terms)))

    head: List[Variable] = []
    for variable in query.head:
        representative = result.resolve(freezing[variable])
        image = reverse.get(representative)
        if image is None:
            raise ValueError(
                f"free variable {variable} was identified with a constant; "
                f"the chased query cannot be expressed without constants in the head"
            )
        head.append(image)
    return ConjunctiveQuery(head, body, name=name or f"{query.name}_chased")
