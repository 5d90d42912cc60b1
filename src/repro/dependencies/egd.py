"""Equality-generating dependencies (egds).

An egd is an expression ``∀x̄ (φ(x̄) → x_i = x_j)`` (Section 2).  Egds
subsume functional dependencies and keys; those higher-level notions live in
:mod:`repro.dependencies.fd` and compile down to this class.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from ..datamodel import (
    Atom,
    Instance,
    Predicate,
    Schema,
    Term,
    Variable,
    atoms_predicates,
    atoms_variables,
)
from ..queries.cq import ConjunctiveQuery
from ..queries.homomorphism import homomorphisms


class EGD:
    """An equality-generating dependency ``body → left = right``."""

    def __init__(
        self,
        body: Iterable[Atom],
        left: Variable,
        right: Variable,
        label: Optional[str] = None,
    ) -> None:
        self._body: Tuple[Atom, ...] = tuple(body)
        self._left = left
        self._right = right
        self.label = label or "egd"
        if not self._body:
            raise ValueError("an egd needs at least one body atom")
        body_variables = atoms_variables(self._body)
        for variable in (left, right):
            if variable not in body_variables:
                raise ValueError(
                    f"equated variable {variable} does not occur in the body"
                )
        for atom in self._body:
            if atom.nulls():
                raise ValueError(f"egds must not contain nulls: {atom}")

    # ------------------------------------------------------------------
    @property
    def body(self) -> Tuple[Atom, ...]:
        return self._body

    @property
    def left(self) -> Variable:
        return self._left

    @property
    def right(self) -> Variable:
        return self._right

    def body_variables(self) -> Set[Variable]:
        return atoms_variables(self._body)

    def predicates(self) -> Set[Predicate]:
        return atoms_predicates(self._body)

    def schema(self) -> Schema:
        return Schema(self.predicates())

    def max_arity(self) -> int:
        """Maximum arity of the predicates mentioned by the egd."""
        return max(p.arity for p in self.predicates())

    def is_body_connected(self) -> bool:
        """Return ``True`` iff the Gaifman graph of the body is connected."""
        return ConjunctiveQuery((), self._body, name="body").is_connected()

    def body_query(self) -> ConjunctiveQuery:
        """The Boolean CQ made of the egd's body."""
        return ConjunctiveQuery((), self._body, name=f"{self.label}_body")

    # ------------------------------------------------------------------
    # Logical reading
    # ------------------------------------------------------------------
    def violations(self, instance: Instance) -> Iterable[Dict[Term, Term]]:
        """Yield triggers ``h`` with ``h(left) != h(right)`` (egd violations)."""
        for mapping in homomorphisms(self._body, instance):
            if mapping[self._left] != mapping[self._right]:
                yield mapping

    def is_satisfied_by(self, instance: Instance) -> bool:
        """Return ``True`` iff ``instance`` satisfies the egd."""
        for _ in self.violations(instance):
            return False
        return True

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EGD):
            return NotImplemented
        return (
            set(self._body) == set(other._body)
            and {self._left, self._right} == {other._left, other._right}
        )

    def __hash__(self) -> int:
        return hash((frozenset(self._body), frozenset((self._left, self._right))))

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self._body)
        return f"{body} → {self._left} = {self._right}"

    def __repr__(self) -> str:
        return f"EGD({self})"
