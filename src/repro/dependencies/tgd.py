"""Tuple-generating dependencies (tgds).

A tgd is an expression ``∀x̄∀ȳ (φ(x̄, ȳ) → ∃z̄ ψ(x̄, z̄))`` where ``φ`` (the
body) and ``ψ`` (the head) are conjunctions of atoms (Section 2).  The class
below exposes the structural notions needed by the classification machinery
(frontier / existential variables, guards, linearity, connectivity) and the
logical reading used by the chase (applicability and satisfaction).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

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


class TGD:
    """A tuple-generating dependency ``body → ∃z̄ head``."""

    def __init__(
        self,
        body: Iterable[Atom],
        head: Iterable[Atom],
        label: Optional[str] = None,
    ) -> None:
        self._body: Tuple[Atom, ...] = tuple(body)
        self._head: Tuple[Atom, ...] = tuple(head)
        self.label = label or "tgd"
        if not self._body:
            raise ValueError("a tgd needs at least one body atom")
        if not self._head:
            raise ValueError("a tgd needs at least one head atom")
        for atom in self._body + self._head:
            if atom.nulls():
                raise ValueError(f"tgds must not contain nulls: {atom}")
        # The chase reads these on every trigger; a tgd is immutable, so
        # they are computed once and handed out as frozen sets.
        self._body_variables = frozenset(atoms_variables(self._body))
        self._head_variables = frozenset(atoms_variables(self._head))
        self._frontier_variables = self._body_variables & self._head_variables
        self._existential_variables = self._head_variables - self._body_variables

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def body(self) -> Tuple[Atom, ...]:
        return self._body

    @property
    def head(self) -> Tuple[Atom, ...]:
        return self._head

    def atoms(self) -> Tuple[Atom, ...]:
        """The body atoms, then the head atoms."""
        return self._body + self._head

    def body_variables(self) -> FrozenSet[Variable]:
        """Variables occurring in the body (the ``x̄ ∪ ȳ`` of the definition)."""
        return self._body_variables

    def head_variables(self) -> FrozenSet[Variable]:
        """Variables occurring in the head."""
        return self._head_variables

    def frontier_variables(self) -> FrozenSet[Variable]:
        """Variables shared between body and head (the ``x̄``)."""
        return self._frontier_variables

    def existential_variables(self) -> FrozenSet[Variable]:
        """Head variables that do not occur in the body (the ``z̄``)."""
        return self._existential_variables

    def predicates(self) -> Set[Predicate]:
        return atoms_predicates(self.atoms())

    def body_predicates(self) -> Set[Predicate]:
        return atoms_predicates(self._body)

    def head_predicates(self) -> Set[Predicate]:
        return atoms_predicates(self._head)

    def schema(self) -> Schema:
        return Schema(self.predicates())

    # ------------------------------------------------------------------
    # Syntactic classes (per-tgd notions; set-level notions live in
    # ``repro.dependencies.classification``)
    # ------------------------------------------------------------------
    def is_full(self) -> bool:
        """Full tgds have no existentially quantified head variables."""
        return not self.existential_variables()

    def guards(self) -> List[Atom]:
        """Return the body atoms that contain every body variable."""
        body_variables = self.body_variables()
        return [atom for atom in self._body if body_variables <= atom.variables()]

    def is_guarded(self) -> bool:
        """Guarded tgds have a body atom containing all body variables."""
        return bool(self.guards())

    def guard(self) -> Atom:
        """Return one guard atom.

        Raises:
            ValueError: if the tgd is not guarded.
        """
        guards = self.guards()
        if not guards:
            raise ValueError(f"tgd {self} is not guarded")
        return guards[0]

    def is_linear(self) -> bool:
        """Linear tgds have a single body atom."""
        return len(self._body) == 1

    def is_inclusion_dependency(self) -> bool:
        """Inclusion dependencies: linear, single head atom, no repeated variables.

        Neither the body atom nor the head atom may repeat a variable, and no
        constants are allowed.
        """
        if not self.is_linear() or len(self._head) != 1:
            return False
        body_atom = self._body[0]
        head_atom = self._head[0]
        for atom in (body_atom, head_atom):
            if atom.constants():
                return False
            if len(set(atom.terms)) != len(atom.terms):
                return False
        return True

    def is_body_connected(self) -> bool:
        """Return ``True`` iff the Gaifman graph of the body is connected."""
        return ConjunctiveQuery((), self._body, name="body").is_connected()

    # ------------------------------------------------------------------
    # Logical reading
    # ------------------------------------------------------------------
    def body_query(self) -> ConjunctiveQuery:
        """The CQ ``q_φ(x̄) = ∃ȳ φ(x̄, ȳ)`` with the frontier as free variables."""
        frontier = sorted(self.frontier_variables(), key=str)
        return ConjunctiveQuery(frontier, self._body, name=f"{self.label}_body")

    def triggers(self, instance: Instance) -> Iterable[Dict[Term, Term]]:
        """Yield every homomorphism from the body into ``instance`` (the triggers)."""
        return homomorphisms(self._body, instance)

    def is_satisfied_by(self, instance: Instance) -> bool:
        """Return ``True`` iff ``instance`` satisfies the tgd.

        An instance satisfies ``φ → ∃z̄ ψ`` iff every trigger extends to a
        homomorphism of the head (equivalently ``q_φ(I) ⊆ q_ψ(I)``).
        """
        for trigger in self.triggers(instance):
            restricted = {
                variable: trigger[variable]
                for variable in self.frontier_variables()
            }
            satisfied = False
            for _ in homomorphisms(self._head, instance, seed=restricted):
                satisfied = True
                break
            if not satisfied:
                return False
        return True

    # ------------------------------------------------------------------
    def rename_apart(self, taken: Iterable[Variable], suffix: str = "_t") -> "TGD":
        """Return a variant of the tgd whose variables avoid ``taken``."""
        taken_names = {variable.name for variable in taken}
        mapping: Dict[Term, Term] = {}
        for variable in sorted(self.body_variables() | self.head_variables(), key=str):
            if variable.name in taken_names:
                candidate = variable.name + suffix
                counter = 0
                while candidate in taken_names:
                    counter += 1
                    candidate = f"{variable.name}{suffix}{counter}"
                taken_names.add(candidate)
                mapping[variable] = Variable(candidate)
        if not mapping:
            return self
        return TGD(
            [atom.apply(mapping) for atom in self._body],
            [atom.apply(mapping) for atom in self._head],
            label=self.label,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TGD):
            return NotImplemented
        return set(self._body) == set(other._body) and set(self._head) == set(other._head)

    def __hash__(self) -> int:
        return hash((frozenset(self._body), frozenset(self._head)))

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self._body)
        head = ", ".join(str(a) for a in self._head)
        existential = sorted(self.existential_variables(), key=str)
        prefix = f"∃{','.join(str(v) for v in existential)} " if existential else ""
        return f"{body} → {prefix}{head}"

    def __repr__(self) -> str:
        return f"TGD({self})"


def tgd_set_predicates(tgds: Iterable[TGD]) -> Set[Predicate]:
    """All predicates used across a set of tgds."""
    result: Set[Predicate] = set()
    for tgd in tgds:
        result.update(tgd.predicates())
    return result


def tgd_set_schema(tgds: Iterable[TGD]) -> Schema:
    """The schema induced by a set of tgds."""
    return Schema(tgd_set_predicates(tgds))
