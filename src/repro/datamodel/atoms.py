"""Relational atoms ``R(t1, ..., tn)`` over constants, nulls and variables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Set, Tuple

from .terms import Constant, Null, Term, Variable


@dataclass(frozen=True, order=True)
class Predicate:
    """A relation symbol with a fixed arity."""

    name: str
    arity: int

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ValueError(f"arity must be non-negative, got {self.arity}")

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"

    def __call__(self, *terms: Term) -> "Atom":
        """Convenience constructor: ``R(x, y)`` builds the atom directly."""
        return Atom(self, tuple(terms))


@dataclass(frozen=True, order=True)
class Atom:
    """An atom ``R(t1, ..., tn)``.

    Atoms are immutable and hashable so that instances can be plain Python
    sets of atoms, exactly as in the paper.
    """

    predicate: Predicate
    terms: Tuple[Term, ...]

    def __post_init__(self) -> None:
        if len(self.terms) != self.predicate.arity:
            raise ValueError(
                f"predicate {self.predicate} expects {self.predicate.arity} "
                f"terms, got {len(self.terms)}"
            )

    # ------------------------------------------------------------------
    # Inspection helpers
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        return self.predicate.arity

    def variables(self) -> Set[Variable]:
        """Return the set of variables occurring in the atom."""
        return {t for t in self.terms if isinstance(t, Variable)}

    def constants(self) -> Set[Constant]:
        """Return the set of constants occurring in the atom."""
        return {t for t in self.terms if isinstance(t, Constant)}

    def nulls(self) -> Set[Null]:
        """Return the set of nulls occurring in the atom."""
        return {t for t in self.terms if isinstance(t, Null)}

    def is_ground(self) -> bool:
        """Return ``True`` iff the atom mentions no variables."""
        return not any(isinstance(t, Variable) for t in self.terms)

    def positions_of(self, term: Term) -> Tuple[int, ...]:
        """Return the (0-based) positions at which ``term`` occurs."""
        return tuple(i for i, t in enumerate(self.terms) if t == term)

    # ------------------------------------------------------------------
    # Transformation helpers
    # ------------------------------------------------------------------
    def apply(self, mapping: Mapping[Term, Term]) -> "Atom":
        """Return the atom obtained by substituting terms according to ``mapping``.

        Terms not mentioned in ``mapping`` are left untouched.
        """
        return Atom(self.predicate, tuple(mapping.get(t, t) for t in self.terms))

    def map_terms(self, function: Callable[[Term], Term]) -> "Atom":
        """Return the atom obtained by applying ``function`` to every term."""
        return Atom(self.predicate, tuple(function(t) for t in self.terms))

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.terms)
        return f"{self.predicate.name}({inner})"

    def __repr__(self) -> str:
        return f"Atom({self.predicate.name}, {self.terms!r})"


def atoms_terms(atoms: Iterable[Atom]) -> Set[Term]:
    """Return the set of all terms occurring in ``atoms``."""
    result: Set[Term] = set()
    for atom in atoms:
        result.update(atom.terms)
    return result


def atoms_variables(atoms: Iterable[Atom]) -> Set[Variable]:
    """Return the set of all variables occurring in ``atoms``."""
    result: Set[Variable] = set()
    for atom in atoms:
        result.update(atom.variables())
    return result


def atoms_constants(atoms: Iterable[Atom]) -> Set[Constant]:
    """Return the set of all constants occurring in ``atoms``."""
    result: Set[Constant] = set()
    for atom in atoms:
        result.update(atom.constants())
    return result


def atoms_nulls(atoms: Iterable[Atom]) -> Set[Null]:
    """Return the set of all nulls occurring in ``atoms``."""
    result: Set[Null] = set()
    for atom in atoms:
        result.update(atom.nulls())
    return result


def atoms_predicates(atoms: Iterable[Atom]) -> Set[Predicate]:
    """Return the set of predicates occurring in ``atoms``."""
    return {atom.predicate for atom in atoms}
