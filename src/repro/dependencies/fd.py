"""Functional dependencies and keys, compiled to egds.

A functional dependency ``R : A → B`` over an ``n``-ary relation ``R`` (with
``A, B ⊆ {1, ..., n}``, positions counted from 1 as in the paper) asserts
that the values of the attributes in ``B`` are determined by those in ``A``.
A key is an FD with ``A ∪ B = {1, ..., n}``.  The paper's positive results
for egds concern keys over unary and binary predicates (the class ``K2``,
Theorem 23) and unary FDs (FDs with ``|A| = 1``, the Figueira extension).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List

from ..datamodel import Atom, Predicate, Variable
from .egd import EGD


@dataclass(frozen=True)
class FunctionalDependency:
    """A functional dependency ``R : A → B`` (1-based attribute positions)."""

    predicate: Predicate
    determinant: FrozenSet[int]
    dependent: FrozenSet[int]

    def __post_init__(self) -> None:
        arity = self.predicate.arity
        positions = set(self.determinant) | set(self.dependent)
        if not positions <= set(range(1, arity + 1)):
            raise ValueError(
                f"attribute positions {sorted(positions)} outside 1..{arity} "
                f"for predicate {self.predicate}"
            )
        if not self.determinant:
            raise ValueError("the determinant of an FD must be non-empty")
        if not self.dependent:
            raise ValueError("the dependent set of an FD must be non-empty")

    # ------------------------------------------------------------------
    @staticmethod
    def of(
        predicate: Predicate,
        determinant: Iterable[int],
        dependent: Iterable[int],
    ) -> "FunctionalDependency":
        """Convenience constructor accepting any iterables of positions."""
        return FunctionalDependency(
            predicate, frozenset(determinant), frozenset(dependent)
        )

    # ------------------------------------------------------------------
    def is_key(self) -> bool:
        """Return ``True`` iff ``A ∪ B = {1, ..., n}`` (the FD is a key)."""
        return set(self.determinant) | set(self.dependent) == set(
            range(1, self.predicate.arity + 1)
        )

    def is_unary(self) -> bool:
        """Return ``True`` iff the determinant consists of a single attribute."""
        return len(self.determinant) == 1

    def over_low_arity(self, max_arity: int = 2) -> bool:
        """Return ``True`` iff the underlying predicate has arity ≤ ``max_arity``."""
        return self.predicate.arity <= max_arity

    # ------------------------------------------------------------------
    def to_egds(self) -> List[EGD]:
        """Compile the FD into one egd per dependent attribute.

        ``R : A → B`` becomes, for each ``b ∈ B \\ A``, the egd
        ``R(x̄), R(x̄') → x_b = x'_b`` where ``x̄`` and ``x̄'`` agree exactly on
        the positions of ``A``.
        """
        arity = self.predicate.arity
        first = [Variable(f"x{i}") for i in range(1, arity + 1)]
        second = [
            first[i - 1] if i in self.determinant else Variable(f"y{i}")
            for i in range(1, arity + 1)
        ]
        body = [Atom(self.predicate, tuple(first)), Atom(self.predicate, tuple(second))]
        egds: List[EGD] = []
        for position in sorted(set(self.dependent) - set(self.determinant)):
            egds.append(
                EGD(
                    body,
                    first[position - 1],
                    second[position - 1],
                    label=f"{self.predicate.name}:{sorted(self.determinant)}->{position}",
                )
            )
        if not egds:
            # B ⊆ A: the FD is trivial; emit a tautological egd equating a
            # determinant position with itself is pointless, so return nothing.
            return []
        return egds

    def __str__(self) -> str:
        return (
            f"{self.predicate.name}: "
            f"{{{', '.join(map(str, sorted(self.determinant)))}}} → "
            f"{{{', '.join(map(str, sorted(self.dependent)))}}}"
        )


def key(predicate: Predicate, key_positions: Iterable[int]) -> FunctionalDependency:
    """Build the key FD of ``predicate`` with the given key attributes."""
    key_set = frozenset(key_positions)
    others = frozenset(range(1, predicate.arity + 1)) - key_set
    if not others:
        raise ValueError(
            "a key over all attributes is trivial; give a proper subset"
        )
    return FunctionalDependency(predicate, key_set, others)


def fds_to_egds(fds: Iterable[FunctionalDependency]) -> List[EGD]:
    """Compile a collection of FDs into a flat list of egds."""
    egds: List[EGD] = []
    for fd in fds:
        egds.extend(fd.to_egds())
    return egds


def all_keys(fds: Iterable[FunctionalDependency]) -> bool:
    """Return ``True`` iff every FD in the collection is a key."""
    return all(fd.is_key() for fd in fds)


def all_unary(fds: Iterable[FunctionalDependency]) -> bool:
    """Return ``True`` iff every FD in the collection is unary (|A| = 1)."""
    return all(fd.is_unary() for fd in fds)


def all_over_low_arity(fds: Iterable[FunctionalDependency], max_arity: int = 2) -> bool:
    """Return ``True`` iff every FD concerns predicates of arity ≤ ``max_arity``."""
    return all(fd.over_low_arity(max_arity) for fd in fds)


def is_k2_set(fds: Iterable[FunctionalDependency]) -> bool:
    """The class ``K2`` of Theorem 23: keys over unary and binary predicates."""
    fd_list = list(fds)
    return all_keys(fd_list) and all_over_low_arity(fd_list, max_arity=2)
