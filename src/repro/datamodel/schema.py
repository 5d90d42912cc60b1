"""Relational schemas: named collections of predicates with fixed arities."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from .atoms import Atom, Predicate


class Schema:
    """A relational schema ``σ``: a finite set of relation symbols.

    The schema object is deliberately lightweight — most algorithms in the
    library only need it to validate inputs, to enumerate predicates (e.g.
    when building trivial acyclic approximations, Section 8.2) and to report
    the maximum arity (the parameter ``a_{q,Σ}`` of Propositions 17/19).
    """

    def __init__(self, predicates: Iterable[Predicate] = ()) -> None:
        self._predicates: Dict[str, Predicate] = {}
        for predicate in predicates:
            self.add(predicate)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, predicate: Predicate) -> Predicate:
        """Add ``predicate`` to the schema.

        Raises:
            ValueError: if a predicate with the same name but different arity
                is already present.
        """
        existing = self._predicates.get(predicate.name)
        if existing is not None and existing.arity != predicate.arity:
            raise ValueError(
                f"predicate {predicate.name} already declared with arity "
                f"{existing.arity}, cannot redeclare with arity {predicate.arity}"
            )
        self._predicates[predicate.name] = predicate
        return predicate

    def predicate(self, name: str, arity: Optional[int] = None) -> Predicate:
        """Return the predicate called ``name``, declaring it if needed.

        If ``arity`` is given and the predicate is unknown, it is declared on
        the fly; if it is known, the arity is checked.
        """
        existing = self._predicates.get(name)
        if existing is not None:
            if arity is not None and existing.arity != arity:
                raise ValueError(
                    f"predicate {name} has arity {existing.arity}, not {arity}"
                )
            return existing
        if arity is None:
            raise KeyError(f"unknown predicate {name!r} (no arity supplied)")
        return self.add(Predicate(name, arity))

    @classmethod
    def from_atoms(cls, atoms: Iterable[Atom]) -> "Schema":
        """Build the schema induced by a collection of atoms."""
        schema = cls()
        for atom in atoms:
            schema.add(atom.predicate)
        return schema

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __contains__(self, item: object) -> bool:
        if isinstance(item, Predicate):
            return self._predicates.get(item.name) == item
        if isinstance(item, str):
            return item in self._predicates
        return False

    def __iter__(self) -> Iterator[Predicate]:
        return iter(sorted(self._predicates.values()))

    def __len__(self) -> int:
        return len(self._predicates)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._predicates == other._predicates

    __hash__ = None  # type: ignore[assignment]  # a schema grows with add()

    def predicates(self) -> List[Predicate]:
        """Return the predicates of the schema in a deterministic order."""
        return sorted(self._predicates.values())

    @property
    def max_arity(self) -> int:
        """Return the maximum arity over the schema (0 for an empty schema)."""
        if not self._predicates:
            return 0
        return max(p.arity for p in self._predicates.values())

    def validate_atom(self, atom: Atom) -> None:
        """Check that ``atom`` is well-formed with respect to this schema.

        Raises:
            ValueError: if the atom's predicate clashes with the schema.
        """
        declared = self._predicates.get(atom.predicate.name)
        if declared is None:
            raise ValueError(f"atom {atom} uses undeclared predicate")
        if declared.arity != atom.predicate.arity:
            raise ValueError(
                f"atom {atom} has arity {atom.predicate.arity}, schema "
                f"declares {declared.arity}"
            )

    def union(self, other: "Schema") -> "Schema":
        """Return the union of two schemas (arities must agree)."""
        result = Schema(self.predicates())
        for predicate in other.predicates():
            result.add(predicate)
        return result

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.predicates()) + "}"

    def __repr__(self) -> str:
        return f"Schema({self.predicates()!r})"
