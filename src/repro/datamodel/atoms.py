"""Relational atoms ``R(t1, ..., tn)`` over constants, nulls and variables."""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, NoReturn, Set, Tuple

from .terms import Constant, Null, Term, Variable


_set_field = object.__setattr__


class _Value:
    """An immutable, slotted value, equal, hashed and ordered by its
    ``_key()`` within its class, as a frozen ordered dataclass is by its
    fields.  ``__init__`` sets the fields and ``_hash``, the hash of the
    key, once: every dict or set lookup reads it.  Each subclass compares
    its own fields in ``__eq__`` (a dict hit calls it, and building two
    key tuples there costs more than the comparison).
    """

    __slots__ = ("_hash",)

    _hash: int

    def _key(self) -> Tuple[object, ...]:
        raise NotImplementedError

    def __setattr__(self, name: str, value: object) -> NoReturn:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> NoReturn:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self) -> Tuple[type, Tuple[object, ...]]:
        return (self.__class__, self._key())

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, _Value) or other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() < other._key()

    def __le__(self, other: object) -> bool:
        if not isinstance(other, _Value) or other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() <= other._key()

    def __gt__(self, other: object) -> bool:
        if not isinstance(other, _Value) or other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() > other._key()

    def __ge__(self, other: object) -> bool:
        if not isinstance(other, _Value) or other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() >= other._key()


class Predicate(_Value):
    """A relation symbol with a fixed arity."""

    __slots__ = ("name", "arity")

    name: str
    arity: int

    def __init__(self, name: str, arity: int) -> None:
        if arity < 0:
            raise ValueError(f"arity must be non-negative, got {arity}")
        _set_field(self, "name", name)
        _set_field(self, "arity", arity)
        _set_field(self, "_hash", hash((name, arity)))

    def _key(self) -> Tuple[str, int]:
        return (self.name, self.arity)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Predicate) or other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self.name == other.name and self.arity == other.arity

    __hash__ = _Value.__hash__

    def __repr__(self) -> str:
        return f"Predicate(name={self.name!r}, arity={self.arity!r})"

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"

    def __call__(self, *terms: Term) -> "Atom":
        """Convenience constructor: ``R(x, y)`` builds the atom directly."""
        return Atom(self, tuple(terms))


class Atom(_Value):
    """An atom ``R(t1, ..., tn)``.

    Atoms are immutable and hashable so that instances can be plain Python
    sets of atoms, exactly as in the paper.
    """

    __slots__ = ("predicate", "terms")

    predicate: Predicate
    terms: Tuple[Term, ...]

    def __init__(self, predicate: Predicate, terms: Tuple[Term, ...]) -> None:
        if terms.__class__ is not tuple:
            terms = tuple(terms)
        if len(terms) != predicate.arity:
            raise ValueError(
                f"predicate {predicate} expects {predicate.arity} "
                f"terms, got {len(terms)}"
            )
        _set_field(self, "predicate", predicate)
        _set_field(self, "terms", terms)
        _set_field(self, "_hash", hash((predicate, terms)))

    def _key(self) -> Tuple[Predicate, Tuple[Term, ...]]:
        return (self.predicate, self.terms)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Atom) or other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.predicate == other.predicate
            and self.terms == other.terms
        )

    __hash__ = _Value.__hash__

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


def atoms_predicates(atoms: Iterable[Atom]) -> Set[Predicate]:
    """Return the set of predicates occurring in ``atoms``."""
    return {atom.predicate for atom in atoms}
