"""Terms of the relational model: constants, labelled nulls and variables.

The paper works with three countably infinite, pairwise disjoint sets of
terms (Section 2):

* ``C`` — constants, which appear in databases and queries and are rigid
  (homomorphisms are the identity on them);
* ``N`` — labelled nulls, which appear in (possibly infinite) instances and
  behave like existentially quantified placeholders;
* ``V`` — variables, which appear in queries and dependencies.

This module provides immutable, hashable classes for the three kinds of
terms, together with small factories that generate fresh nulls/variables and
the ``freeze``/``unfreeze`` helpers used when turning a query into its
canonical database (the ``c(x)`` constants of Lemma 1).

Terms are interned
------------------
``Constant(name)``, ``Null(label)`` and ``Variable(name)`` return the one
live object of that class for that key, so two terms are equal iff they are
the same object.  ``==`` and ``hash`` are therefore ``object``'s own, and
every term-keyed structure (answer sets, partitions, encoder tables,
homomorphism search, the chase) hashes and compares terms at C speed.

Each class keeps one weak table, key -> weak reference to the live term.  A
hit is a lock-free dict lookup.  A miss takes a lock, looks again, and
inserts.  When a term dies, its weak reference's callback removes the entry,
but only if the slot still holds that reference.  The table pins nothing: a
term lives exactly as long as something else refers to it.

The table is looked up with the keys' own ``==``, which is the equality the
terms had before interning.  So ``Constant(1) == Constant(True)`` and
``Constant(1) != Constant("1")``.  One consequence: the first key interned
wins.  While ``Constant(1)`` is alive, ``Constant(True)`` and
``Constant(1.0)`` return it, and their ``name`` is ``1``.  The parser only
produces ``int`` and ``str`` names, so the corner needs mixed-type names
built by hand.
"""

from __future__ import annotations

import functools
import itertools
import threading
import weakref
from typing import Dict, Generic, List, NoReturn, Tuple, Type, TypeVar, Union

_T = TypeVar("_T", bound="_InternedTerm")

#: Guards every table's misses and removals; re-entrant because a removal
#: can run from a collection triggered inside a miss on the same thread.
_LOCK = threading.RLock()


@functools.total_ordering
class _InternedTerm:
    """Behaviour shared by the three interned term classes.

    Subclasses hold one field, set once in ``__new__``; there is no
    ``__init__``, which would run again on the interned object ``__new__``
    returns.  Instances are frozen, order within their class by that field
    (``<`` across classes raises ``TypeError``), and pickle and copy to
    themselves.
    """

    __slots__ = ("__weakref__",)

    def _key(self) -> object:
        raise NotImplementedError

    def __setattr__(self, name: str, value: object) -> NoReturn:
        raise AttributeError(f"cannot assign to field {name!r} of an interned term")

    def __delattr__(self, name: str) -> NoReturn:
        raise AttributeError(f"cannot delete field {name!r} of an interned term")

    def __reduce__(self) -> Tuple[type, Tuple[object]]:
        return (self.__class__, (self._key(),))

    def __copy__(self: _T) -> _T:
        return self

    def __deepcopy__(self: _T, memo: object) -> _T:
        return self

    def __lt__(self, other: object) -> bool:
        if isinstance(other, _InternedTerm) and other.__class__ is self.__class__:
            return (self._key(),) < (other._key(),)
        return NotImplemented


class _TermRef(weakref.ref[_T]):
    """A weak reference that remembers its table key: ``weakref.KeyedRef``
    without its python-level constructor, which adds ~0.4 µs to each miss
    (CPython 3.11, x86_64)."""

    __slots__ = ("key",)

    key: object


class _InternTable(Generic[_T]):
    """The weak table of one term class: key -> reference to the live term."""

    def __init__(self, cls: Type[_T], field: str) -> None:
        self.refs: Dict[object, _TermRef[_T]] = {}
        self._cls = cls
        self._field = field
        # Held here: _discard can run at exit, after module globals are cleared.
        self._lock = _LOCK
        # One bound method serves as every entry's callback.
        self._discard_ref = self._discard

    def __len__(self) -> int:
        return len(self.refs)

    def _discard(self, dead: _TermRef[_T]) -> None:
        with self._lock:
            if self.refs.get(dead.key) is dead:
                del self.refs[dead.key]

    def intern(self, key: object) -> _T:
        """The miss path: look again under the lock, then insert."""
        with self._lock:
            ref = self.refs.get(key)
            if ref is not None:
                term = ref()
                if term is not None:
                    return term
            term = object.__new__(self._cls)
            object.__setattr__(term, self._field, key)
            entry = _TermRef(term, self._discard_ref)
            entry.key = key
            self.refs[key] = entry
            return term


class Constant(_InternedTerm):
    """A constant from the countably infinite set ``C``.

    Constants are rigid: every homomorphism maps a constant to itself.  The
    ``name`` may be any hashable printable value.  Constants are interned:
    two constants are equal iff they are the same object, which holds iff
    their names are equal (see the module docstring for names of different
    types that compare equal, such as ``1`` and ``True``).
    """

    __slots__ = ("name",)

    name: object

    def __new__(cls, name: object) -> Constant:
        ref = _CONSTANTS.refs.get(name)
        if ref is not None:
            term = ref()
            if term is not None:
                return term
        return _CONSTANTS.intern(name)

    def _key(self) -> object:
        return self.name

    def __str__(self) -> str:
        return str(self.name)

    def __repr__(self) -> str:
        return f"Constant({self.name!r})"

    @property
    def is_constant(self) -> bool:
        return True

    @property
    def is_null(self) -> bool:
        return False

    @property
    def is_variable(self) -> bool:
        return False


class Null(_InternedTerm):
    """A labelled null from the countably infinite set ``N``.

    Nulls are produced by the chase when existential quantifiers are
    satisfied with fresh witnesses.  Nulls are interned: two nulls are equal
    iff they are the same object, which holds iff their labels are equal.
    Fresh nulls should be created through :class:`TermFactory` (or
    :func:`fresh_null`) to guarantee global uniqueness.
    """

    __slots__ = ("label",)

    label: object

    def __new__(cls, label: object) -> Null:
        ref = _NULLS.refs.get(label)
        if ref is not None:
            term = ref()
            if term is not None:
                return term
        return _NULLS.intern(label)

    def _key(self) -> object:
        return self.label

    def __str__(self) -> str:
        return f"_:{self.label}"

    def __repr__(self) -> str:
        return f"Null({self.label!r})"

    @property
    def is_constant(self) -> bool:
        return False

    @property
    def is_null(self) -> bool:
        return True

    @property
    def is_variable(self) -> bool:
        return False


class Variable(_InternedTerm):
    """A variable from the countably infinite set ``V`` (queries and tgds).

    Variables are interned: two variables are equal iff they are the same
    object, which holds iff their names are equal.
    """

    __slots__ = ("name",)

    name: str

    def __new__(cls, name: str) -> Variable:
        ref = _VARIABLES.refs.get(name)
        if ref is not None:
            term = ref()
            if term is not None:
                return term
        return _VARIABLES.intern(name)

    def _key(self) -> object:
        return self.name

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    @property
    def is_constant(self) -> bool:
        return False

    @property
    def is_null(self) -> bool:
        return False

    @property
    def is_variable(self) -> bool:
        return True


_CONSTANTS: _InternTable[Constant] = _InternTable(Constant, "name")
_NULLS: _InternTable[Null] = _InternTable(Null, "label")
_VARIABLES: _InternTable[Variable] = _InternTable(Variable, "name")


#: Any term of the relational model.
Term = Union[Constant, Null, Variable]

#: Terms that may appear in an instance (no variables).
GroundTerm = Union[Constant, Null]


class TermFactory:
    """Thread-safe factory of globally fresh nulls and variables.

    The chase and the rewriting algorithms both need a supply of terms that
    are guaranteed not to clash with anything already present; routing every
    fresh term through a single factory keeps that invariant simple.
    """

    def __init__(self, null_prefix: str = "n", variable_prefix: str = "v") -> None:
        self._null_prefix = null_prefix
        self._variable_prefix = variable_prefix
        self._null_counter = itertools.count()
        self._variable_counter = itertools.count()
        self._lock = threading.Lock()

    def fresh_null(self) -> Null:
        """Return a null that has never been returned by this factory."""
        with self._lock:
            index = next(self._null_counter)
        return Null(f"{self._null_prefix}{index}")

    def fresh_variable(self) -> Variable:
        """Return a variable that has never been returned by this factory."""
        with self._lock:
            index = next(self._variable_counter)
        return Variable(f"{self._variable_prefix}{index}")

    def fresh_nulls(self, count: int) -> List[Null]:
        """Return ``count`` distinct fresh nulls."""
        return [self.fresh_null() for _ in range(count)]

    def fresh_variables(self, count: int) -> List[Variable]:
        """Return ``count`` distinct fresh variables."""
        return [self.fresh_variable() for _ in range(count)]


_GLOBAL_FACTORY = TermFactory(null_prefix="gn", variable_prefix="gv")


def fresh_null() -> Null:
    """Return a fresh null from the module-level factory."""
    return _GLOBAL_FACTORY.fresh_null()


def fresh_variable() -> Variable:
    """Return a fresh variable from the module-level factory."""
    return _GLOBAL_FACTORY.fresh_variable()


def freeze_variable(variable: Variable) -> Constant:
    """Return the canonical constant ``c(x)`` associated with ``variable``.

    Freezing is how a CQ is turned into its canonical database (Lemma 1):
    each variable ``x`` is replaced by a distinguished constant ``c(x)``.
    The encoding is injective so that freezing can be undone with
    :func:`unfreeze_constant`.
    """
    return Constant(("__frozen__", variable.name))


def unfreeze_constant(constant: Constant) -> Variable:
    """Inverse of :func:`freeze_variable`.

    Raises:
        ValueError: if ``constant`` is not a frozen variable.
    """
    if not is_frozen_constant(constant):
        raise ValueError(f"{constant!r} is not a frozen variable")
    return Variable(constant.name[1])


def is_frozen_constant(term: Term) -> bool:
    """Return ``True`` iff ``term`` is a constant produced by freezing."""
    return (
        isinstance(term, Constant)
        and isinstance(term.name, tuple)
        and len(term.name) == 2
        and term.name[0] == "__frozen__"
    )


def is_ground(term: Term) -> bool:
    """Return ``True`` iff ``term`` may occur in an instance (not a variable)."""
    return not isinstance(term, Variable)
