"""Instances and databases: sets of ground atoms over constants and nulls.

An *instance* is a (here: finite, since we materialise it) set of atoms whose
terms are constants or labelled nulls; a *database* is a finite instance
containing constants only (the paper allows nulls in databases obtained from
queries — so we do not forbid them, we only track them).  Instances are the
inputs/outputs of the chase and the structures over which queries are
evaluated.
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from .atoms import Atom, Predicate
from .terms import Constant, GroundTerm, Null, Term
from .schema import Schema


#: Shared empty result for index lookups that find nothing (never mutated).
_NO_ATOMS: Dict[Atom, None] = {}


class Instance:
    """A finite instance: a set of ground atoms with per-predicate indexes.

    The class behaves like a set of :class:`Atom` (iteration, ``in``,
    ``len``) but also maintains an index from predicates to atoms and from
    terms to atoms, which the homomorphism search and the chase rely on.
    The atoms and both indexes are dicts used as insertion-ordered sets:
    terms hash by identity, so a set's order would change whenever a term
    is interned again, and with it the homomorphism a search finds first.

    Every *effective* mutation (an ``add`` of a new atom, a ``discard`` of a
    present one) advances :attr:`mutation_epoch` and is appended to a
    bounded journal, so epoch-aware caches (:class:`repro.evaluation.batch
    .ScanCache`, :class:`repro.evaluation.operators.Statistics`) can detect
    staleness in O(1) and absorb the exact delta via :meth:`journal_since`
    instead of rebuilding from scratch.
    """

    #: Retained journal entries.  The journal is trimmed in chunks once it
    #: exceeds twice this limit; a cache that fell further behind than the
    #: retained window learns so via ``journal_since() is None`` and
    #: rebuilds wholesale.
    JOURNAL_LIMIT = 4096

    def __init__(self, atoms: Iterable[Atom] = ()) -> None:
        self._atoms: Dict[Atom, None] = {}
        self._by_predicate: Dict[Predicate, Dict[Atom, None]] = defaultdict(dict)
        self._by_term: Dict[GroundTerm, Dict[Atom, None]] = defaultdict(dict)
        self._mutation_epoch = 0
        self._journal: List[Tuple[bool, Atom]] = []
        self._journal_base = 0
        self._content_token: Optional[object] = None
        for atom in atoms:
            self.add(atom)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    @property
    def mutation_epoch(self) -> int:
        """Monotone counter of effective mutations (adds and removals)."""
        return self._mutation_epoch

    def content_token(self) -> object:
        """An identity token shared by fact-identical instances (O(1)).

        The token is refreshed lazily after every mutation and propagated by
        :meth:`copy`, so ``a.content_token() is b.content_token()`` implies
        ``a`` and ``b`` hold exactly the same atoms — the O(1) test the scan
        layer uses to accept fact-identical copies.  (The converse does not
        hold: independently built equal instances carry distinct tokens.)
        """
        token = self._content_token
        if token is None:
            token = object()
            self._content_token = token
        return token

    def _record_mutation(self, added: bool, atom: Atom) -> None:
        self._mutation_epoch += 1
        self._content_token = None
        journal = self._journal
        journal.append((added, atom))
        if len(journal) > 2 * self.JOURNAL_LIMIT:
            drop = len(journal) - self.JOURNAL_LIMIT
            del journal[:drop]
            self._journal_base += drop

    def journal_since(self, epoch: int) -> Optional[List[Tuple[bool, Atom]]]:
        """The effective mutations after ``epoch``, oldest first.

        Each entry is ``(added, atom)`` with ``added`` true for an insertion
        and false for a removal; entries are *effective* (an ``add`` of a
        present atom or a ``discard`` of an absent one never appears), so
        consecutive entries for one atom always alternate.  Returns ``None``
        when the requested window was trimmed away (or ``epoch`` is ahead of
        this instance) — the caller must then resynchronise wholesale.
        """
        if epoch > self._mutation_epoch:
            return None
        start = epoch - self._journal_base
        if start < 0:
            return None
        return self._journal[start:]

    def add(self, atom: Atom) -> bool:
        """Add ``atom``; return ``True`` iff it was not already present.

        Raises:
            ValueError: if the atom contains variables (instances are ground).
        """
        if not atom.is_ground():
            raise ValueError(f"instances contain ground atoms only, got {atom}")
        if atom in self._atoms:
            return False
        self._atoms[atom] = None
        self._by_predicate[atom.predicate][atom] = None
        for term in atom.terms:
            self._by_term[term][atom] = None
        self._record_mutation(True, atom)
        return True

    def add_all(self, atoms: Iterable[Atom]) -> int:
        """Add every atom in ``atoms``; return how many were new."""
        return sum(1 for atom in atoms if self.add(atom))

    def discard(self, atom: Atom) -> bool:
        """Remove ``atom`` if present; return ``True`` iff it was present."""
        if atom not in self._atoms:
            return False
        del self._atoms[atom]
        del self._by_predicate[atom.predicate][atom]
        for term in set(atom.terms):
            del self._by_term[term][atom]
            if not self._by_term[term]:
                del self._by_term[term]
        if not self._by_predicate[atom.predicate]:
            del self._by_predicate[atom.predicate]
        self._record_mutation(False, atom)
        return True

    # ------------------------------------------------------------------
    # Set-like behaviour
    # ------------------------------------------------------------------
    def __contains__(self, atom: object) -> bool:
        return atom in self._atoms

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)

    def __len__(self) -> int:
        return len(self._atoms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Instance):
            return self._atoms.keys() == other._atoms.keys()
        if isinstance(other, (set, frozenset)):
            return self._atoms.keys() == other
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - rarely hashed
        return hash(frozenset(self._atoms))

    def atoms(self) -> FrozenSet[Atom]:
        """Return the atoms of the instance as a frozen set."""
        return frozenset(self._atoms)

    def sorted_atoms(self) -> List[Atom]:
        """Return the atoms sorted by string representation (deterministic)."""
        return sorted(self._atoms, key=str)

    def copy(self) -> "Instance":
        """Return a shallow copy of the instance.

        The indexes are copied set-by-set instead of being re-derived atom by
        atom — the chase snapshots its input with ``copy()`` on every run, so
        this path is hot.
        """
        clone = self.__class__.__new__(self.__class__)
        clone._atoms = dict(self._atoms)
        clone._by_predicate = defaultdict(dict)
        for predicate, atoms in self._by_predicate.items():
            clone._by_predicate[predicate] = dict(atoms)
        clone._by_term = defaultdict(dict)
        for term, atoms in self._by_term.items():
            clone._by_term[term] = dict(atoms)
        clone._mutation_epoch = self._mutation_epoch
        clone._content_token = self.content_token()
        clone._journal = []
        clone._journal_base = self._mutation_epoch
        return clone

    # ------------------------------------------------------------------
    # Indexed access
    # ------------------------------------------------------------------
    def atoms_with_predicate(self, predicate: Predicate) -> Collection[Atom]:
        """Return the atoms over ``predicate``, in insertion order.

        The returned collection is the live index of the instance — callers must not
        mutate it.  (Returning it directly, rather than a defensive copy,
        keeps the homomorphism search and the chase linear in the number of
        matching atoms rather than in the size of the whole relation.)
        """
        return self._by_predicate.get(predicate, _NO_ATOMS)

    def atoms_with_predicate_name(self, name: str) -> FrozenSet[Atom]:
        """Return the atoms whose predicate is called ``name``."""
        result: Set[Atom] = set()
        for predicate, atoms in self._by_predicate.items():
            if predicate.name == name:
                result.update(atoms)
        return frozenset(result)

    def atoms_with_term(self, term: GroundTerm) -> Collection[Atom]:
        """Return the atoms in which ``term`` occurs, in insertion order.

        As with :meth:`atoms_with_predicate`, the live index is returned and
        must not be mutated by callers.
        """
        return self._by_term.get(term, _NO_ATOMS)

    def predicates(self) -> Set[Predicate]:
        """Return the predicates that occur in the instance."""
        return set(self._by_predicate)

    def schema(self) -> Schema:
        """Return the schema induced by the instance."""
        return Schema(self._by_predicate.keys())

    # ------------------------------------------------------------------
    # Domains
    # ------------------------------------------------------------------
    def active_domain(self) -> Set[GroundTerm]:
        """Return the set of terms (constants and nulls) occurring in the instance."""
        return set(self._by_term)

    def constants(self) -> Set[Constant]:
        """Return the constants occurring in the instance."""
        return {t for t in self._by_term if isinstance(t, Constant)}

    def nulls(self) -> Set[Null]:
        """Return the labelled nulls occurring in the instance."""
        return {t for t in self._by_term if isinstance(t, Null)}

    def is_database(self) -> bool:
        """Return ``True`` iff the instance is null-free (a plain database)."""
        return not self.nulls()

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def apply(self, mapping: Mapping[Term, Term]) -> "Instance":
        """Return the instance obtained by substituting terms via ``mapping``."""
        return Instance(atom.apply(mapping) for atom in self._atoms)

    def union(self, other: "Instance") -> "Instance":
        """Return the union of two instances."""
        result = self.copy()
        result.add_all(other)
        return result

    def restrict_to_terms(self, terms: Iterable[GroundTerm]) -> "Instance":
        """Return the restriction of the instance to atoms over ``terms`` only.

        This is the ``I(a1, ..., al)`` notation used in the existential
        1-cover game (Section 7): keep exactly the atoms all of whose terms
        belong to the given set.
        """
        allowed = set(terms)
        return Instance(
            atom for atom in self._atoms if all(t in allowed for t in atom.terms)
        )

    def restrict_to_predicates(self, predicates: Iterable[Predicate]) -> "Instance":
        """Return the sub-instance over the given predicates."""
        wanted = set(predicates)
        return Instance(
            atom for atom in self._atoms if atom.predicate in wanted
        )

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        return "{" + ", ".join(str(a) for a in self.sorted_atoms()) + "}"

    def __repr__(self) -> str:
        return f"Instance({len(self._atoms)} atoms)"


class Database(Instance):
    """A finite instance intended to be null-free.

    The distinction is purely documentary (the paper's databases may be
    treated as instances everywhere); we keep a subclass so that signatures
    such as ``SemAcEval(D, q, Σ)`` read like the paper.
    """

    def __repr__(self) -> str:
        return f"Database({len(self)} atoms)"


def instance_from_tuples(
    schema: Schema,
    tuples: Mapping[str, Iterable[Tuple[object, ...]]],
) -> Database:
    """Build a database from plain Python tuples of constant *values*.

    Example:
        >>> schema = Schema([Predicate("R", 2)])
        >>> db = instance_from_tuples(schema, {"R": [(1, 2), (2, 3)]})
        >>> len(db)
        2
    """
    database = Database()
    for name, rows in tuples.items():
        predicate = schema.predicate(name)
        for row in rows:
            if len(row) != predicate.arity:
                raise ValueError(
                    f"tuple {row!r} has {len(row)} fields, predicate "
                    f"{predicate} expects {predicate.arity}"
                )
            database.add(Atom(predicate, tuple(Constant(value) for value in row)))
    return database
