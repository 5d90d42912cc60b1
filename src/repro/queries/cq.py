"""Conjunctive queries (CQs).

A CQ has the shape ``q(x̄) :- ∃ȳ (R1(v̄1) ∧ ... ∧ Rm(v̄m))`` (Section 2).  The
class below stores the tuple of free (answer) variables ``x̄`` and the body
atoms, and provides the operations the rest of the library needs:

* evaluation over an instance (via homomorphism search);
* the canonical database / frozen instance used by Lemma 1;
* structural inspection: variables, Gaifman graph connectivity, acyclicity
  (via the hypergraph machinery), joins with other CQs;
* substitution and renaming helpers.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..datamodel import (
    Atom,
    Constant,
    Database,
    Instance,
    Null,
    Predicate,
    Schema,
    Term,
    Variable,
    atoms_constants,
    atoms_predicates,
    atoms_variables,
    freeze_variable,
)
from .homomorphism import find_homomorphism, homomorphisms

if TYPE_CHECKING:
    from ..hypergraph import JoinTree


class ConjunctiveQuery:
    """A conjunctive query with free variables ``head`` and body ``atoms``."""

    def __init__(
        self,
        head: Sequence[Variable] = (),
        body: Iterable[Atom] = (),
        name: str = "q",
    ) -> None:
        self._head: Tuple[Variable, ...] = tuple(head)
        self._body: Tuple[Atom, ...] = tuple(body)
        self.name = name
        self._gyo_parents: Optional[List[Optional[int]]] = None
        self._acyclic: Optional[bool] = None
        self._join_tree: Optional[JoinTree] = None
        self._validate()

    def _validate(self) -> None:
        body_terms = {term for atom in self._body for term in atom.terms}
        for variable in self._head:
            if not isinstance(variable, Variable):
                raise ValueError(
                    f"head terms must be variables, got {variable!r}"
                )
            if variable not in body_terms:
                raise ValueError(
                    f"unsafe query: head variable {variable} does not occur "
                    f"in the body"
                )
        if any(isinstance(term, Null) for term in body_terms):
            atom = next(atom for atom in self._body if atom.nulls())
            raise ValueError(f"query atoms must not contain nulls: {atom}")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def head(self) -> Tuple[Variable, ...]:
        """The tuple of free (answer) variables ``x̄``."""
        return self._head

    @property
    def body(self) -> Tuple[Atom, ...]:
        """The body atoms, in the order they were given."""
        return self._body

    @property
    def atoms(self) -> Tuple[Atom, ...]:
        """Alias for :attr:`body`."""
        return self._body

    def __len__(self) -> int:
        """Number of body atoms (the size measure ``|q|`` used in the paper)."""
        return len(self._body)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._body)

    def is_boolean(self) -> bool:
        """Return ``True`` iff the query has no free variables."""
        return not self._head

    def variables(self) -> Set[Variable]:
        """All variables occurring in the query."""
        return atoms_variables(self._body)

    def existential_variables(self) -> Set[Variable]:
        """Variables of the body that are not free."""
        return self.variables() - set(self._head)

    def constants(self) -> Set[Constant]:
        """Constants occurring in the body."""
        return atoms_constants(self._body)

    def predicates(self) -> Set[Predicate]:
        """Predicates occurring in the body."""
        return atoms_predicates(self._body)

    def schema(self) -> Schema:
        """The schema induced by the body."""
        return Schema(self.predicates())

    def terms(self) -> Set[Term]:
        """All terms (variables and constants) occurring in the body."""
        result: Set[Term] = set()
        for atom in self._body:
            result.update(atom.terms)
        return result

    # ------------------------------------------------------------------
    # Structural notions
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Return ``True`` iff the Gaifman graph of the query is connected.

        Queries with no variables at all (ground bodies) and single-atom
        queries count as connected.
        """
        return len(self.connected_components()) <= 1

    def connected_components(self) -> List["ConjunctiveQuery"]:
        """Return the maximally connected subqueries of this query.

        Two atoms are in the same component when they share a variable
        (ground atoms each form their own component).  Free variables are
        distributed to the component that contains them.
        """
        parent: Dict[int, int] = {i: i for i in range(len(self._body))}

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> None:
            parent[find(i)] = find(j)

        variable_to_atoms: Dict[Variable, List[int]] = {}
        for index, atom in enumerate(self._body):
            for variable in atom.variables():
                variable_to_atoms.setdefault(variable, []).append(index)
        for indices in variable_to_atoms.values():
            for other in indices[1:]:
                union(indices[0], other)

        groups: Dict[int, List[Atom]] = {}
        for index, atom in enumerate(self._body):
            groups.setdefault(find(index), []).append(atom)

        components: List[ConjunctiveQuery] = []
        for atoms in groups.values():
            component_variables = atoms_variables(atoms)
            head = tuple(v for v in self._head if v in component_variables)
            components.append(
                ConjunctiveQuery(head, atoms, name=f"{self.name}_component")
            )
        return components

    def is_acyclic(self) -> bool:
        """Return ``True`` iff the query hypergraph is (alpha-)acyclic.

        Acyclicity is decided by the GYO kernel on the hypergraph whose
        vertices are the query variables and whose hyperedges are the
        variable sets of the atoms (constants are ignored, mirroring the
        definition that freezes variables into nulls).  The kernel runs
        once per query, and its parents are kept for :meth:`join_tree`:
        the query is immutable.
        """
        if self._acyclic is None:
            from ..hypergraph import gyo_parents, query_connectors, vertex_masks

            self._gyo_parents = gyo_parents(vertex_masks(self._body, query_connectors))
            self._acyclic = self._gyo_parents is not None
        return self._acyclic

    def join_tree(self) -> Optional[JoinTree]:
        """A join tree of the body (variables as connectors), or ``None``
        when the body is cyclic or empty.

        Built on the first call from the parents that :meth:`is_acyclic`
        kept, and shared by every caller: a join tree is never mutated
        (re-rooting builds a new one).
        """
        if self._join_tree is None and self._body and self.is_acyclic():
            from ..hypergraph import join_tree_from_parents, query_connectors

            self._join_tree = join_tree_from_parents(
                self._body, self._gyo_parents, query_connectors
            )
        return self._join_tree

    # ------------------------------------------------------------------
    # Canonical database (freezing)
    # ------------------------------------------------------------------
    def freeze(self) -> Tuple[Database, Dict[Variable, Constant]]:
        """Return the canonical database of the query plus the freezing map.

        Each variable ``x`` is replaced by the frozen constant ``c(x)``;
        constants stay as they are (Lemma 1).
        """
        mapping: Dict[Variable, Constant] = {
            variable: freeze_variable(variable) for variable in self.variables()
        }
        database = Database(atom.apply(mapping) for atom in self._body)
        return database, mapping

    def canonical_database(self) -> Database:
        """Return just the canonical database of the query."""
        database, _ = self.freeze()
        return database

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, instance: object) -> Set[Tuple[Term, ...]]:
        """Return ``q(I)``: the set of answer tuples of the query over ``instance``."""
        answers: Set[Tuple[Term, ...]] = set()
        for mapping in homomorphisms(self._body, instance):
            answers.add(tuple(mapping[v] for v in self._head))
        return answers

    def holds_in(self, instance: object, answer: Optional[Sequence[Term]] = None) -> bool:
        """Return ``True`` iff the query has some answer (or the given one) in ``instance``.

        Args:
            instance: the instance to evaluate over.
            answer: if given, check membership of this specific tuple in
                ``q(I)`` instead of mere satisfiability.
        """
        seed: Optional[Dict[Term, Term]] = None
        if answer is not None:
            if len(answer) != len(self._head):
                raise ValueError(
                    f"answer tuple has arity {len(answer)}, query has "
                    f"{len(self._head)} free variables"
                )
            seed = {}
            for variable, value in zip(self._head, answer):
                existing = seed.get(variable)
                if existing is not None and existing != value:
                    return False
                seed[variable] = value
        return find_homomorphism(self._body, instance, seed=seed) is not None

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def apply(self, mapping: Mapping[Term, Term], name: Optional[str] = None) -> "ConjunctiveQuery":
        """Return the query obtained by substituting variables via ``mapping``.

        Head variables must be mapped to variables (or left untouched).
        """
        new_body = [atom.apply(mapping) for atom in self._body]
        new_head: List[Variable] = []
        for variable in self._head:
            image = mapping.get(variable, variable)
            if not isinstance(image, Variable):
                raise ValueError(
                    f"cannot map free variable {variable} to non-variable {image}"
                )
            new_head.append(image)
        return ConjunctiveQuery(new_head, new_body, name=name or self.name)

    def rename_apart(self, taken: Iterable[Variable], suffix: str = "_r") -> "ConjunctiveQuery":
        """Return a variant of the query whose variables avoid ``taken``."""
        taken_names = {variable.name for variable in taken}
        mapping: Dict[Term, Term] = {}
        for variable in sorted(self.variables(), key=str):
            if variable.name in taken_names:
                candidate = variable.name + suffix
                counter = 0
                while candidate in taken_names:
                    counter += 1
                    candidate = f"{variable.name}{suffix}{counter}"
                taken_names.add(candidate)
                mapping[variable] = Variable(candidate)
        return self.apply(mapping) if mapping else self

    def conjoin(self, other: "ConjunctiveQuery", name: str = "conjunction") -> "ConjunctiveQuery":
        """Return the conjunction ``q ∧ q'`` of two queries.

        The head is the concatenation of the two heads (duplicates removed,
        order preserved).  Variables are *not* renamed apart; callers that
        need disjoint variables should call :meth:`rename_apart` first, as
        Proposition 5 does.
        """
        seen: Set[Variable] = set()
        head: List[Variable] = []
        for variable in tuple(self._head) + tuple(other._head):
            if variable not in seen:
                seen.add(variable)
                head.append(variable)
        return ConjunctiveQuery(head, self._body + other._body, name=name)

    def subquery(self, atoms: Iterable[Atom], name: Optional[str] = None) -> "ConjunctiveQuery":
        """Return the subquery induced by a subset of the body atoms.

        Head variables that no longer occur in the chosen atoms are dropped
        (this is what taking subqueries of Boolean queries or of frozen
        candidates requires).
        """
        atom_list = list(atoms)
        available = atoms_variables(atom_list)
        head = tuple(v for v in self._head if v in available)
        return ConjunctiveQuery(head, atom_list, name=name or f"{self.name}_sub")

    # ------------------------------------------------------------------
    # Equality and hashing are syntactic (same head, same set of atoms).
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return self._head == other._head and set(self._body) == set(other._body)

    def __hash__(self) -> int:
        return hash((self._head, frozenset(self._body)))

    def __str__(self) -> str:
        head = ", ".join(str(v) for v in self._head)
        body = " ∧ ".join(str(a) for a in self._body) or "⊤"
        return f"{self.name}({head}) :- {body}"

    def __repr__(self) -> str:
        return f"ConjunctiveQuery(head={self._head!r}, body={len(self._body)} atoms)"


def boolean_query(atoms: Iterable[Atom], name: str = "q") -> ConjunctiveQuery:
    """Convenience constructor for a Boolean CQ."""
    return ConjunctiveQuery((), atoms, name=name)


def query_from_instance(
    instance: Instance,
    answer_terms: Sequence[Term] = (),
    name: str = "q",
) -> ConjunctiveQuery:
    """Turn an instance into a CQ by viewing nulls/constants as variables.

    Every term of the instance becomes a distinct variable; the terms listed
    in ``answer_terms`` become the free variables (in that order).  This is
    the inverse of freezing and is used by Lemma 9 (turning an acyclic
    sub-instance of a join tree back into an acyclic query) and by the
    rewriting machinery.
    """
    renaming: Dict[Term, Variable] = {}
    for index, term in enumerate(sorted(instance.active_domain(), key=str)):
        renaming[term] = Variable(f"V{index}_{term}")
    body = [atom.map_terms(lambda t: renaming[t]) for atom in instance]
    head = tuple(renaming[t] for t in answer_terms)
    return ConjunctiveQuery(head, body, name=name)
