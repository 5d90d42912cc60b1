"""Hypergraphs of atom collections.

The hypergraph of a set of atoms has one hyperedge per atom; the vertices of
a hyperedge are the atom's *connector* terms.  Which terms count as
connectors depends on the context (Section 2):

* for a **query** body, the connectors are the variables — constants are
  rigid and need not induce connected subtrees of a join tree;
* for an **instance**, the connectors are the labelled nulls — and, when the
  instance is the chase of a query, also the frozen constants ``c(x)`` that
  stand for the query's variables (they were variables before freezing and
  are "treated as nulls", as the paper puts it).

The module therefore exposes connector policies alongside a small immutable
``Hypergraph`` value object used by the GYO reduction and the join-tree
builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable, Iterator, List, Set, Tuple

from ..datamodel import Atom, Constant, Instance, Null, Term, Variable, is_frozen_constant


#: A connector policy decides which terms of an atom act as hypergraph vertices.
ConnectorPolicy = Callable[[Term], bool]


def query_connectors(term: Term) -> bool:
    """Connector policy for query bodies: variables (and stray nulls)."""
    return isinstance(term, (Variable, Null))


def instance_connectors(term: Term) -> bool:
    """Connector policy for instances: nulls and frozen query variables."""
    if isinstance(term, Null):
        return True
    return isinstance(term, Constant) and is_frozen_constant(term)


@dataclass(frozen=True)
class HyperEdge:
    """A hyperedge: the originating atom plus its connector-vertex set."""

    atom: Atom
    vertices: FrozenSet[Term]
    index: int

    def __str__(self) -> str:
        return f"{self.atom}@{self.index}"


class Hypergraph:
    """The hypergraph of a finite collection of atoms.

    Each atom contributes exactly one hyperedge (atoms may repeat across
    indexes if the input contains duplicates — callers typically pass sets).
    """

    def __init__(
        self,
        atoms: Iterable[Atom],
        connector_policy: ConnectorPolicy = query_connectors,
    ) -> None:
        self._edges: List[HyperEdge] = []
        self._policy = connector_policy
        for index, atom in enumerate(atoms):
            vertices = frozenset(t for t in atom.terms if connector_policy(t))
            self._edges.append(HyperEdge(atom, vertices, index))

    # ------------------------------------------------------------------
    @property
    def edges(self) -> Tuple[HyperEdge, ...]:
        return tuple(self._edges)

    @property
    def connector_policy(self) -> ConnectorPolicy:
        return self._policy

    def atoms(self) -> List[Atom]:
        return [edge.atom for edge in self._edges]

    def vertices(self) -> Set[Term]:
        result: Set[Term] = set()
        for edge in self._edges:
            result.update(edge.vertices)
        return result

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[HyperEdge]:
        return iter(self._edges)

    def __str__(self) -> str:
        return "Hypergraph[" + "; ".join(str(e) for e in self._edges) + "]"


def hypergraph_of_query_atoms(atoms: Iterable[Atom]) -> Hypergraph:
    """Hypergraph of a query body (variables as vertices)."""
    return Hypergraph(atoms, query_connectors)


def hypergraph_of_instance(instance: Instance) -> Hypergraph:
    """Hypergraph of an instance (nulls and frozen constants as vertices)."""
    return Hypergraph(instance.sorted_atoms(), instance_connectors)
