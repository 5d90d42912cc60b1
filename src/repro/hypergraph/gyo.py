"""The GYO kernel: (alpha-)acyclicity and join trees over int vertex masks.

The hypergraph of a set of atoms has one hyperedge per atom; the vertices of
a hyperedge are the atom's *connector* terms.  Which terms count as
connectors depends on the context (Section 2):

* for a **query** body, the connectors are the variables — constants are
  rigid and need not induce connected subtrees of a join tree;
* for an **instance**, the connectors are the labelled nulls — and, when the
  instance is the chase of a query, also the frozen constants ``c(x)`` that
  stand for the query's variables (they were variables before freezing and
  are "treated as nulls", as the paper puts it).

:func:`vertex_masks` gives every connector a dense id and every atom the int
mask of its connectors' bits; :func:`gyo_parents` runs the Graham /
Yu–Özsoyoğlu reduction on those masks.  Each pass of the reduction

1. deletes every *ear vertex* (a bit set in exactly one remaining edge), then
2. absorbs the lowest-index edge contained in another remaining edge into
   the lowest-index such container, which becomes its parent.

The hypergraph is acyclic iff at most one edge survives.  When two or more
survive, none is contained in another and no vertex is an ear, so the
hypergraph is cyclic, whether or not it is connected.  The parents form a
join tree rooted at the survivor, which :mod:`repro.hypergraph.join_tree`
labels with the atoms.  Every acyclicity verdict of the library, and every
join tree, comes from this one kernel.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..datamodel import Atom, Constant, Instance, Null, Term, Variable, is_frozen_constant


#: A connector policy decides which terms of an atom act as hypergraph vertices.
ConnectorPolicy = Callable[[Term], bool]

#: The parent index of each edge in a join tree (``None`` for the root).
GYOParents = List[Optional[int]]


def query_connectors(term: Term) -> bool:
    """Connector policy for query bodies: variables (and stray nulls)."""
    return isinstance(term, (Variable, Null))


def instance_connectors(term: Term) -> bool:
    """Connector policy for instances: nulls and frozen query variables."""
    if isinstance(term, Null):
        return True
    return isinstance(term, Constant) and is_frozen_constant(term)


def vertex_masks(atoms: Iterable[Atom], connector_policy: ConnectorPolicy) -> List[int]:
    """One int per atom: the bits of its connector terms, numbered densely
    in order of first occurrence."""
    bits: Dict[Term, int] = {}
    masks: List[int] = []
    for atom in atoms:
        mask = 0
        for term in atom.terms:
            if connector_policy(term):
                bit = bits.get(term)
                if bit is None:
                    bit = bits[term] = 1 << len(bits)
                mask |= bit
        masks.append(mask)
    return masks


def gyo_parents(masks: Sequence[int]) -> Optional[GYOParents]:
    """The GYO reduction of the edges ``masks``: ``None`` when they are
    cyclic, otherwise the parent index of every edge (``None`` for the
    root)."""
    edges = list(masks)
    parents: GYOParents = [None] * len(edges)
    alive = list(range(len(edges)))
    while len(alive) > 1:
        seen = twice = 0
        for index in alive:
            twice |= seen & edges[index]
            seen |= edges[index]
        ears = seen & ~twice
        if ears:
            for index in alive:
                edges[index] &= ~ears
        absorbed = _absorbable(edges, alive)
        if absorbed is None:
            return None
        child, parent = absorbed
        parents[child] = parent
        alive.remove(child)
    return parents


def _absorbable(edges: Sequence[int], alive: Sequence[int]) -> Optional[Tuple[int, int]]:
    """The lowest-index alive edge contained in another alive edge, with the
    lowest-index such container."""
    for child in alive:
        mask = edges[child]
        for parent in alive:
            if parent != child and not mask & ~edges[parent]:
                return child, parent
    return None


def is_acyclic_atoms(atoms: Iterable[Atom]) -> bool:
    """Acyclicity of a query body (variables are the connectors)."""
    return gyo_parents(vertex_masks(atoms, query_connectors)) is not None


def is_acyclic_instance(instance: Instance) -> bool:
    """Acyclicity of an instance (nulls / frozen constants are the connectors)."""
    return gyo_parents(vertex_masks(instance, instance_connectors)) is not None
