"""GYO reduction: deciding (alpha-)acyclicity and extracting join forests.

The Graham / Yu–Özsoyoğlu reduction repeatedly applies two operations to a
hypergraph until neither applies:

1. delete a vertex that occurs in exactly one hyperedge (an *ear vertex*);
2. delete a hyperedge whose (remaining) vertex set is contained in another
   hyperedge, recording that other hyperedge as the *witness*.

The hypergraph is acyclic iff the reduction ends with at most one non-empty
hyperedge per connected component (equivalently: every hyperedge is
eventually deleted or reduced to the empty vertex set).  The recorded
witnesses induce a join forest, which :mod:`repro.hypergraph.join_tree`
assembles into an explicit join tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..datamodel import Atom, Instance, Term
from .hypergraph import Hypergraph, hypergraph_of_instance, hypergraph_of_query_atoms


@dataclass
class GYOResult:
    """Outcome of running the GYO reduction on a hypergraph."""

    #: Whether the hypergraph is acyclic.
    acyclic: bool
    #: For each deleted hyperedge index, the index of the witness edge it was
    #: absorbed into (the parent in the join forest).  Surviving edges (the
    #: forest roots) are absent from this mapping.
    parents: Dict[int, int] = field(default_factory=dict)
    #: The indexes of the edges that survived the reduction (forest roots).
    roots: List[int] = field(default_factory=list)
    #: The order in which edges were deleted (children before parents).
    elimination_order: List[int] = field(default_factory=list)


def gyo_reduction(hypergraph: Hypergraph) -> GYOResult:
    """Run the GYO reduction and report acyclicity plus the join forest."""
    edges: Dict[int, Set[Term]] = {
        edge.index: set(edge.vertices) for edge in hypergraph.edges
    }
    original: Dict[int, FrozenSet[Term]] = {
        edge.index: edge.vertices for edge in hypergraph.edges
    }
    parents: Dict[int, int] = {}
    elimination: List[int] = []

    changed = True
    while changed and len(edges) > 1:
        changed = False

        # Step 1: drop ear vertices (vertices occurring in a single edge).
        occurrences: Dict[Term, List[int]] = {}
        for index, vertices in edges.items():
            for vertex in vertices:
                occurrences.setdefault(vertex, []).append(index)
        for vertex, where in occurrences.items():
            if len(where) == 1:
                edges[where[0]].discard(vertex)
                changed = True

        # Step 2: absorb an edge contained in another edge.
        indexes = sorted(edges)
        absorbed: Optional[Tuple[int, int]] = None
        for child in indexes:
            for parent in indexes:
                if child == parent:
                    continue
                if edges[child] <= edges[parent]:
                    absorbed = (child, parent)
                    break
            if absorbed:
                break
        if absorbed:
            child, parent = absorbed
            parents[child] = parent
            elimination.append(child)
            del edges[child]
            changed = True

    # The hypergraph is acyclic iff every surviving edge has an empty vertex
    # set or there is a single survivor whose vertices are all private now.
    roots = sorted(edges)
    if len(edges) <= 1:
        acyclic = True
    else:
        # More than one survivor: acyclic only if all survivors are pairwise
        # vertex-disjoint *and* each is itself fully reduced (no shared
        # vertices remain at all, i.e. every remaining vertex occurs once).
        remaining_occurrences: Dict[Term, int] = {}
        for vertices in edges.values():
            for vertex in vertices:
                remaining_occurrences[vertex] = remaining_occurrences.get(vertex, 0) + 1
        acyclic = all(count == 1 for count in remaining_occurrences.values())
        if acyclic:
            # Disconnected acyclic components; nothing more to reduce.
            pass

    return GYOResult(
        acyclic=acyclic,
        parents=parents,
        roots=roots,
        elimination_order=elimination,
    )


def is_acyclic_hypergraph(hypergraph: Hypergraph) -> bool:
    """Return ``True`` iff ``hypergraph`` passes the GYO reduction."""
    return gyo_reduction(hypergraph).acyclic


def is_acyclic_atoms(atoms: Iterable[Atom]) -> bool:
    """Acyclicity of a query body (variables are the connectors)."""
    return is_acyclic_hypergraph(hypergraph_of_query_atoms(list(atoms)))


def is_acyclic_instance(instance: Instance) -> bool:
    """Acyclicity of an instance (nulls / frozen constants are the connectors)."""
    return is_acyclic_hypergraph(hypergraph_of_instance(instance))
