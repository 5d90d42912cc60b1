"""The dict-of-sets GYO reduction, kept as the oracle of the GYO kernel.

``repro.hypergraph.gyo_parents`` decides acyclicity on int vertex masks.
This module keeps the reduction it replaced, unchanged but for its input
(a sequence of vertex sets, one per edge, where it used to take a
``Hypergraph`` object) and an unused copy of that input it kept.  ``tests/test_hypergraph.py`` checks on random
hypergraphs that both give the same verdict and the same parent for every
edge, so every join tree the library builds is the one this reduction
gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple


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


def gyo_reduction(hypergraph: Sequence[FrozenSet[Hashable]]) -> GYOResult:
    """Run the GYO reduction and report acyclicity plus the join forest."""
    edges: Dict[int, Set[Hashable]] = {
        index: set(vertices) for index, vertices in enumerate(hypergraph)
    }
    parents: Dict[int, int] = {}
    elimination: List[int] = []

    changed = True
    while changed and len(edges) > 1:
        changed = False

        # Step 1: drop ear vertices (vertices occurring in a single edge).
        occurrences: Dict[Hashable, List[int]] = {}
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
        remaining_occurrences: Dict[Hashable, int] = {}
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
