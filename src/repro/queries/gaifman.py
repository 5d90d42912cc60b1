"""Gaifman graphs of queries and instances, plus a treewidth upper bound.

The Gaifman graph of a CQ has the query variables as nodes, with an edge
between two variables iff they co-occur in some atom (Section 3.2).  Besides
connectivity (used by Proposition 5), the benchmarks use the Gaifman graph to
demonstrate how the chase can destroy structural properties: Example 2 turns
an acyclic query into an n-clique and Example 5 produces an n×n grid, so the
treewidth (estimated here with the classical min-fill elimination heuristic,
which yields an upper bound) grows with n.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Set

from ..datamodel import Atom, Instance


AdjacencyGraph = Dict[Hashable, Set[Hashable]]


def gaifman_graph_of_atoms(atoms: Iterable[Atom], use_all_terms: bool = False) -> AdjacencyGraph:
    """Build the Gaifman graph of a set of atoms.

    Args:
        atoms: the atoms (of a query body or an instance).
        use_all_terms: if ``True`` all terms are nodes; otherwise only
            variables (for query bodies) — for ground instances pass
            ``True`` so that constants/nulls become the nodes.
    """
    graph: AdjacencyGraph = {}
    for atom in atoms:
        if use_all_terms:
            nodes = list(dict.fromkeys(atom.terms))
        else:
            nodes = sorted(atom.variables(), key=str)
        for node in nodes:
            graph.setdefault(node, set())
        for i, left in enumerate(nodes):
            for right in nodes[i + 1:]:
                if left != right:
                    graph[left].add(right)
                    graph[right].add(left)
    return graph


def gaifman_graph_of_instance(instance: Instance) -> AdjacencyGraph:
    """Gaifman graph of an instance: nodes are all terms of the active domain."""
    return gaifman_graph_of_atoms(instance, use_all_terms=True)


def connected_components(graph: AdjacencyGraph) -> List[Set[Hashable]]:
    """Return the connected components of an adjacency graph."""
    remaining = set(graph)
    components: List[Set[Hashable]] = []
    while remaining:
        start = remaining.pop()
        component = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbour in graph[node]:
                if neighbour not in component:
                    component.add(neighbour)
                    frontier.append(neighbour)
        remaining -= component
        components.append(component)
    return components


def edge_count(graph: AdjacencyGraph) -> int:
    """Number of undirected edges of the graph."""
    return sum(len(neighbours) for neighbours in graph.values()) // 2


def max_clique_lower_bound(graph: AdjacencyGraph) -> int:
    """A cheap greedy lower bound on the clique number of the graph.

    Used by the Example 2 benchmark to certify that the chased query really
    contains a large clique without paying for exact clique computation.
    """
    best = 0
    for node in graph:
        clique = {node}
        candidates = set(graph[node])
        while candidates:
            next_node = max(candidates, key=lambda n: len(graph[n] & candidates))
            clique.add(next_node)
            candidates &= graph[next_node]
        best = max(best, len(clique))
    return best


def treewidth_upper_bound(graph: AdjacencyGraph) -> int:
    """Upper bound on the treewidth via min-fill elimination.

    The heuristic eliminates, at each step, the vertex whose neighbourhood
    needs the fewest fill-in edges, records the size of the bag it creates
    and returns (max bag size) - 1.  For trees the bound is exact (1); for
    n-cliques it is n - 1; for n×n grids it is close to n.
    """
    working: Dict[Hashable, Set[Hashable]] = {
        node: set(neighbours) for node, neighbours in graph.items()
    }
    width = 0
    while working:
        def fill_in(node: Hashable) -> int:
            neighbours = list(working[node])
            missing = 0
            for i, left in enumerate(neighbours):
                for right in neighbours[i + 1:]:
                    if right not in working[left]:
                        missing += 1
            return missing

        node = min(sorted(working, key=str), key=fill_in)
        neighbours = list(working[node])
        width = max(width, len(neighbours))
        for i, left in enumerate(neighbours):
            for right in neighbours[i + 1:]:
                working[left].add(right)
                working[right].add(left)
        for neighbour in neighbours:
            working[neighbour].discard(node)
        del working[node]
    return max(width, 0)
