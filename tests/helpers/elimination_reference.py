"""The two Gaifman builders and the two elimination loops, kept as the
oracle of the library's one builder and one greedy loop.

``repro.queries.gaifman_graph_of_atoms`` builds every Gaifman graph of the
library under a vertex policy, and ``repro.hypergraph.decompositions``
derives min-fill and min-degree orders from one greedy loop that takes a
cost.  This module keeps the code they replaced: the query/instance
builder with its ``use_all_terms`` flag (:func:`gaifman_graph_of_atoms`),
the connector-set builder of the decompositions module
(:func:`connector_graph`, renamed from ``_connector_graph``, with its one
call to ``_connector_edges`` inlined), the two hand-written elimination
loops and the classical decomposition built from an order, all unchanged.
``tests/test_decompositions.py`` checks on random graphs and random cyclic
queries that both give the same graphs, orders, bags, edges, bag trees and
EXPLAIN text.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Sequence, Set, Tuple

from repro.datamodel import Atom
from repro.hypergraph import ConnectorPolicy, TreeDecomposition


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


def connector_graph(atoms: Iterable[Atom], connector_policy: ConnectorPolicy) -> AdjacencyGraph:
    """The Gaifman graph of the atoms' connector sets."""
    graph: AdjacencyGraph = {}
    for atom in atoms:
        members = sorted(frozenset(t for t in atom.terms if connector_policy(t)), key=str)
        for vertex in members:
            graph.setdefault(vertex, set())
        for i, left in enumerate(members):
            for right in members[i + 1:]:
                graph[left].add(right)
                graph[right].add(left)
    return graph


def min_degree_order(graph: AdjacencyGraph) -> List[Hashable]:
    """Elimination order choosing, at each step, a vertex of minimum degree."""
    working = {node: set(neighbours) for node, neighbours in graph.items()}
    order: List[Hashable] = []
    while working:
        node = min(sorted(working, key=str), key=lambda n: len(working[n]))
        order.append(node)
        _eliminate(working, node)
    return order


def min_fill_order(graph: AdjacencyGraph) -> List[Hashable]:
    """Elimination order choosing, at each step, a vertex of minimum fill-in."""
    working = {node: set(neighbours) for node, neighbours in graph.items()}
    order: List[Hashable] = []
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
        order.append(node)
        _eliminate(working, node)
    return order


def _eliminate(working: Dict[Hashable, Set[Hashable]], node: Hashable) -> None:
    """Eliminate ``node`` in place: connect its neighbourhood, then remove it."""
    neighbours = list(working[node])
    for i, left in enumerate(neighbours):
        for right in neighbours[i + 1:]:
            working[left].add(right)
            working[right].add(left)
    for neighbour in neighbours:
        working[neighbour].discard(node)
    del working[node]


def decomposition_from_elimination_order(
    graph: AdjacencyGraph,
    order: Sequence[Hashable],
) -> TreeDecomposition:
    """Build a tree decomposition from an elimination order.

    Each eliminated vertex contributes a bag (the vertex plus its remaining
    neighbourhood at elimination time); the bag is attached to the bag of the
    first later-eliminated vertex it contains, which yields a valid
    decomposition for any order (the classical construction).
    """
    if set(order) != set(graph):
        raise ValueError("the elimination order must list every graph vertex exactly once")
    working = {node: set(neighbours) for node, neighbours in graph.items()}
    position = {vertex: index for index, vertex in enumerate(order)}
    bags: Dict[int, Set[Hashable]] = {}
    for index, vertex in enumerate(order):
        bags[index] = {vertex} | set(working[vertex])
        _eliminate(working, vertex)

    edges: List[Tuple[int, int]] = []
    for index, vertex in enumerate(order):
        later = [v for v in bags[index] if v != vertex]
        if not later:
            # Attach isolated bags to the last bag to keep the result a tree.
            if index + 1 < len(order):
                edges.append((index, index + 1))
            continue
        parent_vertex = min(later, key=lambda v: position[v])
        edges.append((index, position[parent_vertex]))

    if not bags:
        bags = {0: set()}
    return TreeDecomposition(bags, edges)
