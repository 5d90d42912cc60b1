"""Gaifman graphs of queries and instances.

The Gaifman graph of a CQ has the query variables as nodes, with an edge
between two variables iff they co-occur in some atom (Section 3.2).  The
benchmarks use it to demonstrate how the chase can destroy structural
properties: Example 2 turns an acyclic query into an n-clique and Example 5
produces an n×n grid, so the treewidth (bounded by
:func:`repro.hypergraph.treewidth_upper_bound`) grows with n.

:func:`gaifman_graph_of_atoms` is the one builder of the library: a vertex
policy (a predicate on terms, such as the connector policies of
:mod:`repro.hypergraph.gyo`) picks the terms that become nodes.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, Set

from ..datamodel import Atom, Instance, Term, Variable


AdjacencyGraph = Dict[Hashable, Set[Hashable]]

#: Decides which terms of an atom are nodes of the Gaifman graph.
VertexPolicy = Callable[[Term], bool]


def _is_variable(term: Term) -> bool:
    return isinstance(term, Variable)


def _every_term(term: Term) -> bool:
    return True


def gaifman_graph_of_atoms(
    atoms: Iterable[Atom], vertex_policy: VertexPolicy = _is_variable
) -> AdjacencyGraph:
    """Build the Gaifman graph of a set of atoms.

    Args:
        atoms: the atoms (of a query body or an instance).
        vertex_policy: the terms that become nodes; by default the
            variables (for query bodies).
    """
    graph: AdjacencyGraph = {}
    for atom in atoms:
        nodes = sorted({t for t in atom.terms if vertex_policy(t)}, key=str)
        for node in nodes:
            graph.setdefault(node, set())
        for i, left in enumerate(nodes):
            for right in nodes[i + 1:]:
                graph[left].add(right)
                graph[right].add(left)
    return graph


def gaifman_graph_of_instance(instance: Instance) -> AdjacencyGraph:
    """Gaifman graph of an instance: nodes are all terms of the active domain."""
    return gaifman_graph_of_atoms(instance, _every_term)


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
