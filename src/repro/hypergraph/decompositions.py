"""Tree and (generalized) hypertree decompositions.

The paper repeatedly appeals to structural width measures beyond plain
acyclicity: Example 2 shows that chasing with non-recursive / sticky tgds can
blow the (hyper)tree width of a query up to ``n`` (an ``n``-clique), Example 5
does the same with keys (an ``n × n`` grid), and footnote 4 notes that
guarded tgds over bounded-arity schemas *preserve* bounded hypertree width.
This module provides the machinery those observations need:

* :class:`TreeDecomposition` — a tree of bags over the Gaifman graph, with a
  full validity check (vertex coverage, edge coverage, and the running
  intersection check that :func:`~repro.hypergraph.join_tree.is_valid_join_tree`
  shares);
* elimination orders: one greedy loop, :func:`_greedy_order`, eliminates a
  vertex of least cost at each step (fill-in for min-fill, degree for
  min-degree; ties go to the least vertex in ``str`` order), plus an exact
  branch-and-bound search for small graphs;
* :class:`HypertreeDecomposition` — bags guarded by hyperedge covers, giving
  the generalized hypertree width; acyclic hypergraphs get width 1 straight
  from their join tree.

Every graph here is an ``AdjacencyGraph`` built by the one Gaifman builder,
:func:`~repro.queries.gaifman.gaifman_graph_of_atoms`, under a connector
policy; the guards read ``(atom, connector set)`` pairs off the same atoms.
So queries, instances and chase results are all measured uniformly, and
:func:`treewidth_upper_bound` is the library's one treewidth bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Sequence,
    Set,
    Tuple,
)

from ..datamodel import Atom, Instance, Term
from ..queries.gaifman import AdjacencyGraph, gaifman_graph_of_atoms, gaifman_graph_of_instance
from .gyo import ConnectorPolicy, query_connectors
from .join_tree import (
    JoinTree,
    JoinTreeError,
    build_join_tree,
    has_connected_holders,
    is_connected_within,
)


#: An atom with the set of its connector terms (its hyperedge).
ConnectorEdge = Tuple[Atom, FrozenSet[Term]]


def _connector_edges(
    atoms: Iterable[Atom], connector_policy: ConnectorPolicy
) -> List[ConnectorEdge]:
    """Each atom with its connector terms under ``connector_policy``."""
    return [
        (atom, frozenset(t for t in atom.terms if connector_policy(t))) for atom in atoms
    ]


# ----------------------------------------------------------------------
# Tree decompositions
# ----------------------------------------------------------------------
class TreeDecomposition:
    """A tree decomposition: a tree of *bags* of graph vertices.

    The decomposition is stored as a mapping from node identifiers to bags
    (frozen sets of vertices) plus an undirected edge list over those
    identifiers.  The three defining conditions (every vertex in some bag,
    every graph edge inside some bag, and the bags containing any fixed
    vertex forming a connected subtree) are checked by :meth:`is_valid_for`.
    """

    def __init__(
        self,
        bags: Mapping[int, Iterable[Hashable]],
        edges: Iterable[Tuple[int, int]] = (),
    ) -> None:
        self._bags: Dict[int, FrozenSet[Hashable]] = {
            node: frozenset(bag) for node, bag in bags.items()
        }
        if not self._bags:
            raise ValueError("a tree decomposition needs at least one bag")
        self._adjacency: Dict[int, Set[int]] = {node: set() for node in self._bags}
        for left, right in edges:
            if left not in self._bags or right not in self._bags:
                raise ValueError(f"edge ({left}, {right}) mentions an unknown bag")
            if left == right:
                raise ValueError("self-loops are not allowed in a tree decomposition")
            self._adjacency[left].add(right)
            self._adjacency[right].add(left)
        if not self._is_tree():
            raise ValueError("the bag graph must be a tree (connected and acyclic)")

    # ------------------------------------------------------------------
    @property
    def bags(self) -> Dict[int, FrozenSet[Hashable]]:
        """The bags, keyed by node identifier."""
        return dict(self._bags)

    def bag(self, node: int) -> FrozenSet[Hashable]:
        """Return the bag of a node."""
        return self._bags[node]

    def nodes(self) -> List[int]:
        """Return the node identifiers in sorted order."""
        return sorted(self._bags)

    def edges(self) -> List[Tuple[int, int]]:
        """Return each undirected edge once, as an ordered pair."""
        result: List[Tuple[int, int]] = []
        for node in sorted(self._adjacency):
            for neighbour in sorted(self._adjacency[node]):
                if node < neighbour:
                    result.append((node, neighbour))
        return result

    def neighbours(self, node: int) -> Set[int]:
        """Return the bags adjacent to ``node``."""
        return set(self._adjacency[node])

    def __len__(self) -> int:
        return len(self._bags)

    @property
    def width(self) -> int:
        """The width: the size of the largest bag minus one."""
        return max(len(bag) for bag in self._bags.values()) - 1

    def vertices(self) -> Set[Hashable]:
        """The union of all bags."""
        result: Set[Hashable] = set()
        for bag in self._bags.values():
            result.update(bag)
        return result

    # ------------------------------------------------------------------
    def _is_tree(self) -> bool:
        edge_count = sum(len(n) for n in self._adjacency.values()) // 2
        return edge_count == len(self._bags) - 1 and is_connected_within(
            self._adjacency, set(self._bags)
        )

    def is_valid_for(self, graph: AdjacencyGraph) -> bool:
        """Check the three tree-decomposition conditions against ``graph``."""
        # (1) Every vertex of the graph occurs in some bag.
        if not set(graph) <= self.vertices():
            return False
        # (2) Every edge of the graph is covered by some bag.
        for vertex, neighbours in graph.items():
            for neighbour in neighbours:
                if not any(
                    vertex in bag and neighbour in bag for bag in self._bags.values()
                ):
                    return False
        # (3) Running intersection: the bags containing a vertex are connected.
        return has_connected_holders(self._adjacency, self._bags)

    def __str__(self) -> str:
        parts = []
        for node in self.nodes():
            inner = ", ".join(sorted(str(v) for v in self._bags[node]))
            parts.append(f"{node}:{{{inner}}}")
        return "TreeDecomposition[" + "; ".join(parts) + "]"

    def __repr__(self) -> str:
        return f"TreeDecomposition({len(self._bags)} bags, width {self.width})"


# ----------------------------------------------------------------------
# Elimination orders
# ----------------------------------------------------------------------
def _degree(working: AdjacencyGraph, node: Hashable) -> int:
    return len(working[node])


def _fill_in(working: AdjacencyGraph, node: Hashable) -> int:
    """The number of edges missing from ``node``'s neighbourhood."""
    neighbours = list(working[node])
    missing = 0
    for i, left in enumerate(neighbours):
        for right in neighbours[i + 1:]:
            if right not in working[left]:
                missing += 1
    return missing


def _greedy_order(
    graph: AdjacencyGraph, cost: Callable[[AdjacencyGraph, Hashable], int]
) -> List[Hashable]:
    """Eliminate, at each step, a vertex of least ``cost``; ties go to the
    least vertex in ``str`` order."""
    working = {node: set(neighbours) for node, neighbours in graph.items()}
    order: List[Hashable] = []
    while working:
        node = min(sorted(working, key=str), key=partial(cost, working))
        order.append(node)
        _eliminate(working, node)
    return order


def min_degree_order(graph: AdjacencyGraph) -> List[Hashable]:
    """Elimination order choosing, at each step, a vertex of minimum degree."""
    return _greedy_order(graph, _degree)


def min_fill_order(graph: AdjacencyGraph) -> List[Hashable]:
    """Elimination order choosing, at each step, a vertex of minimum fill-in."""
    return _greedy_order(graph, _fill_in)


def _eliminate(working: AdjacencyGraph, node: Hashable) -> None:
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


def tree_decomposition_min_fill(graph: AdjacencyGraph) -> TreeDecomposition:
    """Tree decomposition via the min-fill heuristic (good general-purpose bound)."""
    return decomposition_from_elimination_order(graph, min_fill_order(graph))


def tree_decomposition_min_degree(graph: AdjacencyGraph) -> TreeDecomposition:
    """Tree decomposition via the min-degree heuristic (cheaper, often wider)."""
    return decomposition_from_elimination_order(graph, min_degree_order(graph))


def treewidth_upper_bound(graph: AdjacencyGraph) -> int:
    """Best of the min-fill and min-degree bounds on the treewidth."""
    if not graph:
        return 0
    return min(
        tree_decomposition_min_fill(graph).width,
        tree_decomposition_min_degree(graph).width,
    )


# ----------------------------------------------------------------------
# Exact treewidth (small graphs)
# ----------------------------------------------------------------------
def treewidth_exact(graph: AdjacencyGraph, max_vertices: int = 14) -> int:
    """Exact treewidth via branch-and-bound over elimination orders.

    The search explores elimination orders with memoisation on the set of
    already-eliminated vertices; it is exponential and therefore guarded by
    ``max_vertices``.

    Raises:
        ValueError: if the graph has more than ``max_vertices`` vertices.
    """
    vertices = sorted(graph, key=str)
    if len(vertices) > max_vertices:
        raise ValueError(
            f"exact treewidth limited to {max_vertices} vertices, got {len(vertices)}"
        )
    if not vertices:
        return 0

    upper = treewidth_upper_bound(graph)
    if upper <= 1:
        # Heuristics are exact on trees/forests (and the empty graph).
        return upper

    index_of = {vertex: i for i, vertex in enumerate(vertices)}
    neighbour_masks = [0] * len(vertices)
    for vertex, neighbours in graph.items():
        for neighbour in neighbours:
            neighbour_masks[index_of[vertex]] |= 1 << index_of[neighbour]

    best = upper
    memo: Dict[Tuple[int, Tuple[int, ...]], int] = {}

    def search(eliminated: int, masks: Tuple[int, ...], width_so_far: int) -> int:
        nonlocal best
        if width_so_far >= best:
            return best
        remaining = [i for i in range(len(vertices)) if not eliminated & (1 << i)]
        if not remaining:
            best = min(best, width_so_far)
            return width_so_far
        key = (eliminated, masks)
        cached = memo.get(key)
        if cached is not None and cached <= width_so_far:
            return best
        memo[key] = width_so_far

        for i in remaining:
            degree = bin(masks[i] & ~eliminated).count("1")
            new_width = max(width_so_far, degree)
            if new_width >= best:
                continue
            new_masks = list(masks)
            live_neighbours = [
                j for j in range(len(vertices))
                if masks[i] & (1 << j) and not eliminated & (1 << j)
            ]
            for a in live_neighbours:
                for b in live_neighbours:
                    if a != b:
                        new_masks[a] |= 1 << b
            search(eliminated | (1 << i), tuple(new_masks), new_width)
        return best

    search(0, tuple(neighbour_masks), 0)
    return best


# ----------------------------------------------------------------------
# Hypertree decompositions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HypertreeNode:
    """One node of a hypertree decomposition: a bag plus its guard cover."""

    identifier: int
    bag: FrozenSet[Hashable]
    guards: Tuple[Atom, ...]


class HypertreeDecomposition:
    """A generalized hypertree decomposition.

    Each node carries a bag of vertices and a *guard* set of hyperedges
    (atoms) whose vertices cover the bag; the width is the maximum number of
    guards over all nodes.  Acyclic hypergraphs admit width 1 (one atom per
    bag — exactly a join tree).
    """

    def __init__(
        self,
        nodes: Mapping[int, HypertreeNode],
        edges: Iterable[Tuple[int, int]] = (),
    ) -> None:
        self._nodes: Dict[int, HypertreeNode] = dict(nodes)
        if not self._nodes:
            raise ValueError("a hypertree decomposition needs at least one node")
        self._tree = TreeDecomposition(
            {identifier: node.bag for identifier, node in self._nodes.items()},
            edges,
        )

    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """The generalized hypertree width: the largest guard set."""
        return max(len(node.guards) for node in self._nodes.values())

    def nodes(self) -> List[HypertreeNode]:
        return [self._nodes[i] for i in sorted(self._nodes)]

    def node(self, identifier: int) -> HypertreeNode:
        return self._nodes[identifier]

    def edges(self) -> List[Tuple[int, int]]:
        return self._tree.edges()

    def tree_decomposition(self) -> TreeDecomposition:
        """The underlying tree decomposition (ignoring guards)."""
        return self._tree

    def __len__(self) -> int:
        return len(self._nodes)

    def is_valid_for(
        self,
        atoms: Iterable[Atom],
        connector_policy: ConnectorPolicy = query_connectors,
    ) -> bool:
        """Check bag validity against the Gaifman graph and guard coverage."""
        atom_list = list(atoms)
        graph = gaifman_graph_of_atoms(atom_list, connector_policy)
        if not self._tree.is_valid_for(graph):
            return False
        # Guard coverage: each bag must be covered by its guards' vertices,
        # and each guard must be one of the atoms.
        available = set(atom_list)
        for node in self._nodes.values():
            if any(guard not in available for guard in node.guards):
                return False
            covered: Set[Hashable] = set()
            for guard in node.guards:
                covered.update(t for t in guard.terms if connector_policy(t))
            if not set(node.bag) <= covered:
                return False
        return True

    def __repr__(self) -> str:
        return f"HypertreeDecomposition({len(self._nodes)} nodes, width {self.width})"


def _cover_bag_greedily(
    bag: FrozenSet[Hashable],
    edges: Sequence[ConnectorEdge],
) -> Tuple[Atom, ...]:
    """Greedy set cover of a bag by hyperedges (guards)."""
    uncovered = set(bag)
    guards: List[Atom] = []
    by_text = sorted(edges, key=lambda edge: str(edge[0]))
    while uncovered:
        best_atom, best_vertices = max(by_text, key=lambda edge: len(edge[1] & uncovered))
        gained = best_vertices & uncovered
        if not gained:
            # Bag vertices not present in any hyperedge (cannot happen for
            # Gaifman graphs of the same atoms, but keep the loop safe).
            break
        guards.append(best_atom)
        uncovered -= gained
    return tuple(guards)


def hypertree_from_tree_decomposition(
    atoms: Iterable[Atom],
    decomposition: TreeDecomposition,
    connector_policy: ConnectorPolicy = query_connectors,
) -> HypertreeDecomposition:
    """Turn a tree decomposition into a generalized hypertree decomposition.

    Each bag is covered greedily by the atoms' connector sets; the
    result is a valid generalized hypertree decomposition whose width is an
    upper bound on the generalized hypertree width.
    """
    edges = _connector_edges(atoms, connector_policy)
    nodes: Dict[int, HypertreeNode] = {}
    for identifier, bag in decomposition.bags.items():
        guards = _cover_bag_greedily(bag, edges)
        nodes[identifier] = HypertreeNode(identifier, bag, guards)
    return HypertreeDecomposition(nodes, decomposition.edges())


def hypertree_from_join_tree(join_tree: JoinTree) -> HypertreeDecomposition:
    """Width-1 hypertree decomposition of an acyclic atom collection."""
    nodes: Dict[int, HypertreeNode] = {}
    for tree_node in join_tree.nodes():
        nodes[tree_node.identifier] = HypertreeNode(
            tree_node.identifier,
            frozenset(tree_node.vertices),
            (tree_node.atom,),
        )
    edges = [(parent, child) for parent, child in join_tree.edges()]
    return HypertreeDecomposition(nodes, edges)


def hypertree_decomposition_of_atoms(
    atoms: Iterable[Atom],
    connector_policy: ConnectorPolicy = query_connectors,
) -> HypertreeDecomposition:
    """Best-effort generalized hypertree decomposition of a set of atoms.

    Acyclic inputs get the exact width-1 decomposition from their join tree;
    cyclic inputs get the greedy cover of a min-fill tree decomposition
    (an upper bound on the generalized hypertree width).
    """
    atom_list = list(atoms)
    if not atom_list:
        raise ValueError("cannot decompose an empty set of atoms")
    try:
        join_tree = build_join_tree(atom_list, connector_policy)
    except JoinTreeError:
        pass
    else:
        return hypertree_from_join_tree(join_tree)

    graph = gaifman_graph_of_atoms(atom_list, connector_policy)
    decomposition = tree_decomposition_min_fill(graph)
    return hypertree_from_tree_decomposition(atom_list, decomposition, connector_policy)


def hypertree_width_upper_bound(
    atoms: Iterable[Atom],
    connector_policy: ConnectorPolicy = query_connectors,
) -> int:
    """Upper bound on the generalized hypertree width of a set of atoms.

    Acyclic sets report exactly 1 (Yannakakis-evaluable); Example 2's chased
    clique reports roughly ``n / 2`` (every guard is a binary atom), and the
    Example 5 grid grows with the grid side — matching the paper's remark
    that those chases destroy bounded hypertree width.
    """
    return hypertree_decomposition_of_atoms(list(atoms), connector_policy).width


# ----------------------------------------------------------------------
# Convenience entry points for queries, instances and chase results
# ----------------------------------------------------------------------
def query_treewidth(atoms: Iterable[Atom], exact_limit: int = 0) -> int:
    """Treewidth (bound) of a query body's Gaifman graph.

    Args:
        atoms: the query body.
        exact_limit: when positive and the graph has at most this many
            vertices, the exact branch-and-bound search is used; otherwise
            the heuristic upper bound is returned.
    """
    graph = gaifman_graph_of_atoms(list(atoms))
    if exact_limit and len(graph) <= exact_limit:
        return treewidth_exact(graph, max_vertices=exact_limit)
    return treewidth_upper_bound(graph)


def instance_treewidth(instance: Instance, exact_limit: int = 0) -> int:
    """Treewidth (bound) of an instance's Gaifman graph (all terms as nodes)."""
    graph = gaifman_graph_of_instance(instance)
    if exact_limit and len(graph) <= exact_limit:
        return treewidth_exact(graph, max_vertices=exact_limit)
    return treewidth_upper_bound(graph)
