"""Join trees of acyclic atom collections.

A join tree of an instance ``I`` (Section 2) is a tree whose nodes are
labelled with the atoms of ``I`` such that every atom labels some node and,
for every connector term (null / variable), the nodes containing that term
form a connected subtree.  This module builds join trees out of the GYO
reduction, verifies the join-tree property explicitly (used by the property
based tests) and offers the rooted-tree navigation that Lemma 9 and
Yannakakis' algorithm need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..datamodel import Atom, Instance, Term
from .hypergraph import (
    ConnectorPolicy,
    Hypergraph,
    hypergraph_of_instance,
    hypergraph_of_query_atoms,
    instance_connectors,
    query_connectors,
)
from .gyo import GYOResult, gyo_reduction


class JoinTreeError(ValueError):
    """Raised when a join tree is requested for a cyclic atom collection."""


@dataclass
class JoinTreeNode:
    """A node of a join tree: an identifier, its atom and its connector vertices."""

    identifier: int
    atom: Atom
    vertices: FrozenSet[Term]


class JoinTree:
    """A rooted join tree over a collection of atoms.

    The tree is stored with parent pointers plus child adjacency; node ``0``
    is not necessarily the root — use :attr:`root`.
    """

    def __init__(
        self,
        nodes: Dict[int, JoinTreeNode],
        parent: Dict[int, Optional[int]],
    ) -> None:
        self._nodes = dict(nodes)
        self._parent = dict(parent)
        self._children: Dict[int, List[int]] = {identifier: [] for identifier in nodes}
        roots = [identifier for identifier, p in parent.items() if p is None]
        if len(roots) != 1:
            raise ValueError(f"a join tree needs exactly one root, got {len(roots)}")
        self._root = roots[0]
        for identifier, parent_id in parent.items():
            if parent_id is not None:
                self._children[parent_id].append(identifier)

    # ------------------------------------------------------------------
    @property
    def root(self) -> int:
        return self._root

    def node(self, identifier: int) -> JoinTreeNode:
        return self._nodes[identifier]

    def nodes(self) -> List[JoinTreeNode]:
        return [self._nodes[i] for i in sorted(self._nodes)]

    def node_ids(self) -> List[int]:
        return sorted(self._nodes)

    def atoms(self) -> List[Atom]:
        return [node.atom for node in self.nodes()]

    def parent(self, identifier: int) -> Optional[int]:
        return self._parent[identifier]

    def children(self, identifier: int) -> List[int]:
        return list(self._children[identifier])

    def shared_with_parent(self, identifier: int) -> FrozenSet[Term]:
        """The connector terms a node shares with its parent (∅ at the root).

        These are exactly the probe-key variables of the node in the
        operator IR of :mod:`repro.evaluation.operators`: the parent's
        rows fix their values, and the node's relation is partitioned by
        them for both the semi-join reduction and the streaming cursors.
        """
        parent = self._parent[identifier]
        if parent is None:
            return frozenset()
        return self._nodes[identifier].vertices & self._nodes[parent].vertices

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    def ancestors(self, identifier: int) -> List[int]:
        """Return the ancestors of a node, closest first (excluding itself)."""
        result: List[int] = []
        current = self._parent[identifier]
        while current is not None:
            result.append(current)
            current = self._parent[current]
        return result

    def descendants(self, identifier: int) -> List[int]:
        """Return every node in the subtree rooted at ``identifier`` (excluding it)."""
        result: List[int] = []
        stack = list(self._children[identifier])
        while stack:
            node = stack.pop()
            result.append(node)
            stack.extend(self._children[node])
        return result

    def leaves(self) -> List[int]:
        return [identifier for identifier in self._nodes if not self._children[identifier]]

    def bottom_up_order(self) -> List[int]:
        """Return node ids so that every node appears before its parent."""
        order: List[int] = []
        _post_order(self._children, self._root, order)
        return order

    def top_down_order(self) -> List[int]:
        """Return node ids so that every node appears after its parent."""
        return list(reversed(self.bottom_up_order()))

    def edges(self) -> List[Tuple[int, int]]:
        """Return the (parent, child) edges of the tree."""
        return [
            (parent_id, identifier)
            for identifier, parent_id in self._parent.items()
            if parent_id is not None
        ]

    def path(self, source: int, target: int) -> List[int]:
        """Return the unique path between two nodes (inclusive)."""
        source_ancestry = [source] + self.ancestors(source)
        target_ancestry = [target] + self.ancestors(target)
        ancestor_positions = {node: depth for depth, node in enumerate(target_ancestry)}
        for depth, node in enumerate(source_ancestry):
            if node in ancestor_positions:
                upward = source_ancestry[: depth + 1]
                downward = target_ancestry[: ancestor_positions[node]]
                return upward + list(reversed(downward))
        raise ValueError("nodes are not connected")  # pragma: no cover

    def __str__(self) -> str:
        lines: List[str] = []

        def render(identifier: int, depth: int) -> None:
            lines.append("  " * depth + str(self._nodes[identifier].atom))
            for child in self._children[identifier]:
                render(child, depth + 1)

        render(self._root, 0)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def _post_order(children: Dict[int, List[int]], identifier: int, order: List[int]) -> None:
    """Append the subtree under ``identifier`` to ``order``, children first."""
    for child in children[identifier]:
        _post_order(children, child, order)
    order.append(identifier)


def build_join_tree(
    atoms: Iterable[Atom],
    connector_policy: ConnectorPolicy = query_connectors,
) -> JoinTree:
    """Build a join tree for ``atoms``.

    Raises:
        JoinTreeError: if the atoms are not acyclic under the given policy.
    """
    atom_list = list(atoms)
    if not atom_list:
        raise JoinTreeError("cannot build a join tree for an empty set of atoms")
    hypergraph = Hypergraph(atom_list, connector_policy)
    result = gyo_reduction(hypergraph)
    if not result.acyclic:
        raise JoinTreeError("the atom collection is cyclic")

    nodes: Dict[int, JoinTreeNode] = {
        edge.index: JoinTreeNode(edge.index, edge.atom, edge.vertices)
        for edge in hypergraph.edges
    }
    parent: Dict[int, Optional[int]] = {index: None for index in nodes}
    for child, witness in result.parents.items():
        parent[child] = witness

    # If several components survive (disconnected acyclic hypergraph), chain
    # their roots: the roots share no connector vertices, so attaching one
    # root under another preserves the join-tree property.
    roots = [index for index, parent_id in parent.items() if parent_id is None]
    roots.sort()
    for previous, current in zip(roots, roots[1:]):
        parent[current] = previous

    return JoinTree(nodes, parent)


def join_tree_of_query_atoms(atoms: Iterable[Atom]) -> JoinTree:
    """Join tree of a query body (variables as connectors)."""
    return build_join_tree(atoms, query_connectors)


def join_tree_of_instance(instance: Instance) -> JoinTree:
    """Join tree of an instance (nulls / frozen constants as connectors)."""
    return build_join_tree(instance.sorted_atoms(), instance_connectors)


# ----------------------------------------------------------------------
# Verification (used heavily by the test suite)
# ----------------------------------------------------------------------
def is_valid_join_tree(
    tree: JoinTree,
    atoms: Iterable[Atom],
    connector_policy: ConnectorPolicy = query_connectors,
) -> bool:
    """Check the join-tree property of ``tree`` against ``atoms``.

    The check mirrors the definition in Section 2: every atom labels some
    node, and for every connector term the nodes whose atom contains it form
    a connected subtree.
    """
    atom_list = list(atoms)
    labelled = {node.atom for node in tree.nodes()}
    if not set(atom_list) <= labelled:
        return False

    # Connectivity of each connector term.
    term_nodes: Dict[Term, Set[int]] = {}
    for node in tree.nodes():
        for term in node.atom.terms:
            if connector_policy(term):
                term_nodes.setdefault(term, set()).add(node.identifier)

    adjacency: Dict[int, Set[int]] = {identifier: set() for identifier in tree.node_ids()}
    for parent_id, child_id in tree.edges():
        adjacency[parent_id].add(child_id)
        adjacency[child_id].add(parent_id)

    for term, wanted in term_nodes.items():
        start = next(iter(wanted))
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for neighbour in adjacency[current]:
                if neighbour in wanted and neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        if seen != wanted:
            return False
    return True
