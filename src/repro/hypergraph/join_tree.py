"""Join trees of acyclic atom collections.

A join tree of an instance ``I`` (Section 2) is a tree whose nodes are
labelled with the atoms of ``I`` such that every atom labels some node and,
for every connector term (null / variable), the nodes containing that term
form a connected subtree.  This module labels the parents that the GYO
kernel (:func:`~repro.hypergraph.gyo.gyo_parents`) returns with the atoms,
verifies the join-tree property explicitly (used by the property based
tests) and offers the rooted-tree navigation that Lemma 9 and Yannakakis'
algorithm need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..datamodel import Atom, Instance, Term
from .gyo import (
    ConnectorPolicy,
    GYOParents,
    gyo_parents,
    instance_connectors,
    query_connectors,
    vertex_masks,
)


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

    def rerooted(self, identifier: int) -> "JoinTree":
        """The same tree rooted at ``identifier`` (``self`` is untouched).

        Only the parent pointers on the path from the old root to the new
        one are reversed; the edge set, and with it the join-tree property,
        is unchanged.
        """
        parent = dict(self._parent)
        path = [identifier] + self.ancestors(identifier)
        parent[identifier] = None
        for child, former_parent in zip(path, path[1:]):
            parent[former_parent] = child
        return JoinTree(self._nodes, parent)

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
    parents = gyo_parents(vertex_masks(atom_list, connector_policy))
    if parents is None:
        raise JoinTreeError("the atom collection is cyclic")
    return join_tree_from_parents(atom_list, parents, connector_policy)


def join_tree_from_parents(
    atoms: Sequence[Atom],
    parents: GYOParents,
    connector_policy: ConnectorPolicy,
) -> JoinTree:
    """The join tree whose node ``i`` holds ``atoms[i]`` under the GYO
    parents of the atoms' vertex masks (see :func:`gyo_parents`)."""
    nodes = {
        index: JoinTreeNode(
            index, atom, frozenset(t for t in atom.terms if connector_policy(t))
        )
        for index, atom in enumerate(atoms)
    }
    return JoinTree(nodes, dict(enumerate(parents)))


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

    adjacency: Dict[int, Set[int]] = {identifier: set() for identifier in tree.node_ids()}
    for parent_id, child_id in tree.edges():
        adjacency[parent_id].add(child_id)
        adjacency[child_id].add(parent_id)
    connectors = {
        node.identifier: [t for t in node.atom.terms if connector_policy(t)]
        for node in tree.nodes()
    }
    return has_connected_holders(adjacency, connectors)


def is_connected_within(adjacency: Mapping[int, Iterable[int]], nodes: Set[int]) -> bool:
    """Whether the non-empty ``nodes`` induce a connected subgraph of ``adjacency``."""
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        for neighbour in adjacency[stack.pop()]:
            if neighbour in nodes and neighbour not in seen:
                seen.add(neighbour)
                stack.append(neighbour)
    return len(seen) == len(nodes)


def has_connected_holders(
    adjacency: Mapping[int, Iterable[int]], labels: Mapping[int, Iterable[Hashable]]
) -> bool:
    """The running-intersection check shared by join trees and tree
    decompositions: for every label, the nodes holding it form a connected
    subtree of ``adjacency``."""
    holders: Dict[Hashable, Set[int]] = {}
    for node, node_labels in labels.items():
        for label in node_labels:
            holders.setdefault(label, set()).add(node)
    return all(is_connected_within(adjacency, nodes) for nodes in holders.values())
