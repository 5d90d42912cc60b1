"""Acyclicity (GYO), join trees, compact queries and decompositions of atom sets.

A hypergraph is never an object here: :func:`vertex_masks` turns atoms into
one int mask of connector bits per atom, and the GYO kernel
:func:`gyo_parents` decides acyclicity on those masks and returns the join
tree's parents, which :func:`join_tree_from_parents` labels with the atoms.
"""

from .gyo import (
    ConnectorPolicy,
    gyo_parents,
    instance_connectors,
    is_acyclic_atoms,
    is_acyclic_instance,
    query_connectors,
    vertex_masks,
)
from .join_tree import (
    JoinTree,
    JoinTreeError,
    JoinTreeNode,
    build_join_tree,
    is_valid_join_tree,
    join_tree_from_parents,
    join_tree_of_instance,
    join_tree_of_query_atoms,
)
from .compact import compact_acyclic_query, compact_acyclic_subinstance
from .decompositions import (
    HypertreeDecomposition,
    HypertreeNode,
    TreeDecomposition,
    decomposition_from_elimination_order,
    hypertree_decomposition_of_atoms,
    hypertree_from_join_tree,
    hypertree_from_tree_decomposition,
    hypertree_width_upper_bound,
    instance_treewidth,
    min_degree_order,
    min_fill_order,
    query_treewidth,
    tree_decomposition_min_degree,
    tree_decomposition_min_fill,
    treewidth_exact,
    treewidth_upper_bound,
)

__all__ = [
    "ConnectorPolicy",
    "HypertreeDecomposition",
    "HypertreeNode",
    "JoinTree",
    "JoinTreeError",
    "JoinTreeNode",
    "TreeDecomposition",
    "build_join_tree",
    "compact_acyclic_query",
    "compact_acyclic_subinstance",
    "decomposition_from_elimination_order",
    "gyo_parents",
    "hypertree_decomposition_of_atoms",
    "hypertree_from_join_tree",
    "hypertree_from_tree_decomposition",
    "hypertree_width_upper_bound",
    "instance_connectors",
    "instance_treewidth",
    "is_acyclic_atoms",
    "is_acyclic_instance",
    "is_valid_join_tree",
    "join_tree_from_parents",
    "join_tree_of_instance",
    "join_tree_of_query_atoms",
    "min_degree_order",
    "min_fill_order",
    "query_connectors",
    "query_treewidth",
    "tree_decomposition_min_degree",
    "tree_decomposition_min_fill",
    "treewidth_exact",
    "treewidth_upper_bound",
    "vertex_masks",
]
