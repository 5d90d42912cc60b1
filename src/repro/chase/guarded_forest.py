"""The guarded chase forest (proof device of Proposition 12).

For a guarded set of tgds, every chase step is anchored at the image of the
guard atom of the fired tgd; the *guarded chase forest* has the atoms of the
chase as nodes, the atoms of the initial instance as roots and, for every
derived atom, the guard image of the producing step as its parent.  Attaching
these trees to a join tree of the initial (acyclic) query yields a join tree
of the whole chase, which is exactly how the paper proves that guarded sets
have acyclicity-preserving chase.

This module materialises the construction: it runs a (restricted) chase,
records the guard anchoring and assembles an explicit join tree of the chase
result.  The join tree is verified in the tests with
:func:`repro.hypergraph.is_valid_join_tree`, giving an executable version of
Proposition 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..datamodel import Atom, Constant, Variable
from ..dependencies.tgd import TGD
from ..dependencies.classification import is_guarded_set
from ..hypergraph import (
    JoinTree,
    JoinTreeNode,
    build_join_tree,
    instance_connectors,
)
from ..queries.cq import ConjunctiveQuery
from .tgd_chase import ChaseResult, chase_query


@dataclass
class GuardedChaseForest:
    """The chase result together with guard-anchored parent links."""

    chase: ChaseResult
    #: Freezing map of the chased query.
    freezing: Dict[Variable, Constant]
    #: Parent atom of every derived atom (the guard image of the producing step).
    parent_atom: Dict[Atom, Atom] = field(default_factory=dict)
    #: Atoms of the initial (frozen) query — the roots of the forest.
    roots: Tuple[Atom, ...] = ()

    def depth_of(self, atom: Atom) -> int:
        """Distance of ``atom`` from its root in the forest."""
        depth = 0
        current = atom
        while current in self.parent_atom:
            current = self.parent_atom[current]
            depth += 1
        return depth


def guarded_chase_forest(
    query: ConjunctiveQuery,
    tgds: Sequence[TGD],
    max_steps: int = 10_000,
    max_depth: Optional[int] = None,
    require_guarded: bool = True,
) -> GuardedChaseForest:
    """Chase ``query`` with guarded ``tgds`` and record the guard anchoring.

    Args:
        query: the CQ to chase (its variables are frozen first).
        tgds: a guarded set of tgds (checked unless ``require_guarded=False``).
        max_steps / max_depth: chase budgets (see :func:`repro.chase.chase`).
        require_guarded: raise ``ValueError`` when the set is not guarded.
    """
    tgd_list = list(tgds)
    if require_guarded and not is_guarded_set(tgd_list):
        raise ValueError("the guarded chase forest requires a guarded set of tgds")

    result, freezing = chase_query(
        query, tgd_list, variant="restricted", max_steps=max_steps, max_depth=max_depth
    )
    forest = GuardedChaseForest(
        chase=result,
        freezing=freezing,
        roots=tuple(query.canonical_database().sorted_atoms()),
    )

    initial_atoms = set(forest.roots)
    for step in result.steps:
        guard = step.tgd.guard() if step.tgd.is_guarded() else step.tgd.body[0]
        anchor = guard.apply(step.trigger)
        for atom in step.new_atoms:
            if atom in initial_atoms:
                continue
            forest.parent_atom.setdefault(atom, anchor)
    return forest


def guarded_chase_join_tree(
    query: ConjunctiveQuery,
    tgds: Sequence[TGD],
    max_steps: int = 10_000,
    max_depth: Optional[int] = None,
) -> Tuple[JoinTree, GuardedChaseForest]:
    """Build an explicit join tree of ``chase(query, tgds)`` (Proposition 12).

    The query must be acyclic; the returned join tree covers every atom of
    the chase result and witnesses its acyclicity.

    Raises:
        ValueError: if the query is cyclic, the set is not guarded, or an
            anchoring atom is missing (which would contradict guardedness).
    """
    if not query.is_acyclic():
        raise ValueError("the construction of Proposition 12 starts from an acyclic CQ")

    forest = guarded_chase_forest(
        query, tgds, max_steps=max_steps, max_depth=max_depth
    )

    # Join tree of the frozen query (its connectors are the frozen constants).
    base_atoms = list(forest.roots)
    base_tree = build_join_tree(base_atoms, instance_connectors)

    nodes: Dict[int, JoinTreeNode] = {}
    parent: Dict[int, Optional[int]] = {}
    atom_to_id: Dict[Atom, int] = {}

    for node in base_tree.nodes():
        identifier = node.identifier
        nodes[identifier] = JoinTreeNode(identifier, node.atom, node.vertices)
        parent[identifier] = base_tree.parent(node.identifier)
        atom_to_id.setdefault(node.atom, identifier)

    next_id = max(nodes) + 1 if nodes else 0

    # Attach derived atoms below their guard anchors, processed in production
    # order so that parents are always present.
    ordered = sorted(
        forest.parent_atom,
        key=lambda atom: forest.chase.produced_by.get(atom, 0),
    )
    for atom in ordered:
        if atom in atom_to_id:
            continue
        anchor = forest.parent_atom[atom]
        anchor_id = atom_to_id.get(anchor)
        if anchor_id is None:
            raise ValueError(
                f"anchor atom {anchor} of derived atom {atom} is not in the tree"
            )
        vertices = frozenset(t for t in atom.terms if instance_connectors(t))
        nodes[next_id] = JoinTreeNode(next_id, atom, vertices)
        parent[next_id] = anchor_id
        atom_to_id[atom] = next_id
        next_id += 1

    return JoinTree(nodes, parent), forest
