"""The compact acyclic query construction of Lemma 9 / Figure 3.

Given a CQ ``q(x̄)``, an acyclic instance ``I`` and a tuple ``c̄`` of
constants such that ``q(c̄)`` holds in ``I``, Lemma 9 produces an acyclic CQ
``q'(x̄)`` with at most ``2·|q|`` atoms such that ``q' ⊆ q`` and ``q'(c̄)``
holds in ``I``.  This is the technical core of every small-query property in
the paper (Propositions 8 and 15) and therefore of every decision procedure
for semantic acyclicity.

The construction follows the paper:

1. pick a homomorphism ``h`` mapping ``q`` into ``I`` with ``h(x̄) = c̄``;
2. build a join tree ``T`` of ``I`` and take the subtree ``T_q`` induced by
   the nodes labelled with image atoms together with their ancestors;
3. keep only the *interesting* nodes of ``T_q`` — image nodes, the root and
   every node with at least two children — and connect them by contracting
   the in-between paths;
4. read the kept atoms back as a conjunctive query, renaming nulls and frozen
   constants to fresh variables (genuine constants survive unchanged).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

from ..datamodel import (
    Atom,
    Constant,
    Instance,
    Term,
    Variable,
    is_frozen_constant,
)
from ..queries.cq import ConjunctiveQuery
from ..queries.homomorphism import find_homomorphism
from .gyo import instance_connectors
from .join_tree import JoinTree, JoinTreeError, build_join_tree


def _term_renaming(atoms: Iterable[Atom]) -> Dict[Term, Term]:
    """Rename nulls / frozen constants to fresh variables; keep genuine constants."""
    renaming: Dict[Term, Term] = {}
    counter = 0
    for atom in atoms:
        for term in atom.terms:
            if term in renaming:
                continue
            if isinstance(term, Constant) and not is_frozen_constant(term):
                renaming[term] = term
            else:
                renaming[term] = Variable(f"W{counter}")
                counter += 1
    return renaming


def compact_acyclic_subinstance(
    query: ConjunctiveQuery,
    instance: Instance,
    homomorphism: Mapping[Term, Term],
    join_tree: Optional[JoinTree] = None,
) -> List[Atom]:
    """Return the atoms of the compact acyclic sub-instance ``J ⊆ I`` (Lemma 27).

    ``J`` contains the image of ``query`` under ``homomorphism``, has at most
    ``2·|query|`` atoms and is itself acyclic.
    """
    if join_tree is None:
        join_tree = build_join_tree(instance.sorted_atoms(), instance_connectors)

    image_atoms = {atom.apply(dict(homomorphism)) for atom in query.body}
    image_nodes = {
        node.identifier for node in join_tree.nodes() if node.atom in image_atoms
    }
    if not image_nodes and query.body:
        raise ValueError("the homomorphism image does not appear in the join tree")

    # T_q: image nodes plus their ancestors.
    subtree: Set[int] = set(image_nodes)
    for identifier in list(image_nodes):
        subtree.update(join_tree.ancestors(identifier))

    # Children counts within T_q.
    children_in_subtree: Dict[int, int] = {identifier: 0 for identifier in subtree}
    for identifier in subtree:
        parent = join_tree.parent(identifier)
        if parent is not None and parent in subtree:
            children_in_subtree[parent] += 1

    # Kept nodes: image nodes, the root(s) of T_q and branching nodes.
    kept: Set[int] = set(image_nodes)
    for identifier in subtree:
        parent = join_tree.parent(identifier)
        if parent is None or parent not in subtree:
            kept.add(identifier)  # root of T_q
        if children_in_subtree[identifier] >= 2:
            kept.add(identifier)

    return [join_tree.node(identifier).atom for identifier in sorted(kept)]


def compact_acyclic_query(
    query: ConjunctiveQuery,
    instance: Instance,
    answer: Optional[Sequence[Constant]] = None,
    join_tree: Optional[JoinTree] = None,
    name: str = "compact",
) -> Optional[ConjunctiveQuery]:
    """Apply Lemma 9: return a small acyclic ``q' ⊆ q`` with ``q'(c̄)`` true in ``I``.

    Args:
        query: the CQ ``q(x̄)``.
        instance: an acyclic instance ``I`` (acyclicity is assumed, not
            re-checked here; pass a join tree if one is already available).
        answer: the tuple ``c̄`` the query must produce; defaults to the
            frozen head of ``query`` when ``None`` and the query is Boolean
            the empty tuple is used.
        join_tree: optionally, a pre-computed join tree of ``instance``.

    Returns:
        The compact acyclic query, or ``None`` when ``q(c̄)`` does not hold in
        ``I`` (no homomorphism exists).
    """
    if answer is None:
        answer = ()
    if len(answer) != len(query.head):
        raise ValueError(
            f"answer tuple has arity {len(answer)}, query has {len(query.head)} "
            f"free variables"
        )

    seed = {variable: value for variable, value in zip(query.head, answer)}
    homomorphism = find_homomorphism(query.body, instance, seed=seed)
    if homomorphism is None:
        return None

    if join_tree is None:
        try:
            join_tree = build_join_tree(instance.sorted_atoms(), instance_connectors)
        except JoinTreeError as error:
            raise ValueError("instance is not acyclic") from error

    kept_atoms = compact_acyclic_subinstance(query, instance, homomorphism, join_tree)
    renaming = _term_renaming(kept_atoms)
    body = [atom.map_terms(lambda t: renaming[t]) for atom in kept_atoms]

    head: List[Variable] = []
    for value in answer:
        image = renaming.get(value)
        if image is None or not isinstance(image, Variable):
            # The answer constant does not occur in the kept atoms as a
            # renameable term (e.g. a genuine constant); such queries fall
            # outside Lemma 9's hypotheses (distinct constants occurring in I).
            raise ValueError(
                f"answer term {value} does not occur as a renameable term of "
                f"the compact sub-instance"
            )
        head.append(image)

    return ConjunctiveQuery(head, body, name=name)
