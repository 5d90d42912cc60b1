"""Core computation (CQ minimisation).

The *core* of a CQ ``q`` is the minimal equivalent CQ ``q'`` [21]; in the
absence of constraints, ``q`` is semantically acyclic iff its core is acyclic
(Section 1).  The implementation below is the classical fold-based algorithm:
repeatedly look for a retraction of the query body onto a proper subset of
its atoms that fixes the free variables, until no such retraction exists.

The search is exponential in the worst case (core computation is NP-hard),
which is acceptable: queries are small, and the paper itself relies on the
same observation ("this is not a major problem for real-life applications,
as the input (the CQ) is small").
"""

from __future__ import annotations

from typing import Dict, Optional

from ..datamodel import Instance, Term, freeze_variable, is_frozen_constant, unfreeze_constant
from .cq import ConjunctiveQuery
from .homomorphism import Homomorphism, find_homomorphism


def fold_once(query: ConjunctiveQuery) -> Optional[ConjunctiveQuery]:
    """Try to fold the query onto a proper subset of its atoms.

    Returns the folded (strictly smaller) query, or ``None`` if the query is
    already a core.  The fold removes one atom at a time, which is sufficient:
    if the query retracts onto any proper subset it also retracts onto a
    subset missing a single atom.

    A fold is an endomorphism that is the identity on the free variables.
    The homomorphism search works over ground targets, so the body is frozen
    once, into one instance in body order; each attempt takes one frozen
    atom out of it for its search and puts it back, and the found mapping is
    thawed back to variables.  Attempts run in the order of the atoms'
    text, so which fold is found does not depend on term identities.
    """
    freezing: Dict[Term, Term] = {
        variable: freeze_variable(variable) for variable in query.variables()
    }
    seed = {variable: freezing[variable] for variable in query.head}
    frozen = {atom: atom.apply(freezing) for atom in query.body}
    target = Instance(frozen.values())
    for atom in sorted(frozen, key=str):
        target.discard(frozen[atom])
        try:
            mapping = find_homomorphism(query.body, target, seed=seed)
        finally:
            target.add(frozen[atom])
        if mapping is None:
            continue
        thawed: Homomorphism = {
            source: unfreeze_constant(image) if is_frozen_constant(image) else image
            for source, image in mapping.items()
        }
        image_atoms = {a.apply(thawed) for a in query.body}
        return ConjunctiveQuery(query.head, sorted(image_atoms, key=str), name=query.name)
    return None


def core(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Return the core of ``query`` (a minimal equivalent CQ).

    The result is unique up to isomorphism; this function returns one
    concrete representative whose atoms are a subset of (an endomorphic image
    of) the original body.
    """
    current = query
    while True:
        folded = fold_once(current)
        if folded is None or len(folded) >= len(current):
            return current
        current = folded


def is_core(query: ConjunctiveQuery) -> bool:
    """Return ``True`` iff ``query`` admits no proper fold."""
    return fold_once(query) is None


def is_semantically_acyclic_unconstrained(query: ConjunctiveQuery) -> bool:
    """Semantic acyclicity in the absence of constraints.

    A CQ is equivalent to an acyclic CQ over *all* databases iff its core is
    acyclic (Section 1); this check is NP-complete and is implemented exactly
    that way.
    """
    return core(query).is_acyclic()
