"""The original round-based implementation of the existential 1-cover fixpoint.

This module preserves the first-generation arc-consistency computation of
Lemma 28: starting from all candidate images per left atom, it repeatedly
re-derives every atom's surviving image set from scratch — for each atom,
each image, and each neighbouring atom, a nested ``any(...)`` scan looks for
one agreeing image — until a full round changes nothing.  Every round
re-touches each (image, neighbour, neighbour-image) triple, so a cascade of
deletions costs ``O(rounds · Σ |images|²)`` where the worklist engine of
:mod:`repro.evaluation.cover_game` touches each support pair O(1) times.

The naive implementation lives with the tests and serves two purposes
(mirroring the dict-Yannakakis oracle in ``yannakakis_dict.py`` next to
it); pass :func:`existential_one_cover_naive` as the ``engine=`` of any
cover-game entry point to run it:

* it is the *performance baseline* of ``benchmarks/bench_cover_game_scaling``
  (the benchmark demonstrates the growth-rate gap per database doubling);
* it is an independent *oracle* for the differential tests — the two engines
  share no propagation code, so their agreement on randomized workloads is
  strong evidence for both.  In particular the naive engine keeps the
  pairwise assignment-merging agreement check (:func:`_agree_on_shared`)
  that the worklist engine replaces with shared-key projections.

One genuine bug of the original has been fixed here as well (and in the
worklist engine): constants in left atoms are now forced pebbles — a
homomorphism is the identity on constants (Section 2), so ``q() :- R(x, 3)``
must not be "covered" by ``D = {R(a, 5)}``.  Frozen variables (the ``c(x)``
constants of Lemma 1) keep mapping freely.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.datamodel import Atom, Constant, Instance, Term, is_frozen_constant
from repro.evaluation.cover_game import CoverGameResult


def _position_constraints_naive(
    atom_terms: Sequence[Term],
    left_tuple: Sequence[Term],
    right_tuple: Sequence[Term],
) -> Optional[List[Optional[Term]]]:
    """For each position of ``atom_terms``: the forced image, if any.

    A position is forced when its term equals some component of ``left_tuple``
    (then the image must be the corresponding component of ``right_tuple``)
    or when its term is a genuine (non-frozen) constant, which must map to
    itself.  If a term is forced to two different images, the atom has no
    valid image at all and ``None`` is returned by the caller's filter.
    """
    forced: List[Optional[Term]] = []
    for term in atom_terms:
        images = {
            right_tuple[index]
            for index, left_term in enumerate(left_tuple)
            if left_term == term
        }
        if isinstance(term, Constant) and not is_frozen_constant(term):
            images.add(term)
        if len(images) > 1:
            return None
        forced.append(next(iter(images)) if images else None)
    return forced


def _candidate_images_naive(
    atom: Atom,
    right: Instance,
    left_tuple: Sequence[Term],
    right_tuple: Sequence[Term],
) -> Set[Atom]:
    """Initial candidate images of ``atom``: same predicate, respecting pebbles
    and the functional reading of the atom (equal terms map to equal terms)."""
    forced = _position_constraints_naive(atom.terms, left_tuple, right_tuple)
    if forced is None:
        return set()
    candidates: Set[Atom] = set()
    for fact in right.atoms_with_predicate(atom.predicate):
        mapping: Dict[Term, Term] = {}
        ok = True
        for index, (source, target) in enumerate(zip(atom.terms, fact.terms)):
            if forced[index] is not None and target != forced[index]:
                ok = False
                break
            bound = mapping.get(source)
            if bound is None:
                mapping[source] = target
            elif bound != target:
                ok = False
                break
        if ok:
            candidates.add(fact)
    return candidates


def _agree_on_shared(
    left_a: Atom, image_a: Atom, left_b: Atom, image_b: Atom
) -> bool:
    """Do the two images agree on every term shared by the two left atoms?"""
    assignment: Dict[Term, Term] = {}
    for source, target in zip(left_a.terms, image_a.terms):
        existing = assignment.get(source)
        if existing is not None and existing != target:
            return False
        assignment[source] = target
    for source, target in zip(left_b.terms, image_b.terms):
        existing = assignment.get(source)
        if existing is not None and existing != target:
            return False
        assignment[source] = target
    return True


def existential_one_cover_naive(
    left: Instance,
    left_tuple: Sequence[Term],
    right: Instance,
    right_tuple: Sequence[Term],
) -> CoverGameResult:
    """Decide ``(left, left_tuple) ≡∃1c (right, right_tuple)`` (Lemma 28),
    by the classical round-based arc-consistency fixpoint."""
    if len(left_tuple) != len(right_tuple):
        raise ValueError("the two distinguished tuples must have the same length")

    left_atoms = left.sorted_atoms()
    strategy: Dict[Atom, Set[Atom]] = {
        atom: _candidate_images_naive(atom, right, left_tuple, right_tuple)
        for atom in left_atoms
    }
    if any(not images for images in strategy.values()):
        return CoverGameResult(False, strategy)

    # Only atom pairs that share a term constrain each other.
    def shares_terms(a: Atom, b: Atom) -> bool:
        return bool(set(a.terms) & set(b.terms))

    neighbours: Dict[Atom, List[Atom]] = {
        atom: [other for other in left_atoms if other is not atom and shares_terms(atom, other)]
        for atom in left_atoms
    }

    changed = True
    while changed:
        changed = False
        for atom in left_atoms:
            surviving: Set[Atom] = set()
            for image in strategy[atom]:
                supported = True
                for other in neighbours[atom]:
                    if not any(
                        _agree_on_shared(atom, image, other, other_image)
                        for other_image in strategy[other]
                    ):
                        supported = False
                        break
                if supported:
                    surviving.add(image)
            if surviving != strategy[atom]:
                strategy[atom] = surviving
                changed = True
                if not surviving:
                    return CoverGameResult(False, strategy)
    return CoverGameResult(True, strategy)
