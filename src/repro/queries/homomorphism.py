"""Homomorphism search between sets of atoms and instances.

Homomorphisms are the work-horse of the whole library: query evaluation,
query containment (via Lemma 1), core computation, the chase applicability
test and the existential 1-cover game are all phrased in terms of finding a
mapping ``h`` that is the identity on constants and sends every atom of the
source into the target.

The search is a straightforward backtracking join with two standard
optimisations that keep it fast on the instance sizes used here:

* atoms are processed most-constrained-first (fewest unbound terms, rarest
  predicate first), recomputed greedily as the partial assignment grows;
* candidate target atoms are looked up through the per-predicate index of
  :class:`repro.datamodel.Instance`.
"""

from __future__ import annotations

from typing import (
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..datamodel import Atom, Constant, Instance, Term


#: A homomorphism is represented as a dictionary from terms to terms.  It is
#: always the identity on constants (this is enforced, never stored).
Homomorphism = Dict[Term, Term]


def _as_instance(target: object) -> Instance:
    if isinstance(target, Instance):
        return target
    return Instance(target)  # type: ignore[arg-type]


def _candidate_atoms(atom: Atom, target: Instance, assignment: Mapping[Term, Term]) -> Iterable[Atom]:
    """Return target atoms that could be the image of ``atom`` under the partial assignment.

    The instance's indexes keep insertion order and the filters below keep
    it too, so the search visits candidates, and finds its first
    homomorphism, in an order that does not depend on term identities.
    """
    candidates = target.atoms_with_predicate(atom.predicate)
    # Narrow down using any already-bound term (pick the most selective index).
    best: Optional[Collection[Atom]] = None
    anchor: Optional[Term] = None
    for term in atom.terms:
        image: Optional[Term] = None
        if isinstance(term, Constant):
            image = term
        elif term in assignment:
            image = assignment[term]
        if image is not None:
            narrowed = target.atoms_with_term(image)  # type: ignore[arg-type]
            if best is None or len(narrowed) < len(best):
                best, anchor = narrowed, image
    if best is None:
        return candidates
    if len(best) < len(candidates):
        predicate = atom.predicate
        return [
            fact for fact in best if fact.predicate is predicate or fact.predicate == predicate
        ]
    return [fact for fact in candidates if anchor in fact.terms]


def _bind(atom: Atom, image: Atom, assignment: Homomorphism) -> Optional[List[Term]]:
    """Extend ``assignment`` in place so that ``atom`` maps onto ``image``.

    Returns the *undo trail* — the source terms newly bound by this call —
    or ``None`` (with ``assignment`` left unchanged) when the atoms are
    incompatible.  Mutating a single shared dict and unbinding on backtrack
    avoids the per-candidate dict copy that used to dominate the search.
    """
    trail: List[Term] = []
    for source_term, target_term in zip(atom.terms, image.terms):
        if isinstance(source_term, Constant):
            if source_term != target_term:
                break
            continue
        bound = assignment.get(source_term)
        if bound is None:
            assignment[source_term] = target_term
            trail.append(source_term)
        elif bound != target_term:
            break
    else:
        return trail
    for term in trail:
        del assignment[term]
    return None


def _unbind(trail: List[Term], assignment: Homomorphism) -> None:
    """Undo a successful :func:`_bind` (pop the trailed bindings)."""
    for term in trail:
        del assignment[term]


def _order_atoms(atoms: Sequence[Atom], target: Instance) -> List[Atom]:
    """Static ordering: rarest predicate and most constants first."""
    def key(atom: Atom) -> Tuple[int, int]:
        fanout = len(target.atoms_with_predicate(atom.predicate))
        unbound = sum(1 for t in atom.terms if not isinstance(t, Constant))
        return (fanout, unbound)

    return sorted(atoms, key=key)


def homomorphisms(
    source: Iterable[Atom],
    target: object,
    seed: Optional[Mapping[Term, Term]] = None,
) -> Iterator[Homomorphism]:
    """Yield every homomorphism from ``source`` into ``target``.

    Args:
        source: atoms (may contain variables, constants and nulls; nulls on
            the source side are treated like variables, as in homomorphic
            embeddings of chase results).
        target: an :class:`Instance` or any iterable of ground atoms.
        seed: a partial mapping that every returned homomorphism must extend
            (used e.g. to pin the free variables of a query to a candidate
            answer tuple).

    Yields:
        dictionaries mapping the non-constant terms of ``source`` to terms of
        ``target``.  Constants are implicitly mapped to themselves.
    """
    target_instance = _as_instance(target)
    source_atoms = list(source)
    initial: Homomorphism = {}
    if seed:
        for key, value in seed.items():
            if isinstance(key, Constant):
                if key != value:
                    return
                continue
            initial[key] = value

    if not source_atoms:
        yield dict(initial)
        return

    ordered = _order_atoms(source_atoms, target_instance)
    yield from _search(ordered, 0, target_instance, initial)


def _search(
    ordered: Sequence[Atom], index: int, target: Instance, assignment: Homomorphism
) -> Iterator[Homomorphism]:
    """Extend ``assignment`` over ``ordered[index:]`` by backtracking."""
    if index == len(ordered):
        yield dict(assignment)
        return
    atom = ordered[index]
    for image in _candidate_atoms(atom, target, assignment):
        trail = _bind(atom, image, assignment)
        if trail is not None:
            try:
                yield from _search(ordered, index + 1, target, assignment)
            finally:
                # Unbind even when the consumer abandons the generator
                # mid-search, so the shared dict never leaks bindings.
                _unbind(trail, assignment)


def find_homomorphism(
    source: Iterable[Atom],
    target: object,
    seed: Optional[Mapping[Term, Term]] = None,
) -> Optional[Homomorphism]:
    """Return some homomorphism from ``source`` into ``target`` or ``None``."""
    for mapping in homomorphisms(source, target, seed=seed):
        return mapping
    return None


def has_homomorphism(
    source: Iterable[Atom],
    target: object,
    seed: Optional[Mapping[Term, Term]] = None,
) -> bool:
    """Return ``True`` iff a homomorphism from ``source`` into ``target`` exists."""
    return find_homomorphism(source, target, seed=seed) is not None


def compose(first: Mapping[Term, Term], second: Mapping[Term, Term]) -> Homomorphism:
    """Return the composition ``second ∘ first`` restricted to ``first``'s domain.

    Keys of ``first`` whose image is not in the domain of ``second`` keep
    their ``first`` image (``second`` acts as the identity there), matching
    the usual convention for composing partial homomorphisms.
    """
    result: Homomorphism = {}
    for key, value in first.items():
        result[key] = second.get(value, value)
    for key, value in second.items():
        result.setdefault(key, value)
    return result


def is_homomorphism(
    mapping: Mapping[Term, Term],
    source: Iterable[Atom],
    target: object,
) -> bool:
    """Check that ``mapping`` really is a homomorphism from ``source`` to ``target``."""
    target_instance = _as_instance(target)
    for key, value in mapping.items():
        if isinstance(key, Constant) and key != value:
            return False
    for atom in source:
        if atom.apply(dict(mapping)) not in target_instance:
            return False
    return True


def homomorphically_equivalent(left: Iterable[Atom], right: Iterable[Atom]) -> bool:
    """Return ``True`` iff the two sets of atoms map homomorphically into each other."""
    left_atoms = list(left)
    right_atoms = list(right)
    return has_homomorphism(left_atoms, right_atoms) and has_homomorphism(
        right_atoms, left_atoms
    )
