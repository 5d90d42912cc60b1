"""The existential 1-cover game (Section 7, after Chen & Dalmau [13]).

``(I, t̄) ≡∃1c (I', t̄')`` holds when the duplicator wins the existential
1-cover game on the two structures.  Lemma 28 characterises the relation
through the existence of a mapping ``H`` that assigns to every atom ``T(ā)``
of ``I`` a non-empty set of atoms ``T(f(ā))`` of ``I'`` such that

1. pebbles are forced: if a component of ``ā`` is the ``j``-th component of
   ``t̄``, its image must be the ``j``-th component of ``t̄'`` — and since
   every ``f`` in Lemma 28 is (a fragment of) a homomorphism, a component of
   ``ā`` that is a *constant* is a pebble too: homomorphisms are the
   identity on ``C`` (Section 2), so its image must be the constant itself.
   Frozen variables (the ``c(x)`` constants of Lemma 1, see
   :func:`repro.datamodel.freeze_variable`) encode query variables and stay
   free.  The historical implementation omitted the constant pebbles, which
   made ``q() :- R(x, 3)`` "covered" by ``D = {R(a, 5)}``.
2. the choices are *forward consistent*: for every chosen image of ``T(ā)``
   and every atom ``S(b̄)`` of ``I`` there is a chosen image of ``S(b̄)``
   agreeing on all shared elements.

The greatest such ``H`` exists and is computed here in the style of the
AC-4 arc-consistency algorithm (within the polynomial bound of
Proposition 29, and near-linearly on bounded-degeneracy inputs — cf. the
acyclicity-sensitive bounds of Brault-Baron):

* **Candidate images** per left atom are materialised with single-pass
  scans of the right instance, bucketed by the atom's forced pebble
  positions (the same constant-selection discipline as an atom scan of
  :class:`repro.evaluation.batch.ScanCache`); atoms sharing a predicate
  and pebble-position signature share one index.
* **Supports** are counted per shared-term projection key: two left atoms
  constrain each other exactly on the terms they share, and — because every
  candidate image is internally consistent (equal source terms map to equal
  targets) — two images agree on the shared terms iff their projections on
  the first occurrences of those terms are equal.  For each neighbouring
  pair the candidate images are grouped by that key, so an image's support
  count in a neighbour is the size of one bucket.
* **Deletions propagate through a worklist**: removing an image decrements
  one counter per neighbour; a counter hitting zero kills exactly the
  bucket it guards.  Every (image, neighbour) support pair is touched O(1)
  times overall, instead of once per round of the classical fixpoint.

The round-based reference implementation lives under ``tests/helpers/``
as the differential oracle and benchmark baseline
(``benchmarks/bench_cover_game_scaling.py`` shows the growth-rate gap).
Every cover-game entry point — here and in
:mod:`repro.evaluation.semacyclic_eval` — takes the fixpoint as
``engine=``, a :data:`CoverEngine` callable defaulting to this module's
AC-4 propagator :func:`existential_one_cover`.  The key consequences used by
the paper are Proposition 30 (winning the game transfers acyclic-CQ
answers) and Proposition 31 / Lemma 32 (for semantically acyclic queries,
and under guarded tgds, the game decides evaluation).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..datamodel import (
    Atom,
    Constant,
    GroundTerm,
    Instance,
    Term,
    Variable,
    is_frozen_constant,
)
from ..queries.cq import ConjunctiveQuery


@dataclass
class CoverGameResult:
    """Outcome of the existential 1-cover fixpoint computation."""

    duplicator_wins: bool
    #: The greatest consistent strategy: for each left atom, its surviving images.
    strategy: Dict[Atom, Set[Atom]]


#: Signature of a cover-game fixpoint (the ``engine=`` of the entry points).
CoverEngine = Callable[
    [Instance, Sequence[Term], Instance, Sequence[Term]], CoverGameResult
]


def _position_constraints(
    atom_terms: Sequence[Term],
    left_tuple: Sequence[Term],
    right_tuple: Sequence[Term],
) -> Optional[List[Optional[Term]]]:
    """For each position of ``atom_terms``: the forced image, if any.

    A position is forced when its term equals some component of ``left_tuple``
    (then the image must be the corresponding component of ``right_tuple``) or
    when its term is a genuine constant (then the image must be the constant
    itself — homomorphisms are the identity on ``C``; frozen variables are
    exempt, they stand for query variables).  If a term is forced to two
    different images the atom has no valid image at all and ``None`` is
    returned.
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


#: Cache of one pass over the right instance: for a predicate and a tuple of
#: forced positions, the facts grouped by their projection on those positions.
_BucketIndex = Dict[Tuple[object, Tuple[int, ...]], Dict[Tuple[Term, ...], List[Atom]]]


def _candidate_images(
    atom: Atom,
    right: Instance,
    left_tuple: Sequence[Term],
    right_tuple: Sequence[Term],
    index_cache: Optional[_BucketIndex] = None,
) -> List[Atom]:
    """Initial candidate images of ``atom``: same predicate, respecting pebbles
    (including constant pebbles) and the functional reading of the atom (equal
    terms map to equal terms).

    The right instance is scanned once per (predicate, forced-position
    signature) and bucketed by the projection on the forced positions; the
    bucket index is shared through ``index_cache`` so left atoms with the
    same signature reuse the pass.
    """
    forced = _position_constraints(atom.terms, left_tuple, right_tuple)
    if forced is None:
        return []

    forced_positions = tuple(
        position for position, image in enumerate(forced) if image is not None
    )
    # Repeated-term positions beyond the first become equality checks.
    first_position: Dict[Term, int] = {}
    equality_checks: List[Tuple[int, int]] = []
    for position, term in enumerate(atom.terms):
        if term in first_position:
            equality_checks.append((position, first_position[term]))
        else:
            first_position[term] = position

    cache_key = (atom.predicate, forced_positions)
    index = None if index_cache is None else index_cache.get(cache_key)
    if index is None:
        index = {}
        for fact in right.atoms_with_predicate(atom.predicate):
            bucket_key = tuple(fact.terms[position] for position in forced_positions)
            index.setdefault(bucket_key, []).append(fact)
        if index_cache is not None:
            index_cache[cache_key] = index

    wanted = tuple(forced[position] for position in forced_positions)
    bucket = index.get(wanted, [])
    if not equality_checks:
        return list(bucket)
    return [
        fact
        for fact in bucket
        if all(fact.terms[p] == fact.terms[q] for p, q in equality_checks)
    ]


def _first_positions(atom: Atom, terms: Sequence[Term]) -> Tuple[int, ...]:
    """The first position in ``atom`` of each of ``terms`` (all must occur)."""
    return tuple(atom.terms.index(term) for term in terms)


def existential_one_cover(
    left: Instance,
    left_tuple: Sequence[Term],
    right: Instance,
    right_tuple: Sequence[Term],
) -> CoverGameResult:
    """Decide ``(left, left_tuple) ≡∃1c (right, right_tuple)`` (Lemma 28).

    AC-4-style worklist propagation: per neighbouring atom pair, candidate
    images are grouped by their shared-term projection key and supports are
    counted per key, so each deletion does O(degree) counter updates and the
    whole fixpoint touches each (image, neighbour) support pair O(1) times.
    """
    if len(left_tuple) != len(right_tuple):
        raise ValueError("the two distinguished tuples must have the same length")

    left_atoms = left.sorted_atoms()
    count = len(left_atoms)
    index_cache: _BucketIndex = {}
    alive: List[Set[Atom]] = [
        set(_candidate_images(atom, right, left_tuple, right_tuple, index_cache))
        for atom in left_atoms
    ]

    def snapshot() -> Dict[Atom, Set[Atom]]:
        return {atom: set(images) for atom, images in zip(left_atoms, alive)}

    if any(not images for images in alive):
        return CoverGameResult(False, snapshot())

    # ------------------------------------------------------------------
    # Pair indexes: for each ordered neighbouring pair (i, j), the first
    # occurrence positions of the shared terms in atom i, the images of i
    # grouped by their projection on those positions, and — per key — the
    # number of alive images of j projecting to the same key (the supports
    # available to an i-image with that key).
    # ------------------------------------------------------------------
    term_sets = [set(atom.terms) for atom in left_atoms]
    neighbours: Dict[int, List[int]] = {i: [] for i in range(count)}
    key_positions: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    buckets: Dict[Tuple[int, int], Dict[Tuple[Term, ...], List[Atom]]] = {}
    supports: Dict[Tuple[int, int], Dict[Tuple[Term, ...], int]] = {}

    for i in range(count):
        seen: Set[Term] = set()
        shared_order = [
            term
            for term in left_atoms[i].terms
            if not (term in seen or seen.add(term))
        ]
        for j in range(i + 1, count):
            shared = [term for term in shared_order if term in term_sets[j]]
            if not shared:
                continue
            neighbours[i].append(j)
            neighbours[j].append(i)
            for source, target in ((i, j), (j, i)):
                positions = _first_positions(left_atoms[source], shared)
                key_positions[(source, target)] = positions
                grouped: Dict[Tuple[Term, ...], List[Atom]] = {}
                for image in alive[source]:
                    key = tuple(image.terms[p] for p in positions)
                    grouped.setdefault(key, []).append(image)
                buckets[(source, target)] = grouped
            supports[(i, j)] = {
                key: len(images) for key, images in buckets[(j, i)].items()
            }
            supports[(j, i)] = {
                key: len(images) for key, images in buckets[(i, j)].items()
            }

    # Seed the worklist with every image whose key has no counterpart at all
    # in some neighbour (support count zero from the start).
    worklist: deque = deque()
    for (i, j), grouped in buckets.items():
        available = supports[(i, j)]
        for key, images in grouped.items():
            if key not in available:
                for image in images:
                    worklist.append((i, image))

    while worklist:
        i, image = worklist.popleft()
        if image not in alive[i]:
            continue  # already deleted through another neighbour
        alive[i].remove(image)
        if not alive[i]:
            return CoverGameResult(False, snapshot())
        for j in neighbours[i]:
            key = tuple(image.terms[p] for p in key_positions[(i, j)])
            remaining = supports[(j, i)]
            remaining[key] = remaining.get(key, 0) - 1
            if remaining[key] == 0:
                # The deleted image was the last support for every j-image
                # sharing this key: kill the bucket it guarded.
                for victim in buckets[(j, i)].get(key, ()):
                    if victim in alive[j]:
                        worklist.append((j, victim))

    return CoverGameResult(True, snapshot())


def query_covers_database(
    query: ConjunctiveQuery,
    database: Instance,
    answer: Sequence[GroundTerm] = (),
    *,
    engine: CoverEngine = existential_one_cover,
) -> bool:
    """Decide ``(q, x̄) ≡∃1c (D, t̄)``.

    The query is read as an instance whose elements are its own variables and
    constants (the paper's slight abuse of notation in Proposition 31); the
    distinguished tuple on the left is the tuple of free variables.  Variables
    are frozen into ``c(x)`` constants so they stay free in the game, while
    genuine query constants act as forced pebbles.
    """
    left = Instance(atom.map_terms(_variable_as_element) for atom in query.body)
    left_tuple = [_variable_as_element(v) for v in query.head]
    return engine(left, left_tuple, database, list(answer)).duplicator_wins


def _variable_as_element(term: Term) -> Term:
    """Turn query variables into frozen constants so they can live in an instance."""
    from ..datamodel import freeze_variable

    if isinstance(term, Variable):
        return freeze_variable(term)
    return term


def instance_covers_database(
    left: Instance,
    left_tuple: Sequence[GroundTerm],
    database: Instance,
    answer: Sequence[GroundTerm] = (),
    *,
    engine: CoverEngine = existential_one_cover,
) -> bool:
    """Decide ``(I, t̄) ≡∃1c (D, t̄')`` for arbitrary instances (e.g. chases)."""
    return engine(left, list(left_tuple), database, list(answer)).duplicator_wins
