"""Candidate acyclic reformulations for the SemAc decision procedures.

The paper's procedures (Theorems 10/16/21) *guess* an acyclic CQ ``q'`` of
bounded size and verify ``q ≡_Σ q'``.  A deterministic implementation must
enumerate candidates; this module provides the candidate generators, layered
from cheap-and-targeted to exhaustive:

* **subqueries** of ``q`` — reformulations that drop atoms implied by the
  constraints (Example 1);
* **quotients** of ``q`` — homomorphic images of ``q`` inside (a bounded
  chase of) ``q`` itself, covering plain minimisation;
* **subqueries of rewriting disjuncts** — for UCQ-rewritable classes the
  witness of Proposition 15 lives inside a disjunct of the rewriting of
  ``q``;
* **acyclic sub-instances of the chase** that admit a head-preserving
  homomorphism from ``q`` — the "inside the chase" witnesses;
* **compact Lemma 9 extractions** from any acyclic instance encountered;
* an **exhaustive anti-unification enumeration** over sub-instances of the
  chase, used by the exhaustive decision mode on small inputs.

Every generator only *proposes* candidates; the deciders in
:mod:`repro.core.semantic_acyclicity` verify equivalence under ``Σ`` before
accepting one, so a positive answer is always certified.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..datamodel import Atom, Constant, Instance, Term, Variable, is_frozen_constant
from ..hypergraph import (
    Hypergraph,
    compact_acyclic_query,
    instance_connectors,
    is_acyclic_hypergraph,
    is_acyclic_instance,
)
from ..queries.cq import ConjunctiveQuery, query_from_instance
from ..queries.core_minimization import core
from ..queries.homomorphism import find_homomorphism, homomorphisms


def _dedup(candidates: Iterable[ConjunctiveQuery]) -> Iterator[ConjunctiveQuery]:
    """Drop syntactic duplicates (up to the hash/eq of ConjunctiveQuery)."""
    seen: Set[ConjunctiveQuery] = set()
    for candidate in candidates:
        if candidate not in seen:
            seen.add(candidate)
            yield candidate


# ----------------------------------------------------------------------
# Generator 1: subqueries of a CQ
# ----------------------------------------------------------------------
def acyclic_subqueries(
    query: ConjunctiveQuery,
    min_atoms: int = 1,
    require_head: bool = True,
) -> Iterator[ConjunctiveQuery]:
    """All acyclic subqueries of ``query`` (subsets of its atoms).

    Subqueries that lose a free variable are skipped when ``require_head``
    is set, because they cannot be equivalent to the original query.
    """
    atoms = list(query.body)
    head_variables = set(query.head)
    for size in range(len(atoms), min_atoms - 1, -1):
        for subset in itertools.combinations(range(len(atoms)), size):
            chosen = [atoms[i] for i in subset]
            if require_head:
                available: Set[Variable] = set()
                for atom in chosen:
                    available |= atom.variables()
                if not head_variables <= available:
                    continue
            candidate = ConjunctiveQuery(query.head, chosen, name=f"{query.name}_sub")
            if candidate.is_acyclic():
                yield candidate


# ----------------------------------------------------------------------
# Generator 2: quotients (homomorphic images) of a CQ inside an instance
# ----------------------------------------------------------------------
def acyclic_quotients_in_instance(
    query: ConjunctiveQuery,
    instance: Instance,
    answer: Sequence[Constant],
    max_homomorphisms: int = 500,
) -> Iterator[ConjunctiveQuery]:
    """Acyclic homomorphic images of ``query`` inside ``instance``.

    Every head-preserving homomorphism ``μ : q → instance`` induces the image
    query over the atoms ``μ(q)``; such an image always satisfies
    ``q ⊆_Σ image`` (the image sits inside the chase) and ``image ⊆ q``
    (``μ`` witnesses it), so acyclic images are certified witnesses.
    """
    seed = {variable: value for variable, value in zip(query.head, answer)}
    count = 0
    for mapping in homomorphisms(query.body, instance, seed=seed):
        count += 1
        if count > max_homomorphisms:
            break
        image_atoms = sorted({atom.apply(mapping) for atom in query.body}, key=str)
        candidate = _instance_atoms_to_query(image_atoms, answer, name=f"{query.name}_img")
        if candidate is not None and candidate.is_acyclic():
            yield candidate


def _instance_atoms_to_query(
    atoms: Sequence[Atom],
    answer: Sequence[Constant],
    name: str,
) -> Optional[ConjunctiveQuery]:
    """Turn ground atoms back into a CQ whose head corresponds to ``answer``.

    Frozen constants and nulls become variables; genuine constants survive.
    Returns ``None`` when some answer constant does not occur in the atoms.
    """
    renaming: Dict[Term, Term] = {}
    counter = 0
    for atom in atoms:
        for term in atom.terms:
            if term in renaming:
                continue
            if isinstance(term, Constant) and not is_frozen_constant(term):
                renaming[term] = term
            else:
                renaming[term] = Variable(f"Q{counter}")
                counter += 1
    head: List[Variable] = []
    for value in answer:
        image = renaming.get(value)
        if image is None or not isinstance(image, Variable):
            return None
        head.append(image)
    body = [atom.map_terms(lambda t: renaming[t]) for atom in atoms]
    return ConjunctiveQuery(head, body, name=name)


# ----------------------------------------------------------------------
# Generator 3: acyclic sub-instances of the chase admitting a hom from q
# ----------------------------------------------------------------------
def _minimal_hom_images(
    query: ConjunctiveQuery,
    instance: Instance,
    atoms: Sequence[Atom],
    seed: Dict[Term, Term],
    max_atoms: int,
    budget: int,
) -> Optional[List[int]]:
    """The minimal images ``μ(q)`` of head-preserving ``μ : q → instance``.

    An image is a bitmask over the positions of the instance's ``atoms``;
    only images of at most ``max_atoms`` atoms are kept.  Returns ``None``
    when more than ``budget`` homomorphisms would have to be enumerated.
    """
    bit = {atom: 1 << position for position, atom in enumerate(atoms)}
    images: Set[int] = set()
    for count, mapping in enumerate(homomorphisms(query.body, instance, seed=seed), 1):
        if count > budget:
            return None
        image = {atom.apply(mapping) for atom in query.body}
        if len(image) <= max_atoms:
            images.add(sum(bit[atom] for atom in image))
    minimal: List[int] = []
    for image in sorted(images, key=lambda mask: bin(mask).count("1")):
        if not any(kept & image == kept for kept in minimal):
            minimal.append(image)
    return minimal


def acyclic_chase_subinstances(
    query: ConjunctiveQuery,
    chase_instance: Instance,
    answer: Sequence[Constant],
    max_atoms: int,
    max_candidates: int = 5_000,
    notes: Optional[List[str]] = None,
) -> Iterator[ConjunctiveQuery]:
    """Acyclic sub-instances ``J ⊆ chase(q, Σ)`` with a head-preserving hom ``q → J``.

    Such a ``J``, read back as a query, always satisfies ``q ⊆_Σ J`` (it is a
    sub-instance of the chase) and ``J ⊆ q`` (the homomorphism witnesses it),
    so it is a certified witness whenever it is acyclic.

    The enumeration walks subsets of the chase atoms in increasing size and
    stops after ``max_candidates`` subsets have been inspected, appending a
    line to ``notes`` (when given) if that cut the enumeration short.  A
    subset admits the homomorphism iff it contains the image ``μ(q)`` of a
    head-preserving ``μ : q → chase``, so the subsets are tested against the
    minimal such images; when enumerating the images would take more than
    ``max_candidates`` homomorphisms, each subset is searched directly.
    """
    atoms = chase_instance.sorted_atoms()
    upper = min(max_atoms, len(atoms))
    seed: Dict[Term, Term] = {
        variable: value for variable, value in zip(query.head, answer)
    }
    images = _minimal_hom_images(
        query, chase_instance, atoms, seed, upper, max_candidates
    )
    bits = [1 << position for position in range(len(atoms))]
    inspected = 0
    for size in range(1, upper + 1):
        for subset, subset_bits in zip(
            itertools.combinations(atoms, size), itertools.combinations(bits, size)
        ):
            inspected += 1
            if inspected > max_candidates:
                if notes is not None:
                    notes.append(
                        f"chase sub-instance enumeration stopped after "
                        f"{max_candidates} subsets; candidate space may be incomplete"
                    )
                return
            if images is not None:
                mask = sum(subset_bits)
                if not any(image & mask == image for image in images):
                    continue
            elif find_homomorphism(query.body, Instance(subset), seed=seed) is None:
                continue
            # The hypergraph of ``Instance(subset)``, without building it:
            # GYO acyclicity does not depend on the order of the edges.
            if not is_acyclic_hypergraph(Hypergraph(subset, instance_connectors)):
                continue
            candidate = _instance_atoms_to_query(
                list(subset), answer, name=f"{query.name}_chase_sub"
            )
            if candidate is not None:
                yield candidate


# ----------------------------------------------------------------------
# Generator 4: compact Lemma 9 extraction from an acyclic instance
# ----------------------------------------------------------------------
def compact_witnesses_from_acyclic_instance(
    query: ConjunctiveQuery,
    instance: Instance,
    answer: Sequence[Constant],
) -> Iterator[ConjunctiveQuery]:
    """Apply Lemma 9 to ``query`` over an acyclic instance, if possible."""
    if not is_acyclic_instance(instance):
        return
    try:
        candidate = compact_acyclic_query(
            query, instance, answer=answer, name=f"{query.name}_compact"
        )
    except ValueError:
        return
    if candidate is not None:
        yield candidate


# ----------------------------------------------------------------------
# Generator 5: exhaustive anti-unification over chase sub-instances
# ----------------------------------------------------------------------
def _partitions(items: Sequence[object]) -> Iterator[List[List[object]]]:
    """All set partitions of ``items`` (Bell-number many)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _partitions(rest):
        # Put ``first`` into an existing block...
        for index in range(len(partition)):
            yield partition[:index] + [[first] + partition[index]] + partition[index + 1:]
        # ... or into its own block.
        yield [[first]] + partition


def generalisations_of_subinstance(
    atoms: Sequence[Atom],
    answer: Sequence[Constant],
    name: str = "gen",
    max_generalisations: int = 2_000,
) -> Iterator[ConjunctiveQuery]:
    """All anti-unifications of a ground sub-instance, read back as CQs.

    Every occurrence of a non-rigid term (null or frozen constant) may keep
    or lose its identity with the other occurrences of the same term; rigid
    constants stay rigid.  The answer terms keep at least one occurrence
    carrying the head variable (the block containing the "head occurrence").
    This generator underlies the exhaustive decision mode: any CQ that maps
    onto the sub-instance is a renaming of one of the generalisations.
    """
    # Collect occurrences of each non-rigid term.
    occurrences: Dict[Term, List[Tuple[int, int]]] = {}
    for atom_index, atom in enumerate(atoms):
        for arg_index, term in enumerate(atom.terms):
            if isinstance(term, Constant) and not is_frozen_constant(term):
                continue
            occurrences.setdefault(term, []).append((atom_index, arg_index))

    terms = sorted(occurrences, key=str)
    per_term_partitions: List[List[List[List[Tuple[int, int]]]]] = []
    for term in terms:
        per_term_partitions.append(list(_partitions(occurrences[term])))

    produced = 0
    for combination in itertools.product(*per_term_partitions):
        produced += 1
        if produced > max_generalisations:
            return
        # Assign a fresh variable per block.
        variable_of_position: Dict[Tuple[int, int], Variable] = {}
        block_of_term_for_answer: Dict[Term, List[Variable]] = {}
        counter = 0
        for term, partition in zip(terms, combination):
            block_variables: List[Variable] = []
            for block in partition:
                variable = Variable(f"G{counter}")
                counter += 1
                block_variables.append(variable)
                for position in block:
                    variable_of_position[position] = variable
            block_of_term_for_answer[term] = block_variables

        head: List[Variable] = []
        feasible = True
        for value in answer:
            blocks = block_of_term_for_answer.get(value)
            if not blocks:
                feasible = False
                break
            # The head variable is the first block of the answer term; other
            # blocks of the same term become ordinary (distinct) variables.
            head.append(blocks[0])
        if not feasible:
            continue

        body: List[Atom] = []
        for atom_index, atom in enumerate(atoms):
            terms_of_atom: List[Term] = []
            for arg_index, term in enumerate(atom.terms):
                if isinstance(term, Constant) and not is_frozen_constant(term):
                    terms_of_atom.append(term)
                else:
                    terms_of_atom.append(variable_of_position[(atom_index, arg_index)])
            body.append(Atom(atom.predicate, tuple(terms_of_atom)))
        yield ConjunctiveQuery(head, body, name=name)


def exhaustive_chase_candidates(
    query: ConjunctiveQuery,
    chase_instance: Instance,
    answer: Sequence[Constant],
    max_atoms: int,
    max_subsets: int = 20_000,
    max_generalisations_per_subset: int = 500,
) -> Iterator[ConjunctiveQuery]:
    """Exhaustive-mode candidates: generalisations of chase sub-instances.

    Any witness ``q'`` with ``q ⊆_Σ q'`` maps homomorphically into the chase;
    the candidates below are the acyclic generalisations of the sub-instances
    its image can occupy.  The enumeration is intentionally bounded; the
    decider reports whether the bounds were hit.
    """
    atoms = chase_instance.sorted_atoms()
    inspected = 0
    upper = min(max_atoms, len(atoms))
    for size in range(1, upper + 1):
        for subset in itertools.combinations(atoms, size):
            inspected += 1
            if inspected > max_subsets:
                return
            for candidate in generalisations_of_subinstance(
                list(subset),
                answer,
                name=f"{query.name}_gen",
                max_generalisations=max_generalisations_per_subset,
            ):
                if candidate.is_acyclic():
                    yield candidate


# ----------------------------------------------------------------------
# Convenience: the layered "fast" candidate stream
# ----------------------------------------------------------------------
def fast_candidates(
    query: ConjunctiveQuery,
    chase_instance: Instance,
    answer: Sequence[Constant],
    size_bound: int,
    rewriting_disjuncts: Sequence[ConjunctiveQuery] = (),
    notes: Optional[List[str]] = None,
) -> Iterator[ConjunctiveQuery]:
    """The default candidate stream used by the deciders.

    Order: subqueries of ``q``; their cores; subqueries of rewriting
    disjuncts; quotients of ``q`` in the chase; Lemma 9 compact witnesses
    (when the chase happens to be acyclic); acyclic chase sub-instances,
    whose budget cut is reported to ``notes``.
    """
    def stream() -> Iterator[ConjunctiveQuery]:
        yield from acyclic_subqueries(query)
        core_query = core(query)
        if core_query.is_acyclic():
            yield core_query
        for disjunct in rewriting_disjuncts:
            if len(disjunct.body) <= max(size_bound, len(query.body)):
                yield from acyclic_subqueries(disjunct)
        yield from acyclic_quotients_in_instance(query, chase_instance, answer)
        yield from compact_witnesses_from_acyclic_instance(
            query, chase_instance, answer
        )
        yield from acyclic_chase_subinstances(
            query,
            chase_instance,
            answer,
            max_atoms=min(size_bound, 2 * len(query)),
            notes=notes,
        )

    yield from _dedup(stream())
