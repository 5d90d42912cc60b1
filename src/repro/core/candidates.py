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

**The sub-instance lattice.**  Subqueries of ``q``, ``core(q)``, quotient
images and chase sub-instances are all head-preserving sub-instances ``J``
of ``chase(q, Σ)`` read back as queries.  :func:`fast_candidates` yields each
with its bitmask over the sorted chase atoms (:class:`SubInstanceLattice`);
the other candidates carry ``None``.  ``J ⊆_Σ q`` is upward-closed in ``J``,
so once the decider refutes it for one mask, every candidate below that
mask is skipped before its acyclicity test.  That test is the GYO kernel
(:func:`~repro.hypergraph.gyo_parents`) on the subset's vertex masks, run
before any query is built.  On hypergraphs of rank ≤ 2 cyclicity is
upward-closed too, so when every minimal image ``μ(q)`` is cyclic there,
:func:`acyclic_chase_subinstances` yields nothing without walking the
subsets.  ``docs/ARCHITECTURE.md`` gives both proofs.
"""

from __future__ import annotations

import itertools
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..datamodel import Atom, Constant, Instance, Term, Variable, is_frozen_constant
from ..hypergraph import (
    build_join_tree,
    compact_acyclic_query,
    gyo_parents,
    instance_connectors,
    query_connectors,
    vertex_masks,
)
from ..queries.cq import ConjunctiveQuery
from ..queries.core_minimization import core
from ..queries.homomorphism import find_homomorphism, homomorphisms


#: A candidate with its mask in a :class:`SubInstanceLattice`, or ``None``
#: when the candidate is not a sub-instance of the chase.
MaskedCandidate = Tuple[ConjunctiveQuery, Optional[int]]


class SubInstanceLattice:
    """Sub-instances of ``chase(q, Σ)`` as bitmasks, and the refuted ones.

    Bit ``i`` stands for atom ``i`` of ``chase_instance.sorted_atoms()``.
    ``freezing`` is the decision's map from the variables of ``q`` to their
    frozen constants: a subquery of ``q`` has the mask of its frozen atoms.
    Without it, queries over the variables of ``q`` have no mask.  The
    refuted masks form an antichain; :meth:`refuted` tells whether a mask
    lies below one of them.  :meth:`edge_masks` holds the hyperedge of each
    chase atom for the GYO kernel.
    """

    def __init__(
        self,
        chase_instance: Instance,
        freezing: Optional[Mapping[Variable, Term]] = None,
    ) -> None:
        self.instance = chase_instance
        self.atoms = chase_instance.sorted_atoms()
        self._bit = {atom: 1 << position for position, atom in enumerate(self.atoms)}
        self._freezing = dict(freezing or {})
        self._query_bit: Dict[Atom, Optional[int]] = {}
        self._refuted: List[int] = []
        self._edge_masks: Optional[List[int]] = None

    def edge_masks(self) -> List[int]:
        """The vertex mask of each chase atom under ``instance_connectors``,
        built on the first call."""
        if self._edge_masks is None:
            self._edge_masks = vertex_masks(self.atoms, instance_connectors)
        return self._edge_masks

    def is_acyclic(self, mask: int) -> bool:
        """Whether the sub-instance ``mask`` is acyclic."""
        edges = self.edge_masks()
        chosen: List[int] = []
        while mask:
            low = mask & -mask
            chosen.append(edges[low.bit_length() - 1])
            mask ^= low
        return gyo_parents(chosen) is not None

    def mask(self, atoms: Iterable[Atom]) -> Optional[int]:
        """The mask of ``atoms``, or ``None`` when one is not a chase atom."""
        mask = 0
        for atom in atoms:
            bit = self._bit.get(atom)
            if bit is None:
                return None
            mask |= bit
        return mask

    def query_bits(self, atoms: Sequence[Atom]) -> Optional[List[int]]:
        """The bit of each atom of ``q`` once frozen (``None`` if one has none)."""
        if not self._freezing:
            return None
        bits: List[int] = []
        for atom in atoms:
            if atom not in self._query_bit:
                self._query_bit[atom] = self._bit.get(atom.apply(self._freezing))
            bit = self._query_bit[atom]
            if bit is None:
                return None
            bits.append(bit)
        return bits

    def query_mask(self, query: ConjunctiveQuery) -> Optional[int]:
        """The mask of a query over the variables of ``q``: its frozen body."""
        bits = self.query_bits(query.body)
        return None if bits is None else sum(bits)

    def refute(self, mask: int) -> None:
        """Record that the sub-instance ``mask``, and so all below it, fails."""
        if self.refuted(mask):
            return
        self._refuted = [kept for kept in self._refuted if kept | mask != mask]
        self._refuted.append(mask)

    def refuted(self, mask: int) -> bool:
        """Whether ``mask`` lies below a refuted mask."""
        return any(mask | kept == kept for kept in self._refuted)


# ----------------------------------------------------------------------
# Generator 1: subqueries of a CQ
# ----------------------------------------------------------------------
def acyclic_subqueries(
    query: ConjunctiveQuery,
    min_atoms: int = 1,
    require_head: bool = True,
    lattice: Optional[SubInstanceLattice] = None,
) -> Iterator[ConjunctiveQuery]:
    """All acyclic subqueries of ``query`` (subsets of its atoms), largest first.

    Subqueries that lose a free variable are skipped when ``require_head``
    is set, because they cannot be equivalent to the original query.  With
    a ``lattice`` whose freezing map is that of ``query``, a subset below a
    refuted mask is skipped before either test.
    """
    atoms = list(query.body)
    head_variables = set(query.head)
    # Distinct atoms freeze to distinct chase atoms, so a subset's mask is
    # the sum of its bits.
    bits = None if lattice is None else lattice.query_bits(atoms)
    edges = vertex_masks(atoms, query_connectors)
    for size in range(len(atoms), min_atoms - 1, -1):
        for subset in itertools.combinations(range(len(atoms)), size):
            if bits is not None and lattice.refuted(sum(bits[i] for i in subset)):
                continue
            chosen = [atoms[i] for i in subset]
            if require_head:
                available: Set[Variable] = set()
                for atom in chosen:
                    available |= atom.variables()
                if not head_variables <= available:
                    continue
            if gyo_parents([edges[i] for i in subset]) is not None:
                yield ConjunctiveQuery(query.head, chosen, name=f"{query.name}_sub")


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
    lattice = SubInstanceLattice(instance)
    for candidate, _ in _quotient_images(query, lattice, answer, max_homomorphisms):
        yield candidate


def _quotient_images(
    query: ConjunctiveQuery,
    lattice: SubInstanceLattice,
    answer: Sequence[Constant],
    max_homomorphisms: int = 500,
) -> Iterator[MaskedCandidate]:
    """:func:`acyclic_quotients_in_instance` with masks; refuted images are skipped."""
    seed = {variable: value for variable, value in zip(query.head, answer)}
    count = 0
    for mapping in homomorphisms(query.body, lattice.instance, seed=seed):
        count += 1
        if count > max_homomorphisms:
            break
        image_atoms = sorted({atom.apply(mapping) for atom in query.body}, key=str)
        # ``mapping`` maps ``q`` into the lattice's instance, so the image
        # has a mask.
        mask = lattice.mask(image_atoms)
        if mask is None or lattice.refuted(mask) or not lattice.is_acyclic(mask):
            continue
        candidate = _instance_atoms_to_query(image_atoms, answer, name=f"{query.name}_img")
        if candidate is not None:
            yield candidate, mask


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
    lattice: SubInstanceLattice,
    seed: Dict[Term, Term],
    max_atoms: int,
    budget: int,
) -> Optional[List[int]]:
    """The minimal images ``μ(q)`` of head-preserving ``μ : q → chase``.

    An image is a mask in ``lattice``; only images of at most ``max_atoms``
    atoms are kept.  Returns ``None`` when more than ``budget``
    homomorphisms would have to be enumerated.
    """
    images: Set[int] = set()
    for count, mapping in enumerate(
        homomorphisms(query.body, lattice.instance, seed=seed), 1
    ):
        if count > budget:
            return None
        image = {atom.apply(mapping) for atom in query.body}
        if len(image) <= max_atoms:
            images.add(lattice.mask(image))
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

    When every chase atom has at most two connectors and every minimal
    image is cyclic, no subset admitting the homomorphism is acyclic, so
    the generator returns at once; the candidate space was complete, and
    no note is added.
    """
    lattice = SubInstanceLattice(chase_instance)
    for candidate, _ in _chase_subinstances(
        query, lattice, answer, max_atoms, max_candidates, notes
    ):
        yield candidate


def _chase_subinstances(
    query: ConjunctiveQuery,
    lattice: SubInstanceLattice,
    answer: Sequence[Constant],
    max_atoms: int,
    max_candidates: int = 5_000,
    notes: Optional[List[str]] = None,
) -> Iterator[MaskedCandidate]:
    """:func:`acyclic_chase_subinstances` with masks; refuted subsets are skipped."""
    atoms = lattice.atoms
    upper = min(max_atoms, len(atoms))
    seed: Dict[Term, Term] = {
        variable: value for variable, value in zip(query.head, answer)
    }
    images = _minimal_hom_images(query, lattice, seed, upper, max_candidates)
    if images is not None and _all_images_cyclic_on_a_graph(lattice, images):
        return
    bits = [1 << position for position in range(len(atoms))]
    inspected = 0
    for size in range(1, upper + 1):
        for positions, subset_bits in zip(
            itertools.combinations(range(len(atoms)), size),
            itertools.combinations(bits, size),
        ):
            inspected += 1
            if inspected > max_candidates:
                if notes is not None:
                    notes.append(
                        f"chase sub-instance enumeration stopped after "
                        f"{max_candidates} subsets; candidate space may be incomplete"
                    )
                return
            mask = sum(subset_bits)
            if images is not None and not any(image & mask == image for image in images):
                continue
            if lattice.refuted(mask) or not lattice.is_acyclic(mask):
                continue
            subset = [atoms[position] for position in positions]
            if images is None and find_homomorphism(
                query.body, Instance(subset), seed=seed
            ) is None:
                continue
            candidate = _instance_atoms_to_query(
                subset, answer, name=f"{query.name}_chase_sub"
            )
            if candidate is not None:
                yield candidate, mask


def _all_images_cyclic_on_a_graph(lattice: SubInstanceLattice, images: Sequence[int]) -> bool:
    """Whether every chase atom has ≤ 2 connectors and every image in
    ``images`` is cyclic.

    On a hypergraph of rank ≤ 2, α-acyclicity means that the 2-edges form
    a forest, and a graph holding a cycle is cyclic: so then every subset
    of the chase atoms that contains one of the ``images`` is cyclic.
    """
    if any(bin(edge).count("1") > 2 for edge in lattice.edge_masks()):
        return False
    return not any(lattice.is_acyclic(image) for image in images)


# ----------------------------------------------------------------------
# Generator 4: compact Lemma 9 extraction from an acyclic instance
# ----------------------------------------------------------------------
def compact_witnesses_from_acyclic_instance(
    query: ConjunctiveQuery,
    instance: Instance,
    answer: Sequence[Constant],
) -> Iterator[ConjunctiveQuery]:
    """Apply Lemma 9 to ``query`` over an acyclic instance, if possible."""
    try:
        join_tree = build_join_tree(instance.sorted_atoms(), instance_connectors)
        candidate = compact_acyclic_query(
            query, instance, answer=answer, join_tree=join_tree, name=f"{query.name}_compact"
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
    lattice: Optional[SubInstanceLattice] = None,
) -> Iterator[MaskedCandidate]:
    """The default candidate stream used by the deciders, with masks.

    Order: subqueries of ``q``; their cores; subqueries of rewriting
    disjuncts; quotients of ``q`` in the chase; Lemma 9 compact witnesses
    (when the chase happens to be acyclic); acyclic chase sub-instances,
    whose budget cut is reported to ``notes``.  Syntactic duplicates are
    dropped.

    Each candidate comes with its mask in ``lattice``, a lattice over
    ``chase_instance`` (``None`` for the rewriting-disjunct subqueries and
    the Lemma 9 witnesses, which are not sub-instances of the chase).
    Candidates below a mask the caller refutes while consuming the stream
    are skipped.  Without a ``lattice``, subqueries of ``q`` carry no mask.
    """
    if lattice is None:
        lattice = SubInstanceLattice(chase_instance)

    def stream() -> Iterator[MaskedCandidate]:
        for candidate in acyclic_subqueries(query, lattice=lattice):
            yield candidate, lattice.query_mask(candidate)
        core_query = core(query)
        core_mask = lattice.query_mask(core_query)
        if (core_mask is None or not lattice.refuted(core_mask)) and core_query.is_acyclic():
            yield core_query, core_mask
        for disjunct in rewriting_disjuncts:
            if len(disjunct.body) <= max(size_bound, len(query.body)):
                for candidate in acyclic_subqueries(disjunct):
                    yield candidate, None
        yield from _quotient_images(query, lattice, answer)
        for candidate in compact_witnesses_from_acyclic_instance(
            query, chase_instance, answer
        ):
            yield candidate, None
        yield from _chase_subinstances(
            query,
            lattice,
            answer,
            max_atoms=min(size_bound, 2 * len(query)),
            notes=notes,
        )

    seen: Set[ConjunctiveQuery] = set()
    for candidate, mask in stream():
        if candidate not in seen:
            seen.add(candidate)
            yield candidate, mask
