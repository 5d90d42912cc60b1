"""The homomorphism-image index behind ``acyclic_chase_subinstances``.

A sub-instance ``J`` of ``chase(q, Σ)`` admits a head-preserving
homomorphism from ``q`` iff it contains the image ``μ(q)`` of some
head-preserving ``μ : q → chase(q, Σ)``.  The generator tests subsets
against the minimal such images instead of searching each subset; the
per-subset search survives as the oracle in ``tests/helpers``.  Both must
yield the identical candidate sequence, including where the subset budget
cuts the enumeration and where the image enumeration passes its budget and
the generator falls back to the per-subset search.

On a chase of rank ≤ 2 whose minimal images are all cyclic, the generator
yields nothing without walking the subsets: the GYO kernel runs on the
minimal images and on no subset of the walk.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.candidates as candidates_module
from repro.chase import chase_query
from repro.core.candidates import (
    SubInstanceLattice,
    _minimal_hom_images,
    acyclic_chase_subinstances,
)
from repro.core.semantic_acyclicity import SemAcConfig, decide_semantic_acyclicity_tgds
from repro.datamodel import Atom, Predicate, Variable
from repro.parser import parse_query, parse_tgd
from repro.queries import ConjunctiveQuery

from helpers.chase_subinstances import acyclic_chase_subinstances_per_subset


E, P = Predicate("E", 2), Predicate("P", 1)
VARIABLES = [Variable(name) for name in "uvwxy"]

#: Linear, guarded, full and non-terminating rules over ``E`` and ``P``.
TGD_POOL = [
    parse_tgd(text)
    for text in (
        "E(x, y) -> P(x)",
        "P(x) -> E(x, x)",
        "E(x, y) -> E(y, x)",
        "E(x, y), E(y, z) -> E(x, z)",
        "P(x) -> E(x, y)",
        "E(x, y) -> E(y, z)",
    )
]


@st.composite
def queries(draw):
    body = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            body.append(Atom(E, (draw(st.sampled_from(VARIABLES)), draw(st.sampled_from(VARIABLES)))))
        else:
            body.append(Atom(P, (draw(st.sampled_from(VARIABLES)),)))
    present = sorted({v for atom in body for v in atom.variables()}, key=str)
    head = draw(st.lists(st.sampled_from(present), max_size=2, unique=True))
    return ConjunctiveQuery(head, body, name="h")


def both_streams(query, tgds, max_atoms, max_candidates, chase_steps=25):
    result, freezing = chase_query(query, tgds, max_steps=chase_steps)
    answer = tuple(freezing[v] for v in query.head)
    indexed = list(
        acyclic_chase_subinstances(
            query, result.instance, answer, max_atoms, max_candidates=max_candidates
        )
    )
    oracle = list(
        acyclic_chase_subinstances_per_subset(
            query, result.instance, answer, max_atoms, max_candidates=max_candidates
        )
    )
    return indexed, oracle


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    queries(),
    st.lists(st.sampled_from(TGD_POOL), min_size=1, max_size=3, unique=True),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([1, 3, 10, 40, 5_000]),
)
def test_indexed_stream_equals_the_per_subset_oracle(query, tgds, max_atoms, max_candidates):
    indexed, oracle = both_streams(query, tgds, max_atoms, max_candidates)
    assert [str(c) for c in indexed] == [str(c) for c in oracle]
    assert indexed == oracle


def count_per_subset_searches(monkeypatch):
    calls = []
    original = candidates_module.find_homomorphism

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(candidates_module, "find_homomorphism", counting)
    return calls


def test_truncation_at_a_small_subset_budget(monkeypatch):
    query = parse_query("q(x) :- E(x, y), E(y, z), E(z, x)")
    tgds = [parse_tgd("E(x, y) -> P(x)"), parse_tgd("P(x) -> E(x, x)")]
    calls = count_per_subset_searches(monkeypatch)
    full, _ = both_streams(query, tgds, max_atoms=4, max_candidates=5_000)
    # The triangle has few homomorphisms into its chase: the index served
    # the full enumeration without a single per-subset search.
    assert calls == [] and full
    for budget in (30, 100, 300):
        indexed, oracle = both_streams(query, tgds, max_atoms=4, max_candidates=budget)
        assert indexed == oracle
        assert indexed == full[: len(indexed)]
    assert calls == []
    assert both_streams(query, tgds, max_atoms=4, max_candidates=30)[0] != full


def test_fallback_when_image_enumeration_passes_its_budget(monkeypatch):
    # The chase closes the triangle into the full E-relation on its three
    # frozen variables, so the query has 3^3 = 27 homomorphisms into it:
    # more than a budget of 20, fewer than one of 500.
    query = parse_query("q() :- E(x, y), E(y, z), E(z, x), E(x, x)")
    tgds = [parse_tgd("E(x, y) -> E(y, x)"), parse_tgd("E(x, y), E(y, z) -> E(x, z)")]
    calls = count_per_subset_searches(monkeypatch)
    indexed, oracle = both_streams(query, tgds, max_atoms=4, max_candidates=20, chase_steps=200)
    assert indexed == oracle
    assert len(calls) > 0
    calls.clear()
    indexed, oracle = both_streams(query, tgds, max_atoms=4, max_candidates=500, chase_steps=200)
    assert indexed == oracle
    assert calls == []


def test_subset_budget_cut_is_reported_in_the_decision_notes():
    # An N-cycle with pendants under a rule that cannot make it acyclic:
    # every candidate fails, so the search runs into the subset budget.  The
    # ternary T-atom gives the chase rank 3, where a cyclic image does not
    # rule out an acyclic superset, so the subsets are walked.
    query = parse_query(
        "q(a) :- N(a, b), N(b, c), N(c, d), N(d, e), N(e, a), N(a, p0), N(p1, b), "
        "T(b, p0, p2)"
    )
    decision = decide_semantic_acyclicity_tgds(
        query, [parse_tgd("N(x, y) -> T(x, y, z)")], SemAcConfig()
    )
    assert not decision.semantically_acyclic
    assert any("stopped after 5000 subsets" in note for note in decision.notes)


def test_uncut_enumeration_adds_no_note():
    query = parse_query("q() :- E(x, y), E(y, z), E(z, x)")
    tgds = [parse_tgd("E(x, y) -> P(x)")]
    result, _ = chase_query(query, tgds)
    notes = []
    assert list(acyclic_chase_subinstances(query, result.instance, (), 6, notes=notes)) == []
    assert notes == []


def test_rank_two_chase_with_only_cyclic_images_is_not_walked(monkeypatch):
    # Every chase atom has at most two connectors, and every homomorphism
    # image of the cycle is cyclic: no subset can be an acyclic candidate.
    query = parse_query(
        "q(a) :- N(a, b), N(b, c), N(c, d), N(d, e), N(e, a), N(a, p0), N(p1, b)"
    )
    result, freezing = chase_query(query, [parse_tgd("N(x, y) -> B(x)")])
    answer = (freezing[Variable("a")],)
    lattice = SubInstanceLattice(result.instance)
    images = _minimal_hom_images(query, lattice, dict(zip(query.head, answer)), 14, 5_000)
    image_edges = sorted(
        sorted(lattice.edge_masks()[p] for p in range(len(lattice.atoms)) if image >> p & 1)
        for image in images
    )
    kernel_calls = []
    original = candidates_module.gyo_parents

    def counting(masks):
        kernel_calls.append(sorted(masks))
        return original(masks)

    monkeypatch.setattr(candidates_module, "gyo_parents", counting)
    notes = []
    assert list(acyclic_chase_subinstances(query, result.instance, answer, 14, notes=notes)) == []
    assert notes == []
    # The kernel ran once per minimal image, and on no subset of the walk.
    assert images and sorted(kernel_calls) == image_edges
    # The per-subset walk finds nothing either, up to its cut.
    assert list(acyclic_chase_subinstances_per_subset(query, result.instance, answer, 14)) == []
