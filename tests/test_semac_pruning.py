"""The pruned reformulation search against the unpruned reference.

The tgd decider skips sub-instances of the chase below a refuted one and
skips the chase sub-instance walk when every homomorphism image of ``q`` in
a rank-2 chase is cyclic.  Only candidates certain to fail are skipped, so
the verdict, the witness and the method must equal those of the reference
in :mod:`helpers.unpruned_semac`, which verifies every candidate, and
``candidates_checked`` may only fall.  Chase budgets are small enough that
some chases are truncated, where an inconclusive check must not prune.
The cycles run under ``N(x, y) -> T(x, y, z)``, a rule that cannot make
them acyclic but whose three-variable head keeps the core from deciding
alone, so the search runs.
The budget tests pin ``candidates_checked`` to the number of candidates
actually verified when the candidate budget cuts the search.
"""

import gc

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.core.semantic_acyclicity as semac_module
from repro.containment.constrained import ContainmentOutcome
from repro.core.semantic_acyclicity import (
    SemAcConfig,
    _core_decides,
    _reachable_tgds,
    _strategy_for,
    _TgdVerifier,
    decide_semantic_acyclicity,
    decide_semantic_acyclicity_tgds,
)
from repro.datamodel import Atom, Predicate, Variable
from repro.parser import parse_query, parse_tgd
from repro.queries import ConjunctiveQuery, find_homomorphism
from repro.workloads.paper_examples import example4_chased_shape, example4_key

from helpers.unpruned_semac import decide_tgds_unpruned


E, P, T = Predicate("E", 2), Predicate("P", 1), Predicate("T", 3)
VARIABLES = [Variable(name) for name in "uvwxy"]

#: Rules per decidable class, over the predicates of the drawn queries.
#: ``E(x, y) -> E(y, w)`` never terminates, so its chases are truncated.
TGD_POOLS = {
    "guarded": [
        parse_tgd(text)
        for text in (
            "E(x, y) -> P(x)",
            "P(x) -> E(x, x)",
            "E(x, y) -> E(y, x)",
            "E(x, y) -> E(y, w)",
            "T(x, y, z) -> E(x, y)",
            "E(x, y), P(y) -> T(x, y, w)",
        )
    ],
    "non-recursive": [
        parse_tgd(text)
        for text in (
            "E(x, y), E(y, z) -> T(x, y, z)",
            "T(x, y, z) -> P(z)",
            "E(x, y), E(y, z) -> S(z, x)",
        )
    ],
    "sticky": [
        parse_tgd(text)
        for text in (
            "E(x, y), T(y, z, w) -> T(y, x, u)",
            "E(x, y) -> P(x)",
        )
    ],
}


@st.composite
def cyclic_queries(draw):
    """An E-cycle of length 3 or 4 plus up to two random atoms."""
    length = draw(st.integers(min_value=3, max_value=4))
    cycle = VARIABLES[:length]
    body = [Atom(E, (cycle[i], cycle[(i + 1) % length])) for i in range(length)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        shape = draw(st.sampled_from([E, P, T]))
        body.append(
            Atom(shape, tuple(draw(st.sampled_from(VARIABLES)) for _ in range(shape.arity)))
        )
    present = sorted({v for atom in body for v in atom.variables()}, key=str)
    head = draw(st.lists(st.sampled_from(present), max_size=2, unique=True))
    return ConjunctiveQuery(head, body, name="h")


@st.composite
def tgd_sets(draw):
    label = draw(st.sampled_from(sorted(TGD_POOLS)))
    tgds = draw(st.lists(st.sampled_from(TGD_POOLS[label]), min_size=1, max_size=3, unique=True))
    assume(_strategy_for(tgds)[1] == label)
    return tgds


def outcome_of(decision):
    witness = None if decision.witness is None else str(decision.witness)
    return decision.semantically_acyclic, witness, decision.method


def assert_agrees_with_reference(query, tgds, config):
    pruned = decide_semantic_acyclicity_tgds(query, tgds, config)
    reference = decide_tgds_unpruned(query, tgds, config)
    assert outcome_of(pruned) == outcome_of(reference)
    assert pruned.candidates_checked <= reference.candidates_checked
    return pruned, reference


def test_first_homomorphism_does_not_depend_on_term_identity():
    # Terms hash by identity, so each round below re-interns the chase's
    # terms under new identities (the garbage shifts the allocator).  The
    # search must still find the same first homomorphism, and the decider
    # the same Lemma 9 witness, or the two deciders could disagree.
    tgds = [parse_tgd("E(x, y), E(y, z) -> T(x, y, z)")]
    garbage, images, witnesses = [], set(), set()
    for round_ in range(12):
        garbage.append([object() for _ in range(37 * round_ + 1)])
        gc.collect()
        query = parse_query("h() :- E(u, v), E(v, w), E(w, u), E(x, y)")
        chase_result, freezing = semac_module.chase_query(query, tgds)
        mapping = find_homomorphism(query.body, chase_result.instance)
        images.add(tuple(sorted((str(k), str(v)) for k, v in mapping.items())))
        decision = decide_semantic_acyclicity_tgds(query, tgds, SemAcConfig(chase_max_steps=6))
        witnesses.add(outcome_of(decision))
        del query, chase_result, freezing, mapping, decision
    assert len(images) == 1
    assert witnesses == {
        (
            True,
            "h_compact() :- E(W0, W1) ∧ E(W1, W2) ∧ E(W2, W0) ∧ T(W0, W1, W2) ∧ T(W2, W0, W1)",
            "fast/non-recursive",
        )
    }


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cyclic_queries(), tgd_sets(), st.sampled_from([6, 30]))
def test_pruned_decider_agrees_with_the_unpruned_reference(query, tgds, steps):
    # Where the core decides alone there is no search to compare.
    assume(not _core_decides(query, _reachable_tgds(query, tgds)))
    assert_agrees_with_reference(query, tgds, SemAcConfig(chase_max_steps=steps))


@pytest.mark.parametrize(
    "query_text, tgd_texts, steps",
    [
        # Every candidate fails and the chase has rank 2: the lattice prunes
        # the subqueries and the rank-2 rule skips the sub-instance walk.
        (
            "q(a) :- N(a, b), N(b, c), N(c, d), N(d, e), N(e, a), N(a, p0), N(p1, b)",
            ["N(x, y) -> T(x, y, z)"],
            5_000,
        ),
        # Rank 3: the sub-instance walk runs, below the refuted masks.
        (
            "q(a) :- N(a, b), N(b, c), N(c, d), N(d, a), T(a, c, e)",
            ["N(x, y) -> T(x, y, z)"],
            5_000,
        ),
        # A chase that never terminates: checks on its prefixes are UNKNOWN.
        ("q(x) :- E(x, y), E(y, z), E(z, x)", ["E(x, y) -> E(y, w)", "E(x, y) -> A(x)"], 300),
        ("q(x) :- E(x, y), E(y, z), E(z, x), E(x, u)", ["E(x, y) -> E(y, w)"], 40),
        # Found after failures: the witness must be the same one.
        ("q() :- E(x, y), E(y, z), E(z, x), E(x, w)", ["E(x, y) -> A(x)", "A(x) -> E(x, x)"], 5_000),
    ],
)
def test_named_cases_agree_with_the_reference(query_text, tgd_texts, steps):
    query = parse_query(query_text)
    tgds = [parse_tgd(text) for text in tgd_texts]
    assert_agrees_with_reference(query, tgds, SemAcConfig(chase_max_steps=steps))


def test_marked_cycle_checks_only_the_maximal_subqueries():
    query = parse_query(
        "q(a) :- N(a, b), N(b, c), N(c, d), N(d, e), N(e, a), N(a, p0), N(p1, b)"
    )
    tgds = [parse_tgd("N(x, y) -> T(x, y, z)")]
    pruned, reference = assert_agrees_with_reference(query, tgds, SemAcConfig())
    # Dropping one of the five cycle edges gives the maximal acyclic
    # subqueries; every other acyclic subquery lies below one of them.
    assert pruned.candidates_checked == 5
    assert reference.candidates_checked > 5 * pruned.candidates_checked


def test_inconclusive_checks_prune_nothing(monkeypatch):
    # With every ``candidate ⊆_Σ q`` inconclusive, nothing is refuted: the
    # decider verifies exactly the candidates the reference verifies.
    monkeypatch.setattr(
        semac_module, "contained_under_tgds", lambda *args, **kwargs: ContainmentOutcome.UNKNOWN
    )
    query = parse_query("q(a) :- N(a, b), N(b, c), N(c, d), N(d, a), N(a, p0), N(p1, b)")
    tgds = [parse_tgd("N(x, y) -> T(x, y, z)")]
    pruned, reference = assert_agrees_with_reference(query, tgds, SemAcConfig())
    assert pruned.candidates_checked == reference.candidates_checked > 4
    assert any("inconclusive" in note for note in pruned.notes)


def test_verifier_reports_each_check_three_valued():
    query = parse_query("q(x) :- R(x, y)")
    tgds = [parse_tgd("R(x, y) -> R(y, z)")]
    steps = 5
    chase_result, freezing = semac_module.chase_query(query, tgds, max_steps=steps)
    verifier = _TgdVerifier(
        query, tgds, SemAcConfig(chase_max_steps=steps), "chase", chase_result,
        (freezing[Variable("x")],),
    )
    # A miss on the truncated chase is UNKNOWN; a later hit still reads TRUE.
    miss = verifier.query_contained_in_candidate(parse_query("q(a) :- S(a)"))
    hit = verifier.query_contained_in_candidate(parse_query("q(a) :- R(a, b), R(b, c)"))
    assert (miss, hit) == (ContainmentOutcome.UNKNOWN, ContainmentOutcome.TRUE)
    assert verifier.saw_unknown
    # ``q(a) :- R(a, b)`` is equivalent; ``q(a) :- R(a, a)`` does not hold on
    # the truncated chase of q, so its first direction is UNKNOWN.
    assert verifier.equivalent(parse_query("q(a) :- R(a, b)")) is ContainmentOutcome.TRUE
    assert verifier.equivalent(parse_query("q(a) :- R(a, a)")) is ContainmentOutcome.UNKNOWN


# ----------------------------------------------------------------------
# The candidate budget
# ----------------------------------------------------------------------
def count_tgd_verifications(monkeypatch):
    calls = []
    original = _TgdVerifier.equivalent

    def counting(self, candidate):
        calls.append(candidate)
        return original(self, candidate)

    monkeypatch.setattr(_TgdVerifier, "equivalent", counting)
    return calls


def count_egd_verifications(monkeypatch, query):
    # The egd decider checks ``q ⊆_Σ candidate`` first, once per candidate.
    calls = []
    original = semac_module.contained_under_egds

    def counting(left, right, egds):
        if left is query:
            calls.append(right)
        return original(left, right, egds)

    monkeypatch.setattr(semac_module, "contained_under_egds", counting)
    return calls


@pytest.mark.parametrize("exhaustive, budget", [(False, 2), (True, 12)])
def test_tgd_budget_cut_counts_the_candidates_verified(monkeypatch, exhaustive, budget):
    calls = count_tgd_verifications(monkeypatch)
    query = parse_query("q(a) :- N(a, b), N(b, c), N(c, d), N(d, a), N(a, p0)")
    config = SemAcConfig(max_candidates_checked=budget, exhaustive=exhaustive)
    decision = decide_semantic_acyclicity(query, [parse_tgd("N(x, y) -> T(x, y, z)")], config)
    assert not decision.semantically_acyclic
    assert decision.candidates_checked == len(calls) == budget
    phase = "exhaustive" if exhaustive else "fast"
    assert f"candidate budget exhausted during the {phase} phase" in decision.notes


@pytest.mark.parametrize("exhaustive, budget", [(False, 5), (True, 20)])
def test_egd_budget_cut_counts_the_candidates_verified(monkeypatch, exhaustive, budget):
    query = example4_chased_shape()
    calls = count_egd_verifications(monkeypatch, query)
    config = SemAcConfig(max_candidates_checked=budget, exhaustive=exhaustive)
    decision = decide_semantic_acyclicity(query, [example4_key()], config)
    assert not decision.semantically_acyclic
    assert decision.candidates_checked == len(calls) == budget
    phase = "exhaustive" if exhaustive else "fast"
    assert f"candidate budget exhausted during the {phase} phase" in decision.notes
