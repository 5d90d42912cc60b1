"""The core decides SemAc when the tgds cannot reach the query's predicates.

Let ``Σ_q`` be the tgds reachable from the predicates of ``q``.  When no
tgd of ``Σ_q`` derives an atom over a predicate of ``q`` and every head
atom of ``Σ_q`` has at most two variables, ``q`` is semantically acyclic
under ``Σ`` iff its core is acyclic, and the tgd decider answers with the
unconstrained decision (method ``core``, exhaustive).  The differential
below checks that verdict against the search the decider ran before the
shortcut, wherever that search is definite: a positive answer is always
certified, and a negative one counts when the search was exhaustive.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.semantic_acyclicity as semac_module
from repro.core.semantic_acyclicity import SemAcConfig, decide_semantic_acyclicity_tgds
from repro.datamodel import Atom, Predicate, Variable
from repro.dependencies.tgd import TGD
from repro.parser import parse_query, parse_tgd
from repro.queries import ConjunctiveQuery


E, F = Predicate("E", 2), Predicate("F", 2)
#: Head predicates outside the queries, and one that no query reaches.
U, B, D, G = Predicate("U", 1), Predicate("B", 2), Predicate("D", 2), Predicate("G", 2)
VARIABLES = [Variable(name) for name in "uvwxy"]
X, Y, Z = (Variable(name) for name in "xyz")


@st.composite
def cyclic_queries(draw):
    """An E/F-cycle, more often of length 3 than 4, plus up to one random
    E/F atom (which may be a loop that folds the cycle)."""
    length = draw(st.sampled_from([3, 3, 4]))
    cycle = VARIABLES[:length]
    body = [
        Atom(draw(st.sampled_from([E, F])), (cycle[i], cycle[(i + 1) % length]))
        for i in range(length)
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=1))):
        body.append(
            Atom(draw(st.sampled_from([E, F])), tuple(draw(st.sampled_from(cycle)) for _ in "ab"))
        )
    head = draw(st.lists(st.sampled_from(cycle), max_size=2, unique=True))
    return ConjunctiveQuery(head, body, name="h")


@st.composite
def rank_two_tgds(draw):
    """A tgd whose body lies over E, F and B, and whose head has at most
    two variables over U, B or D; or an unreachable one from G into E."""
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        return TGD([Atom(G, (X, Y))], [Atom(E, (Y, X))])
    body = [
        Atom(draw(st.sampled_from([E, F, B])), pair)
        for pair in draw(st.sampled_from([[(X, Y)], [(X, Y), (Y, Z)], [(X, Y), (Y, X)]]))
    ]
    head_predicate = draw(st.sampled_from([U, B, D]))
    terms = [X, Y, Z, Variable("n")]  # ``n`` is existential
    head_terms = tuple(draw(st.sampled_from(terms)) for _ in range(head_predicate.arity))
    return TGD(body, [Atom(head_predicate, head_terms)])


def parent_search(query, tgds, config):
    """The decider as it was before the shortcut: the search under all of Σ."""
    with mock.patch.object(semac_module, "_core_decides", lambda *_: False), mock.patch.object(
        semac_module, "_reachable_tgds", lambda _, tgds: list(tgds)
    ):
        return decide_semantic_acyclicity_tgds(query, tgds, config)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cyclic_queries(), st.lists(rank_two_tgds(), min_size=1, max_size=2))
def test_core_verdict_agrees_with_the_definite_search(query, tgds):
    decision = decide_semantic_acyclicity_tgds(query, tgds)
    assert (decision.method, decision.candidates_checked, decision.exhaustive) == ("core", 1, True)
    # Every bound is at least 2·|q|, so above three atoms the exhaustive
    # phase, capped at six, can never make a negative exact: only the fast
    # phase runs there, and only its positives count.
    config = SemAcConfig(exhaustive=len(query) <= 3, exhaustive_size_cap=6)
    searched = parent_search(query, tgds, config)
    if searched.semantically_acyclic or searched.exhaustive:
        assert decision.semantically_acyclic == searched.semantically_acyclic


def test_a_ternary_head_covering_the_triangle_still_runs_the_search():
    # The head T(x, y, z) covers the whole triangle, so the triangle is
    # equivalent to itself plus that atom, which is acyclic.  Only the
    # search finds this; the core alone would say no.
    query = parse_query("q() :- E(x, y), E(y, z), E(z, x)")
    tgds = [parse_tgd("E(x, y), E(y, z), E(z, x) -> T(x, y, z)")]
    decision = decide_semantic_acyclicity_tgds(query, tgds)
    assert decision.semantically_acyclic
    assert decision.method.startswith("fast/")
    assert decision.witness.is_acyclic()


def test_an_unreachable_ternary_head_leaves_the_core_deciding():
    # Only N(x, y) -> B(x) is reachable from N; the ternary head of the
    # second rule hangs off M, which neither the query nor B reaches.
    query = parse_query("q(a) :- N(a, b), N(b, c), N(c, a)")
    tgds = [parse_tgd("N(x, y) -> B(x)"), parse_tgd("M(x, y) -> T(x, y, z)")]
    decision = decide_semantic_acyclicity_tgds(query, tgds)
    assert not decision.semantically_acyclic
    assert (decision.method, decision.candidates_checked, decision.exhaustive) == ("core", 1, True)
    assert "class=guarded" in decision.notes
    # Once the query mentions M, the ternary rule is reachable and the
    # search runs.
    reaching = parse_query("q(a) :- N(a, b), N(b, c), N(c, a), M(a, b)")
    assert decide_semantic_acyclicity_tgds(reaching, tgds).method == "search/guarded"


def test_a_rule_deriving_a_query_predicate_runs_the_search():
    query = parse_query("q(a) :- N(a, b), N(b, c), N(c, a)")
    decision = decide_semantic_acyclicity_tgds(query, [parse_tgd("N(x, y) -> N(y, x)")])
    assert decision.method == "search/guarded"
