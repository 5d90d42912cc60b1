"""Differential tests: every evaluation engine must agree on q(D).

Four independent implementations are compared on randomized acyclic CQs and
databases:

* the generic backtracking evaluator (``evaluate_generic`` — the oracle);
* the hash-relation Yannakakis evaluator (``evaluate_acyclic``);
* the preserved assignment-dict Yannakakis evaluator (the test-only oracle
  in ``tests/helpers/yannakakis_dict.py``);
* the plan executor (``evaluate_with_plan``) on the relation engine.

The generated workloads deliberately include repeated head variables,
constant-carrying atoms and labelled nulls in the data — the corners where
the original dict implementation's string-keyed deduplication silently
merged distinct answers.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel import Atom, Constant, Database, Instance, Null, Predicate, Variable
from helpers.cover_game_naive import existential_one_cover_naive
from helpers.yannakakis_dict import DictYannakakisEvaluator
from repro.evaluation import (
    AcyclicityRequired,
    YannakakisEvaluator,
    boolean_acyclic,
    evaluate_acyclic,
    evaluate_generic,
    evaluate_with_plan,
    membership_generic,
    membership_via_cover_game_guarded,
)
from repro.queries.cq import ConjunctiveQuery
from repro.workloads.generators import (
    random_acyclic_query,
    random_database,
    random_schema,
)

# Shared with tests/test_streaming_eval.py so the streaming differential
# covers the same corner-hitting query space as the set-at-a-time one.
from helpers.workloads import randomized_acyclic_workload as _randomized_workload


def _assert_engines_agree(query: ConjunctiveQuery, database: Instance) -> None:
    try:
        hash_engine = YannakakisEvaluator(query)
    except AcyclicityRequired:
        # Constant injection can, in rare corners, make the variable
        # hypergraph cyclic; the differential check only covers the
        # acyclic engines' domain.
        return
    expected = evaluate_generic(query, database)
    assert hash_engine.evaluate(database) == expected
    assert DictYannakakisEvaluator(query).evaluate(database) == expected
    assert evaluate_with_plan(query, database) == expected
    assert hash_engine.boolean(database) == bool(expected)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_engines_agree_on_randomized_acyclic_workloads(seed):
    query, database = _randomized_workload(seed)
    _assert_engines_agree(query, database)


@pytest.mark.parametrize("seed", range(25))
def test_engines_agree_on_seeded_grid(seed):
    """A fixed, deterministic slice of the same space (fast CI signal)."""
    query, database = _randomized_workload(seed * 7919)
    _assert_engines_agree(query, database)


def _boolean_workload_with_constants(seed: int):
    """A Boolean acyclic CQ with injected constants plus a random database.

    The cover-game differential needs constants in atom positions (the
    confirmed false positive lived exactly there), so the injection rate is
    higher than in :func:`_randomized_workload`, and a few constants outside
    the database domain are thrown in to produce negative instances.
    """
    rng = random.Random(seed)
    schema = random_schema(
        seed=rng.random(), predicate_count=rng.randint(2, 4), max_arity=rng.randint(1, 3)
    )
    database = random_database(
        seed=rng.random(),
        schema=schema,
        facts_per_predicate=rng.randint(5, 20),
        domain_size=rng.randint(3, 8),
    )
    query = random_acyclic_query(
        seed=rng.random(), schema=schema, atom_count=rng.randint(1, 5)
    )

    domain = sorted(database.constants(), key=str) + [Constant("missing"), Constant(3)]
    body = []
    for atom in query.body:
        terms = list(atom.terms)
        for position in range(len(terms)):
            if rng.random() < 0.25:
                terms[position] = rng.choice(domain)
        body.append(Atom(atom.predicate, tuple(terms)))
    return ConjunctiveQuery((), body, name=f"cover_diff_{seed}"), database


def _assert_cover_game_decides_membership(query: ConjunctiveQuery, database: Instance) -> None:
    """Lemma 32, degenerate case (no constraints): on acyclic CQs the
    existential 1-cover game *is* membership — check both engines against
    the homomorphism oracle and the Yannakakis Boolean evaluator."""
    try:
        YannakakisEvaluator(query)
    except AcyclicityRequired:
        # Constant injection can, in rare corners, make the variable
        # hypergraph cyclic; exactness of the game is only guaranteed on
        # the acyclic domain.
        return
    expected = membership_generic(query, database, ())
    assert boolean_acyclic(query, database) == expected
    assert membership_via_cover_game_guarded(query, database) == expected
    assert (
        membership_via_cover_game_guarded(
            query, database, engine=existential_one_cover_naive
        )
        == expected
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_cover_game_engines_decide_membership_on_acyclic_boolean_queries(seed):
    query, database = _boolean_workload_with_constants(seed)
    _assert_cover_game_decides_membership(query, database)


@pytest.mark.parametrize("seed", range(25))
def test_cover_game_engines_agree_on_seeded_grid(seed):
    """A fixed, deterministic slice of the same space (fast CI signal)."""
    query, database = _boolean_workload_with_constants(seed * 6271)
    _assert_cover_game_decides_membership(query, database)


class TestDedupRegression:
    """The original evaluator keyed deduplication on ``str(term)``."""

    E = Predicate("E", 2)

    def test_constants_with_equal_string_forms_are_not_merged(self):
        # str(Constant(1)) == str(Constant("1")) == "1": the old key
        # conflated the two answers below into one.
        database = Database(
            [
                Atom(self.E, (Constant(1), Constant("p"))),
                Atom(self.E, (Constant("1"), Constant("q"))),
            ]
        )
        query = ConjunctiveQuery(
            (Variable("x"),), [Atom(self.E, (Variable("x"), Variable("y")))]
        )
        expected = evaluate_generic(query, database)
        assert len(expected) == 2
        assert evaluate_acyclic(query, database) == expected
        assert DictYannakakisEvaluator(query).evaluate(database) == expected

    def test_nulls_and_constants_sharing_a_name_are_not_merged(self):
        database = Instance(
            [
                Atom(self.E, (Constant("n"), Constant("p"))),
                Atom(self.E, (Null("n"), Constant("p"))),
            ]
        )
        query = ConjunctiveQuery(
            (Variable("x"),), [Atom(self.E, (Variable("x"), Variable("y")))]
        )
        expected = evaluate_generic(query, database)
        assert len(expected) == 2
        assert evaluate_acyclic(query, database) == expected
        assert DictYannakakisEvaluator(query).evaluate(database) == expected

    def test_projection_heavy_query_with_ambiguous_terms(self):
        # The merge used to happen on *partial* tuples during the bottom-up
        # projection joins, so exercise a two-node join tree as well.
        F = Predicate("F", 2)
        database = Database(
            [
                Atom(self.E, (Constant(1), Constant("m"))),
                Atom(self.E, (Constant("1"), Constant("m"))),
                Atom(F, (Constant("m"), Constant("t"))),
            ]
        )
        query = ConjunctiveQuery(
            (Variable("x"), Variable("z")),
            [
                Atom(self.E, (Variable("x"), Variable("y"))),
                Atom(F, (Variable("y"), Variable("z"))),
            ],
        )
        expected = evaluate_generic(query, database)
        assert len(expected) == 2
        assert evaluate_acyclic(query, database) == expected
        assert DictYannakakisEvaluator(query).evaluate(database) == expected


class TestRepeatedHeadVariables:
    def test_head_repetition_is_preserved(self):
        E = Predicate("E", 2)
        database = Database([Atom(E, (Constant("a"), Constant("b")))])
        x, y = Variable("x"), Variable("y")
        query = ConjunctiveQuery((x, x, y), [Atom(E, (x, y))])
        expected = {(Constant("a"), Constant("a"), Constant("b"))}
        assert evaluate_generic(query, database) == expected
        assert evaluate_acyclic(query, database) == expected
        assert evaluate_with_plan(query, database) == expected
