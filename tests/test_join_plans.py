"""Tests for join-order planning and plan execution (repro.evaluation.join_plans)."""

import random

import pytest

from helpers.ablation_planners import (
    estimate_cardinality,
    plan_by_cardinality,
    plan_in_query_order,
)
from repro.datamodel import Atom, Constant, Database, Instance, Predicate, Variable
from repro.evaluation import (
    boolean_with_plan,
    evaluate_generic,
    evaluate_with_plan,
    execute_plan,
    plan_greedy,
)
from repro.parser import parse_query
from repro.workloads.generators import (
    music_store_database,
    path_database,
    random_acyclic_query,
    random_database,
    random_schema,
)


E = Predicate("E", 2)
SMALL = Predicate("Small", 1)
BIG = Predicate("Big", 2)


def skewed_database(small_facts=2, big_facts=50):
    """A database where Small is tiny and Big is large (for ordering tests)."""
    database = Database()
    for i in range(small_facts):
        database.add(Atom(SMALL, (Constant(f"s{i}"),)))
    for i in range(big_facts):
        database.add(Atom(BIG, (Constant(f"s{i % small_facts}"), Constant(f"b{i}"))))
    return database


class TestCardinalityEstimates:
    def test_estimate_is_relation_size_for_plain_atoms(self):
        database = skewed_database()
        atom = Atom(BIG, (Variable("x"), Variable("y")))
        assert estimate_cardinality(atom, database) == 50

    def test_constants_reduce_the_estimate(self):
        database = skewed_database()
        plain = Atom(BIG, (Variable("x"), Variable("y")))
        constrained = Atom(BIG, (Constant("s0"), Variable("y")))
        assert estimate_cardinality(constrained, database) < estimate_cardinality(
            plain, database
        )

    def test_repeated_variables_reduce_the_estimate(self):
        database = skewed_database()
        plain = Atom(BIG, (Variable("x"), Variable("y")))
        repeated = Atom(BIG, (Variable("x"), Variable("x")))
        assert estimate_cardinality(repeated, database) < estimate_cardinality(
            plain, database
        )

    def test_empty_relation_estimates_zero(self):
        database = Database()
        atom = Atom(E, (Variable("x"), Variable("y")))
        assert estimate_cardinality(atom, database) == 0


class TestPlanners:
    def test_plan_in_query_order_preserves_order(self):
        database = skewed_database()
        query = parse_query("Big(x, y), Small(x)")
        plan = plan_in_query_order(query, database)
        assert plan.atoms() == list(query.body)

    def test_plan_by_cardinality_puts_small_relation_first(self):
        database = skewed_database()
        query = parse_query("Big(x, y), Small(x)")
        plan = plan_by_cardinality(query, database)
        assert plan.atoms()[0].predicate.name == "Small"

    def test_greedy_plan_starts_with_cheapest_atom(self):
        database = skewed_database()
        query = parse_query("Big(x, y), Small(x)")
        plan = plan_greedy(query, database)
        assert plan.atoms()[0].predicate.name == "Small"

    def test_greedy_plan_avoids_cross_products_when_possible(self):
        database = skewed_database()
        # Small(x) and Small(z) are both cheap, but after Small(x) the greedy
        # planner must pick the connected Big(x, y) before the disconnected
        # Small(z).
        query = parse_query("Small(x), Big(x, y), Small(z), Big(z, w)")
        plan = plan_greedy(query, database)
        # Only one cross product is unavoidable (switching components).
        cross_products = sum(
            1 for step in plan.steps[1:] if not step.shares_variables_with_prefix
        )
        assert cross_products == 1

    def test_plans_cover_every_atom_exactly_once(self):
        database = random_database(seed=1)
        query = random_acyclic_query(seed=2, atom_count=6)
        for planner in (plan_in_query_order, plan_by_cardinality, plan_greedy):
            plan = planner(query, database)
            assert sorted(map(str, plan.atoms())) == sorted(map(str, query.body))

    def test_plan_rendering_mentions_every_step(self):
        database = skewed_database()
        query = parse_query("Big(x, y), Small(x)")
        rendered = str(plan_greedy(query, database))
        assert "Small" in rendered and "Big" in rendered

    def test_empty_body_plan(self):
        database = skewed_database()
        query = parse_query("Small(x)").subquery([])
        plan = plan_greedy(query, database)
        assert len(plan) == 0


class TestExecution:
    def test_plan_answers_match_generic_evaluation(self):
        database = music_store_database(seed=3, customers=10, records=12)
        query = parse_query("q(x, y) :- Interest(x, z), Class(y, z), Owns(x, y)")
        expected = evaluate_generic(query, database)
        for planner in (plan_in_query_order, plan_by_cardinality, plan_greedy):
            assert evaluate_with_plan(query, database, planner=planner) == expected

    def test_plan_answers_match_on_random_workloads(self):
        rng = random.Random(7)
        for seed in range(5):
            schema = random_schema(seed=seed, predicate_count=3, max_arity=2)
            database = random_database(
                seed=seed, schema=schema, facts_per_predicate=15, domain_size=8
            )
            query = random_acyclic_query(
                seed=seed + 100, schema=schema, atom_count=4, free_variables=1
            )
            expected = evaluate_generic(query, database)
            actual = evaluate_with_plan(query, database)
            assert actual == expected

    def test_boolean_with_plan(self):
        database = path_database(4)
        query = parse_query("E(x, y), E(y, z)")
        assert boolean_with_plan(query, database)
        impossible = parse_query("E(x, x)")
        assert not boolean_with_plan(impossible, database)

    def test_execution_reports_intermediate_sizes(self):
        database = skewed_database()
        query = parse_query("q(x, y) :- Small(x), Big(x, y)")
        execution = execute_plan(plan_greedy(query, database), database)
        assert len(execution.intermediate_sizes) == 2
        assert execution.max_intermediate_size >= max(execution.intermediate_sizes)
        assert execution.total_intermediate_tuples == sum(execution.intermediate_sizes)

    def test_good_ordering_shrinks_intermediate_results(self):
        database = skewed_database(small_facts=2, big_facts=80)
        query = parse_query("q(y) :- Big(x, y), Small(x)")
        naive = execute_plan(plan_in_query_order(query, database), database)
        planned = execute_plan(plan_greedy(query, database), database)
        assert planned.answers == naive.answers
        assert planned.intermediate_sizes[0] <= naive.intermediate_sizes[0]

    def test_execution_short_circuits_on_empty_relations(self):
        database = skewed_database()
        query = parse_query("Small(x), E(x, y)")
        execution = execute_plan(plan_in_query_order(query, database), database)
        assert execution.answers == set()
        assert 0 in execution.intermediate_sizes

    def test_constants_in_queries_are_respected(self):
        database = path_database(3)
        query = parse_query("q(y) :- E('n0', y)")
        answers = evaluate_with_plan(query, database)
        assert answers == {(Constant("n1"),)}

    def test_repeated_variables_are_respected(self):
        database = Database(
            [
                Atom(E, (Constant("a"), Constant("a"))),
                Atom(E, (Constant("a"), Constant("b"))),
            ]
        )
        query = parse_query("q(x) :- E(x, x)")
        assert evaluate_with_plan(query, database) == {(Constant("a"),)}
