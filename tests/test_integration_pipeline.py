"""End-to-end integration tests: parse → classify → decide → reformulate → evaluate.

Each test walks one of the paper's scenarios through the whole stack, the way
a user of the library would: the constraints are classified, semantic
acyclicity is decided, the certified witness is evaluated with Yannakakis'
algorithm on a database satisfying the constraints, and the answers are
cross-checked against direct evaluation of the original query.
"""

import pytest

from repro import (
    decide_semantic_acyclicity,
    evaluate_acyclic,
    evaluate_generic,
    parse_query,
    parse_tgd,
)
from repro.chase import certify_termination, chase
from repro.containment import equivalent_under_egds, equivalent_under_tgds
from repro.core import acyclic_approximations, decide_semantic_acyclicity_egds
from repro.dependencies import DependencyClass, classify
from repro.evaluation import (
    YannakakisEvaluator,
    evaluate_via_reformulation,
    evaluate_with_plan,
    membership_baseline,
    membership_via_cover_game_guarded,
)
from repro.rewriting import rewrite
from repro.workloads.generators import (
    database_satisfying,
    music_store_database,
    random_database,
)
from repro.workloads.paper_examples import (
    example1_query,
    example1_tgd,
    guarded_triangle_example,
    guarded_triangle_reformulation,
    k2_collapse_example,
)


class TestExample1Pipeline:
    """Example 1: the music-store query under the compulsive-collector tgd."""

    def test_full_pipeline(self):
        query = example1_query()
        tgds = [example1_tgd()]

        # 1. The constraint set falls into decidable classes.
        classes = classify(tgds)
        assert DependencyClass.NON_RECURSIVE in classes
        assert certify_termination(tgds).guaranteed

        # 2. The query is cyclic but semantically acyclic under the tgd.
        assert not query.is_acyclic()
        decision = decide_semantic_acyclicity(query, tgds)
        assert decision.semantically_acyclic
        witness = decision.witness
        assert witness.is_acyclic()
        assert equivalent_under_tgds(query, witness, tgds)

        # 3. On databases satisfying the constraint the witness computes q(D).
        database = music_store_database(seed=11, customers=12, records=15)
        assert all(tgd.is_satisfied_by(database) for tgd in tgds)
        expected = evaluate_generic(query, database)
        assert expected  # the workload generator guarantees matches
        assert evaluate_acyclic(witness, database) == expected

        # 4. The packaged fpt evaluator and the planner agree too.
        assert evaluate_via_reformulation(query, tgds, database) == expected
        assert evaluate_with_plan(query, database) == expected

    def test_reusable_evaluator(self):
        query = example1_query()
        tgds = [example1_tgd()]
        decision = decide_semantic_acyclicity(query, tgds)
        evaluator = YannakakisEvaluator(decision.witness)
        for seed in (1, 2):
            database = music_store_database(seed=seed, customers=8, records=10)
            assert evaluator.evaluate(database) == evaluate_generic(query, database)


class TestGuardedTrianglePipeline:
    """A cyclic triangle query made semantically acyclic by linear tgds."""

    def test_full_pipeline(self):
        query, tgds = guarded_triangle_example()
        classes = classify(tgds)
        assert DependencyClass.GUARDED in classes
        assert DependencyClass.LINEAR in classes

        decision = decide_semantic_acyclicity(query, tgds)
        assert decision.semantically_acyclic
        witness = decision.witness
        assert witness.is_acyclic()
        assert equivalent_under_tgds(query, witness, tgds)
        # The paper-style reformulation is equivalent to the found witness.
        assert equivalent_under_tgds(
            witness, guarded_triangle_reformulation(), tgds
        )

        database = database_satisfying(tgds, seed=3, facts_per_predicate=10, domain_size=8)
        expected = evaluate_generic(query, database)
        assert evaluate_acyclic(witness, database) == expected

    def test_cover_game_membership_matches_baseline(self):
        query, tgds = guarded_triangle_example()
        database = database_satisfying(tgds, seed=5, facts_per_predicate=8, domain_size=6)
        assert membership_via_cover_game_guarded(query, database) == membership_baseline(
            query, database
        )


class TestK2Pipeline:
    """Keys over binary predicates (Theorem 23) end to end."""

    def test_full_pipeline(self):
        query, egds = k2_collapse_example()
        assert not query.is_acyclic()
        decision = decide_semantic_acyclicity_egds(query, egds)
        assert decision.semantically_acyclic
        witness = decision.witness
        assert witness.is_acyclic()
        assert equivalent_under_egds(query, witness, egds)

    def test_witness_evaluates_correctly_on_consistent_databases(self):
        query, egds = k2_collapse_example()
        decision = decide_semantic_acyclicity_egds(query, egds)
        witness = decision.witness

        # Build a database that satisfies the key by construction.
        from repro.datamodel import Atom, Constant, Database, Predicate

        a_pred, b_pred = Predicate("A", 2), Predicate("B", 2)
        database = Database()
        for i in range(6):
            database.add(Atom(a_pred, (Constant(f"l{i}"), Constant(f"r{i % 3}"))))
            database.add(Atom(b_pred, (Constant(f"r{i % 3}"), Constant(f"r{i % 3}"))))
        assert all(egd.is_satisfied_by(database) for egd in egds)
        assert evaluate_acyclic(witness, database) == evaluate_generic(query, database)


class TestOntologyPipeline:
    """A small non-recursive 'ontology' exercised through rewriting and approximation."""

    def setup_method(self):
        self.tgds = [
            parse_tgd("Employee(x, d) -> Member(x, d)", label="emp"),
            parse_tgd("Manager(x, d) -> Employee(x, d)", label="mgr"),
            parse_tgd("Member(x, d) -> Dept(d)", label="dept"),
        ]
        self.query = parse_query(
            "q(x) :- Member(x, d), Dept(d), Manager(x, d)", name="ontology_q"
        )

    def test_rewriting_contains_original_disjunct(self):
        rewriting = list(rewrite(self.query, self.tgds))
        assert any(set(d.body) == set(self.query.body) for d in rewriting)
        assert len(rewriting) >= 2

    def test_decision_and_evaluation(self):
        decision = decide_semantic_acyclicity(self.query, self.tgds)
        assert decision.semantically_acyclic
        witness = decision.witness
        database = database_satisfying(
            self.tgds, seed=7, facts_per_predicate=12, domain_size=9
        )
        assert evaluate_acyclic(witness, database) == evaluate_generic(
            self.query, database
        )

    def test_approximations_are_contained_in_the_query(self):
        from repro.containment import contained_under_tgds

        result = acyclic_approximations(self.query, self.tgds)
        assert result.approximations
        for approximation in result.approximations:
            assert approximation.is_acyclic()
            assert bool(contained_under_tgds(approximation, self.query, self.tgds))


class TestChaseThenEvaluatePipeline:
    """Chasing a database and evaluating before/after are consistent."""

    def test_chase_preserves_existing_answers(self):
        tgds = [
            parse_tgd("E(x, y) -> Reach(x, y)", label="base"),
            parse_tgd("Reach(x, y), E(y, z) -> Reach(x, z)", label="step"),
        ]
        database = random_database(seed=13, facts_per_predicate=10, domain_size=6)
        # Restrict to the E relation the tgds read.
        from repro.datamodel import Database, Predicate

        edges = Database(
            atom for atom in database if atom.predicate == Predicate("E", 2)
        )
        if not len(edges):
            from repro.workloads.generators import path_database

            edges = path_database(5)
        result = chase(edges, tgds, max_steps=5_000)
        assert result.terminated
        query = parse_query("q(x, y) :- Reach(x, y)")
        answers = evaluate_generic(query, result.instance)
        direct_edges = evaluate_generic(parse_query("q(x, y) :- E(x, y)"), edges)
        assert direct_edges <= answers
