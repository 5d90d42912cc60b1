"""Tests for Yannakakis, the cover game and the SemAcEval algorithms."""

import pytest

from helpers.cover_game_naive import existential_one_cover_naive
from repro.datamodel import Atom, Constant, Database, Instance, Predicate, Variable
from repro.evaluation import (
    AcyclicityRequired,
    NotSemanticallyAcyclic,
    YannakakisEvaluator,
    boolean_acyclic,
    evaluate_acyclic,
    evaluate_generic,
    evaluate_via_reformulation,
    existential_one_cover,
    instance_covers_database,
    membership_baseline,
    membership_generic,
    membership_via_chase_and_cover_game_tgds,
    membership_via_cover_game_egds,
    membership_via_cover_game_guarded,
    query_covers_database,
)
from repro.parser import parse_egd, parse_query, parse_tgd
from repro.queries.cq import ConjunctiveQuery
from repro.workloads.generators import (
    cover_game_scaling_workload,
    grid_database,
    music_store_database,
    path_database,
    random_database,
    random_schema,
)
from repro.workloads.paper_examples import (
    example1_query,
    example1_tgd,
    guarded_triangle_example,
)


E = Predicate("E", 2)


def edge_db(*edges):
    database = Database()
    for source, target in edges:
        database.add(Atom(E, (Constant(source), Constant(target))))
    return database


class TestYannakakis:
    def test_rejects_cyclic_queries(self, triangle_query):
        with pytest.raises(AcyclicityRequired):
            YannakakisEvaluator(triangle_query)

    def test_routing_an_acyclic_query_runs_one_gyo_reduction(self, monkeypatch):
        """``resolve_route`` decides acyclicity and the evaluator builds its
        join tree from the GYO parents cached on the query."""
        import repro.hypergraph
        from repro.evaluation.semacyclic_eval import resolve_route
        from repro.hypergraph import gyo, join_tree

        calls = []
        original = gyo.gyo_parents

        def counting(masks):
            calls.append(masks)
            return original(masks)

        for module in (repro.hypergraph, gyo, join_tree):
            monkeypatch.setattr(module, "gyo_parents", counting)
        query = parse_query("q(x, w) :- E(x, y), E(y, z), E(z, w)")
        route, evaluator = resolve_route(query)
        assert route == "yannakakis"
        assert len(calls) == 1
        assert query.is_acyclic() and query.join_tree() is not None and len(calls) == 1
        database = edge_db(("a", "b"), ("b", "c"), ("c", "d"))
        assert evaluator.evaluate(database) == {(Constant("a"), Constant("d"))}

    def test_boolean_path_query(self, path3_query):
        database = edge_db(("a", "b"), ("b", "c"), ("c", "d"))
        assert boolean_acyclic(path3_query, database)
        assert not boolean_acyclic(path3_query, edge_db(("a", "b"), ("c", "d")))

    def test_agrees_with_generic_evaluation_on_answers(self):
        query = parse_query("q(x, w) :- E(x, y), E(y, z), E(z, w)")
        database = edge_db(("a", "b"), ("b", "c"), ("c", "d"), ("b", "d"), ("d", "a"))
        assert evaluate_acyclic(query, database) == evaluate_generic(query, database)

    def test_agrees_with_generic_on_random_databases(self):
        schema = random_schema(seed=5, predicate_count=2, max_arity=2)
        database = random_database(seed=7, schema=schema, facts_per_predicate=25, domain_size=8)
        predicates = sorted(schema.predicates())
        binary = [p for p in predicates if p.arity == 2]
        if not binary:
            pytest.skip("random schema produced no binary predicate")
        p = binary[0]
        query = parse_query(f"q(x, z) :- {p.name}(x, y), {p.name}(y, z)")
        assert evaluate_acyclic(query, database) == evaluate_generic(query, database)

    def test_star_query_with_projection(self):
        query = parse_query("q(c) :- E(c, a), E(c, b)")
        database = edge_db(("h", "x"), ("h", "y"), ("i", "z"))
        assert evaluate_acyclic(query, database) == {(Constant("h"),), (Constant("i"),)}

    def test_constants_in_query(self):
        query = parse_query("q(x) :- E(x, 'b')")
        database = edge_db(("a", "b"), ("c", "d"))
        assert evaluate_acyclic(query, database) == {(Constant("a"),)}

    def test_empty_result_when_relation_missing(self):
        query = parse_query("q(x) :- E(x, y), F(y)")
        database = edge_db(("a", "b"))
        assert evaluate_acyclic(query, database) == set()

    def test_grid_database_path_counts(self):
        database = grid_database(3, 3)
        query = parse_query("q(x, z) :- E(x, y), E(y, z)")
        assert evaluate_acyclic(query, database) == evaluate_generic(query, database)

    def test_reusable_evaluator(self):
        query = parse_query("q(x) :- E(x, y)")
        evaluator = YannakakisEvaluator(query)
        assert evaluator.evaluate(edge_db(("a", "b"))) == {(Constant("a"),)}
        assert evaluator.evaluate(edge_db(("c", "d"))) == {(Constant("c"),)}


class TestCoverGame:
    def test_query_covers_database_matches_evaluation_for_acyclic_queries(self, path3_query):
        database = edge_db(("a", "b"), ("b", "c"), ("c", "d"))
        assert query_covers_database(path3_query, database)
        assert not query_covers_database(path3_query, edge_db(("a", "b")))

    def test_cover_game_with_answers(self):
        query = parse_query("q(x) :- E(x, y), E(y, z)")
        database = edge_db(("a", "b"), ("b", "c"))
        assert query_covers_database(query, database, (Constant("a"),))
        assert not query_covers_database(query, database, (Constant("c"),))

    def test_cover_game_is_weaker_than_homomorphism_on_cyclic_queries(self, triangle_query):
        # A long even cycle has no triangle, but the duplicator still wins the
        # 1-cover game (the game only preserves acyclic queries).
        database = edge_db(("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "a"))
        assert not triangle_query.holds_in(database)
        assert query_covers_database(triangle_query, database)

    def test_instance_covers_database(self):
        left = parse_query("E(x, y), E(y, z)").canonical_database()
        right = edge_db(("a", "b"), ("b", "c"))
        assert instance_covers_database(left, (), right, ())

    def test_mismatched_tuples_rejected(self):
        with pytest.raises(ValueError):
            existential_one_cover(Instance(), (Constant("a"),), Instance(), ())
        with pytest.raises(ValueError):
            existential_one_cover_naive(Instance(), (Constant("a"),), Instance(), ())

    def test_unknown_engine_rejected(self):
        # The engine is the fixpoint itself; a name is no engine.
        with pytest.raises(TypeError):
            query_covers_database(
                parse_query("E(x, y)"), edge_db(("a", "b")), engine="no-such-engine"
            )


COVER_ENGINES = [
    pytest.param(existential_one_cover, id="worklist"),
    pytest.param(existential_one_cover_naive, id="naive"),
]


class TestCoverGameConstants:
    """Constants in left atoms are forced pebbles (homomorphisms are the
    identity on ``C``) — the regression suite for the confirmed false
    positive ``q() :- R(x, 3)`` vs ``D = {R(a, 5)}``, on both engines."""

    R = Predicate("R", 2)

    def _query_with_constant(self, constant) -> ConjunctiveQuery:
        return ConjunctiveQuery((), [Atom(self.R, (Variable("x"), constant))])

    @pytest.mark.parametrize("engine", COVER_ENGINES)
    def test_constant_must_map_to_itself(self, engine):
        query = self._query_with_constant(Constant(3))
        database = Database([Atom(self.R, (Constant("a"), Constant(5)))])
        assert not query_covers_database(query, database, engine=engine)
        assert not membership_via_cover_game_guarded(query, database, engine=engine)
        assert query_covers_database(query, database, engine=engine) == membership_generic(
            query, database, ()
        )

    @pytest.mark.parametrize("engine", COVER_ENGINES)
    def test_string_equal_but_distinct_constants_are_not_conflated(self, engine):
        # str(Constant(3)) == str(Constant("3")) == "3", but the terms differ.
        query = self._query_with_constant(Constant(3))
        database = Database([Atom(self.R, (Constant("a"), Constant("3")))])
        assert not query_covers_database(query, database, engine=engine)
        assert query_covers_database(query, database, engine=engine) == membership_generic(
            query, database, ()
        )

    @pytest.mark.parametrize("engine", COVER_ENGINES)
    def test_matching_constant_is_accepted(self, engine):
        query = self._query_with_constant(Constant(3))
        database = Database([Atom(self.R, (Constant("a"), Constant(3)))])
        assert query_covers_database(query, database, engine=engine)

    @pytest.mark.parametrize("engine", COVER_ENGINES)
    def test_frozen_variables_keep_mapping_freely(self, engine):
        # Variables (frozen into c(x) constants) are not pebbles: the plain
        # edge query covers any database with an edge.
        query = parse_query("E(x, y)")
        database = edge_db(("a", "b"))
        assert query_covers_database(query, database, engine=engine)

    @pytest.mark.parametrize("engine", COVER_ENGINES)
    def test_constant_conflicting_with_answer_pebble_loses(self, engine):
        # The left tuple pins Constant("c") to Constant("d") while the
        # constant itself demands the identity: no image can satisfy both.
        left = Instance([Atom(self.R, (Constant("c"), Constant("c")))])
        right = Instance([Atom(self.R, (Constant("d"), Constant("d")))])
        assert not instance_covers_database(
            left, (Constant("c"),), right, (Constant("d"),), engine=engine
        )

    @pytest.mark.parametrize("engine", COVER_ENGINES)
    def test_all_constant_atom_requires_the_exact_fact(self, engine):
        query = ConjunctiveQuery((), [Atom(self.R, (Constant(1), Constant(2)))])
        assert query_covers_database(
            query, Database([Atom(self.R, (Constant(1), Constant(2)))]), engine=engine
        )
        assert not query_covers_database(
            query, Database([Atom(self.R, (Constant(2), Constant(1)))]), engine=engine
        )


class TestCoverGameEnginesCoincide:
    """The greatest consistent strategy is unique — both engines must return
    identical strategies, not just identical verdicts."""

    def test_strategies_coincide_on_decoy_workload(self):
        query, database = cover_game_scaling_workload(80)
        left = query.canonical_database()
        worklist = existential_one_cover(left, (), database, ())
        naive = existential_one_cover_naive(left, (), database, ())
        assert worklist.duplicator_wins and naive.duplicator_wins
        assert worklist.strategy == naive.strategy
        # The decoy chains must actually have been pruned by propagation.
        assert any(
            len(images) < len(database.atoms_with_predicate(atom.predicate))
            for atom, images in worklist.strategy.items()
        )

    def test_strategies_coincide_on_random_databases(self):
        left = parse_query("E(x, y), E(y, z), F(z)").canonical_database()
        for seed in range(5):
            schema = random_schema(seed=seed, predicate_count=2, max_arity=2)
            database = random_database(
                seed=seed, schema=schema, facts_per_predicate=12, domain_size=4
            )
            database.add(Atom(Predicate("E", 2), (Constant("u"), Constant("u"))))
            database.add(Atom(Predicate("F", 1), (Constant("u"),)))
            worklist = existential_one_cover(left, (), database, ())
            naive = existential_one_cover_naive(left, (), database, ())
            assert worklist.duplicator_wins == naive.duplicator_wins
            if worklist.duplicator_wins:
                assert worklist.strategy == naive.strategy


class TestSemAcEval:
    def test_reformulate_then_evaluate_example1(self):
        query = example1_query()
        tgds = [example1_tgd()]
        database = music_store_database(seed=3, customers=10, records=15, styles=4)
        answers = evaluate_via_reformulation(query, tgds, database)
        assert answers == evaluate_generic(query, database)
        assert answers  # the workload guarantees at least one compulsive match

    def test_reformulation_failure_raises(self, triangle_query):
        with pytest.raises(NotSemanticallyAcyclic):
            evaluate_via_reformulation(triangle_query, [parse_tgd("E(x, y) -> E(y, x)")], edge_db(("a", "b")))

    def test_cover_game_eval_guarded(self):
        query, tgds = guarded_triangle_example()
        # Build a database satisfying the tgds: every edge source has a self-loop.
        database = Database()
        a_pred = Predicate("A", 1)
        for source, target in [("a", "b"), ("b", "c")]:
            database.add(Atom(E, (Constant(source), Constant(target))))
            database.add(Atom(E, (Constant(source), Constant(source))))
            database.add(Atom(a_pred, (Constant(source),)))
        database.add(Atom(a_pred, (Constant("c"),)))
        database.add(Atom(E, (Constant("c"), Constant("c"))))
        # The triangle query holds (via a self-loop); Theorem 25's test agrees
        # with the baseline.
        assert membership_baseline(query, database)
        assert membership_via_cover_game_guarded(query, database)
        assert membership_via_chase_and_cover_game_tgds(query, tgds, database)

    def test_cover_game_eval_guarded_negative(self):
        query, tgds = guarded_triangle_example()
        empty = Database()
        assert not membership_via_cover_game_guarded(query, empty)

    def test_cover_game_eval_under_fds(self):
        query = parse_query("A(x, y), A(x, z), B(y, z)")
        egds = [parse_egd("A(x, y), A(x, z) -> y = z")]
        a_pred, b_pred = Predicate("A", 2), Predicate("B", 2)
        database = Database(
            [
                Atom(a_pred, (Constant(1), Constant(2))),
                Atom(b_pred, (Constant(2), Constant(2))),
            ]
        )
        # The database satisfies the key and the (cyclic, but semantically
        # acyclic) query holds; the chased-query cover game agrees.
        assert membership_baseline(query, database)
        assert membership_via_cover_game_egds(query, egds, database)
        no_match = Database([Atom(a_pred, (Constant(1), Constant(2)))])
        assert not membership_via_cover_game_egds(query, egds, no_match)

    def test_semac_evaluation_wrapper(self):
        query = example1_query()
        reformulation = parse_query("q(x, y) :- Interest(x, z), Class(y, z)")
        evaluator = YannakakisEvaluator(reformulation)
        database = music_store_database(seed=11, customers=8, records=10, styles=3)
        assert evaluator.evaluate(database) == evaluate_generic(query, database)
        assert evaluator.boolean(database)
