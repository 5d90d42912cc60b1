"""Tests for the workload generators and the remaining paper examples."""

import pytest

from repro.chase import chase, egd_chase_query
from repro.datamodel import Predicate
from repro.dependencies import classify, DependencyClass, is_guarded_set, is_k2_set
from repro.hypergraph import is_acyclic_instance, treewidth_upper_bound
from repro.queries import gaifman_graph_of_instance, max_clique_lower_bound
from repro.workloads import (
    binary_keys,
    chain_non_recursive_tgds,
    cover_game_scaling_workload,
    cycle_query,
    database_satisfying,
    grid_database,
    layered_decoy_database,
    music_store_database,
    path_database,
    path_query,
    random_acyclic_query,
    random_database,
    random_guarded_tgds,
    random_inclusion_dependencies,
    random_schema,
    star_query,
)
from repro.workloads.paper_examples import (
    example1_query,
    example1_tgd,
    example2_query,
    example2_tgd,
    example3_query,
    example3_tgds,
    example4_query,
    example4_scaled_query,
    example4_key,
    example5_keys,
    example5_ring_query,
)


class TestGenerators:
    def test_random_schema_is_deterministic(self):
        assert random_schema(seed=3).predicates() == random_schema(seed=3).predicates()

    def test_random_acyclic_queries_are_acyclic(self):
        for seed in range(10):
            query = random_acyclic_query(seed=seed, atom_count=6)
            assert query.is_acyclic()

    def test_random_acyclic_query_free_variables(self):
        query = random_acyclic_query(seed=1, atom_count=4, free_variables=2)
        assert len(query.head) == 2

    def test_structured_queries(self):
        assert not cycle_query(5).is_acyclic()
        assert path_query(5).is_acyclic()
        assert star_query(5).is_acyclic()
        with pytest.raises(ValueError):
            cycle_query(1)

    def test_random_guarded_and_inclusion_sets(self):
        assert is_guarded_set(random_guarded_tgds(seed=2, count=5))
        inclusions = random_inclusion_dependencies(seed=2, count=5)
        assert all(tgd.is_inclusion_dependency() for tgd in inclusions)

    def test_chain_non_recursive(self):
        tgds = chain_non_recursive_tgds(4)
        assert DependencyClass.NON_RECURSIVE in classify(tgds)

    def test_binary_keys_are_k2(self):
        schema = random_schema(seed=5, predicate_count=4, max_arity=2)
        egds = binary_keys(schema)
        assert egds
        assert all(egd.max_arity() == 2 for egd in egds)

    def test_random_database_sizes(self):
        database = random_database(seed=1, facts_per_predicate=10, domain_size=5)
        assert len(database) > 0
        assert database.is_database()

    def test_database_satisfying_closes_under_the_tgds(self):
        tgds = chain_non_recursive_tgds(2)
        schema = random_schema(seed=4, predicate_count=2, max_arity=2).union(
            __import__("repro").Schema([Predicate("L0", 2)])
        )
        database = database_satisfying(tgds, seed=4, schema=schema, facts_per_predicate=5)
        assert all(tgd.is_satisfied_by(database) for tgd in tgds)

    def test_path_and_grid_databases(self):
        assert len(path_database(10)) == 10
        grid = grid_database(3, 4)
        assert len(grid) == 3 * 3 + 2 * 4  # horizontal + vertical edges

    def test_music_store_database_satisfies_example1_tgd(self):
        database = music_store_database(seed=2, customers=6, records=8, styles=3)
        assert example1_tgd().is_satisfied_by(database)
        assert example1_query().holds_in(database)

    def test_layered_decoy_database_has_dead_ending_decoy_chains(self):
        layers, width = 4, 6
        database = layered_decoy_database(layers, width, fanout=2)
        # Real part plus one decoy edge per intermediate layer per unit
        # width (random real edges may collide with the spine, so the count
        # is an upper bound; the spine and decoy chains are exact).
        expected = layers * width * 2 + (layers - 1) * width
        assert 0.8 * expected <= len(database) <= expected
        # Final-layer decoys are dead ends: no S4 fact leaves a decoy node.
        last = Predicate(f"S{layers}", 2)
        assert not any(
            str(fact.terms[0]).startswith("D")
            for fact in database.atoms_with_predicate(last)
        )
        # Intermediate decoy chains do extend (D1_k -> D2_k in S2).
        assert any(
            str(fact.terms[0]).startswith("D1_")
            for fact in database.atoms_with_predicate(Predicate("S2", 2))
        )
        with pytest.raises(ValueError):
            layered_decoy_database(1, width)

    def test_cover_game_scaling_workload_sizes_track_the_target(self):
        query, database = cover_game_scaling_workload(400)
        assert query.head == ()  # Boolean chain query
        assert len(query.body) == 4
        assert 0.8 * 400 <= len(database) <= 1.2 * 400
        # Doubling the target ≈ doubles the database.
        _, doubled = cover_game_scaling_workload(800)
        assert 1.6 <= len(doubled) / len(database) <= 2.4


class TestPaperExampleFamilies:
    def test_example2_clique_growth(self):
        query = example2_query(5)
        result = chase(query.canonical_database(), [example2_tgd()])
        graph = gaifman_graph_of_instance(result.instance)
        assert max_clique_lower_bound(graph) >= 5
        assert treewidth_upper_bound(graph) >= 4

    def test_example3_families_scale(self):
        for n in (1, 2, 3):
            tgds = example3_tgds(n)
            assert len(tgds) == n
            assert example3_query(n).predicates() == {Predicate("P0", n + 2)}

    def test_example4_scaled_queries(self):
        for n in (3, 5):
            query = example4_scaled_query(n)
            assert query.is_acyclic()
            result, _ = egd_chase_query(query, [example4_key()])
            assert not is_acyclic_instance(result.instance)

    def test_example5_ring_growth(self):
        for n in (3, 6):
            query = example5_ring_query(n)
            assert query.is_acyclic()
            result, _ = egd_chase_query(query, example5_keys())
            assert not is_acyclic_instance(result.instance)

    def test_example4_key_is_not_k2_schema_compatible(self):
        # The Example 4/5 constructions need a predicate of arity ≥ 3, in
        # contrast with the K2 positive result.
        assert example4_query().schema().max_arity == 3
        assert example5_ring_query(3).schema().max_arity == 4
