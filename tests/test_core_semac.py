"""Tests for the semantic-acyclicity deciders, approximations, UCQ variant and PCP reduction."""

import pytest

from repro.containment import (
    ContainmentOutcome,
    equivalent_under_egds,
    equivalent_under_tgds,
)
from repro.core import (
    PCPInstance,
    SemAcConfig,
    acyclic_approximations,
    decide_semantic_acyclicity,
    decide_semantic_acyclicity_egds,
    decide_semantic_acyclicity_fds,
    decide_semantic_acyclicity_tgds,
    decide_semantic_acyclicity_unconstrained,
    decide_ucq_semantic_acyclicity,
    pcp_query,
    pcp_tgds,
    solution_path_query,
    word_path_query,
)
from repro.core.candidates import (
    acyclic_subqueries,
    exhaustive_chase_candidates,
    generalisations_of_subinstance,
)
from repro.datamodel import Predicate, Variable
from repro.dependencies import FunctionalDependency, key
from repro.parser import parse_egd, parse_query, parse_tgd, parse_ucq
from repro.queries import UnionOfConjunctiveQueries
from repro.workloads.paper_examples import (
    example1_query,
    example1_tgd,
    example4_key,
    example4_query,
    guarded_triangle_example,
    k2_collapse_example,
)


class TestUnconstrainedSemAc:
    def test_acyclic_query_is_trivially_semantically_acyclic(self, path3_query):
        decision = decide_semantic_acyclicity_unconstrained(path3_query)
        assert decision.semantically_acyclic
        assert decision.witness.is_acyclic()
        assert decision.exhaustive

    def test_cyclic_core_is_not(self, triangle_query):
        decision = decide_semantic_acyclicity_unconstrained(triangle_query)
        assert not decision.semantically_acyclic
        assert decision.witness is None
        assert decision.exhaustive

    def test_redundant_cyclic_query_is_semantically_acyclic(self):
        query = parse_query("E(x, y), E(y, z), E(x, w)")
        decision = decide_semantic_acyclicity_unconstrained(query)
        assert decision.semantically_acyclic

    def test_dispatcher_with_no_constraints(self, triangle_query):
        assert not decide_semantic_acyclicity(triangle_query)
        assert not decide_semantic_acyclicity(triangle_query, []).semantically_acyclic


class TestSemAcUnderTgds:
    def test_example1(self, music_store):
        query, tgds, reformulation = music_store
        decision = decide_semantic_acyclicity_tgds(query, tgds)
        assert decision.semantically_acyclic
        assert decision.witness is not None
        assert decision.witness.is_acyclic()
        # The witness is verified equivalent to q under Σ.
        assert equivalent_under_tgds(query, decision.witness, tgds) is ContainmentOutcome.TRUE
        # ... and equivalent to the paper's reformulation.
        assert equivalent_under_tgds(reformulation, decision.witness, tgds) is ContainmentOutcome.TRUE

    def test_example1_not_semantically_acyclic_without_the_tgd(self, music_store):
        query, _, _ = music_store
        assert not decide_semantic_acyclicity_unconstrained(query).semantically_acyclic

    def test_guarded_example(self):
        query, tgds = guarded_triangle_example()
        decision = decide_semantic_acyclicity_tgds(query, tgds)
        assert decision.semantically_acyclic
        assert decision.witness.is_acyclic()
        assert equivalent_under_tgds(query, decision.witness, tgds) is ContainmentOutcome.TRUE
        assert "guarded" in decision.method

    def test_triangle_under_symmetry_is_not_semantically_acyclic(self, triangle_query):
        tgds = [parse_tgd("E(x, y) -> E(y, x)")]
        decision = decide_semantic_acyclicity_tgds(triangle_query, tgds)
        assert not decision.semantically_acyclic

    def test_already_acyclic_query_shortcut(self, path3_query):
        tgds = [parse_tgd("E(x, y) -> E(y, x)")]
        decision = decide_semantic_acyclicity_tgds(path3_query, tgds)
        assert decision.semantically_acyclic
        assert decision.witness == path3_query
        assert decision.method.startswith("syntactic")

    def test_full_tgds_are_flagged_as_undecidable_territory(self, triangle_query):
        tgds = [parse_tgd("E(x, y), E(y, z) -> E(x, z)")]
        decision = decide_semantic_acyclicity_tgds(triangle_query, tgds)
        assert any("undecidable" in note for note in decision.notes)

    def test_witness_for_triangle_under_transitive_closure(self, triangle_query):
        # Under transitivity plus symmetry every edge produces a triangle, so
        # the triangle query becomes equivalent to the single-edge query.
        tgds = [
            parse_tgd("E(x, y) -> E(y, x)"),
            parse_tgd("E(x, y), E(y, z) -> E(x, z)"),
        ]
        decision = decide_semantic_acyclicity_tgds(triangle_query, tgds)
        assert decision.semantically_acyclic
        assert decision.witness.is_acyclic()
        assert equivalent_under_tgds(query := triangle_query, decision.witness, tgds) is ContainmentOutcome.TRUE

    def test_exhaustive_mode_on_small_negative_instance(self, triangle_query):
        tgds = [parse_tgd("E(x, y) -> E(y, x)")]
        config = SemAcConfig(exhaustive=True, exhaustive_size_cap=3)
        decision = decide_semantic_acyclicity_tgds(triangle_query, tgds, config)
        assert not decision.semantically_acyclic
        # The exhaustive pass was capped below the theoretical bound, so the
        # negative answer is reported as non-exhaustive.
        assert not decision.exhaustive

    def test_decision_reports_candidate_counts(self, music_store):
        query, tgds, _ = music_store
        decision = decide_semantic_acyclicity_tgds(query, tgds)
        assert decision.candidates_checked >= 1
        assert decision.size_bound >= 2 * len(query) or decision.size_bound > 0


class TestSemAcUnderEgds:
    def test_k2_collapse(self):
        query, egds = k2_collapse_example()
        decision = decide_semantic_acyclicity_egds(query, egds)
        assert decision.semantically_acyclic
        assert decision.witness.is_acyclic()
        assert equivalent_under_egds(query, decision.witness, egds)

    def test_example4_query_is_trivially_semantically_acyclic(self):
        # The Example 4 query is itself acyclic (the paper's point is that the
        # *chase* with the key destroys acyclicity, not that the query fails
        # to be semantically acyclic), so the decision is a trivial positive.
        decision = decide_semantic_acyclicity_egds(
            example4_query(), [example4_key()], SemAcConfig(exhaustive=False)
        )
        assert decision.semantically_acyclic
        assert decision.method.startswith("syntactic")

    def test_example4_chase_destroys_acyclicity(self):
        # The acyclicity-preservation failure of Example 4 (keys over a
        # ternary/quaternary schema) is what the paper actually claims.
        from repro.chase import egd_chase_query

        query = example4_query()
        assert query.is_acyclic()
        result, _ = egd_chase_query(query, [example4_key()], on_failure="return")
        from repro.hypergraph import is_acyclic_instance

        assert not result.failed
        assert not is_acyclic_instance(result.instance)

    def test_failing_chase_short_circuit(self):
        # A cyclic query whose egd chase fails (it equates the constants 'a'
        # and 'b') is unsatisfiable over consistent databases, hence trivially
        # semantically acyclic.
        query = parse_query("E(x, y), E(y, z), E(z, x), R(x, 'a'), R(x, 'b')")
        egds = [parse_egd("R(x, y), R(x, z) -> y = z")]
        decision = decide_semantic_acyclicity_egds(query, egds)
        assert decision.semantically_acyclic
        assert decision.method == "failing-chase"

    def test_fd_dispatcher_notes_class(self):
        query, _ = k2_collapse_example()
        a_pred = Predicate("A", 2)
        fds = [key(a_pred, {1})]
        decision = decide_semantic_acyclicity_fds(query, fds)
        assert decision.semantically_acyclic
        assert any("K2" in note for note in decision.notes)

    def test_dispatcher_accepts_fds(self):
        query, _ = k2_collapse_example()
        a_pred = Predicate("A", 2)
        decision = decide_semantic_acyclicity(query, [key(a_pred, {1})])
        assert decision.semantically_acyclic

    def test_dispatcher_rejects_unknown_constraint_types(self, path3_query):
        with pytest.raises(TypeError):
            decide_semantic_acyclicity(path3_query, ["not a constraint"])

    def test_dispatcher_rejects_mixed_tgds_and_egds(self, triangle_query):
        # The tgd comes first; dispatching on it alone handed the egd to the
        # tgd classifier, which failed with an AttributeError.
        constraints = [
            parse_tgd("E(x, y) -> E(y, x)"),
            parse_egd("E(x, y), E(x, z) -> y = z"),
        ]
        for ordered in (constraints, constraints[::-1]):
            with pytest.raises(ValueError, match="mixing tgds and egds"):
                decide_semantic_acyclicity(triangle_query, ordered)


def test_sticky_decision_rewrites_the_query_once(monkeypatch):
    from repro.core import semantic_acyclicity as semac_module

    calls = []
    original = semac_module.rewrite

    def counting(query, tgds, *args):
        calls.append(query)
        return original(query, tgds, *args)

    monkeypatch.setattr(semac_module, "rewrite", counting)
    query = parse_query("q(x) :- E(x, y), E(y, z), E(z, x), P(x)")
    tgds = [parse_tgd("E(x, y), T(y, z, w) -> T(y, x, u)"), parse_tgd("E(x, y) -> P(x)")]
    decision = decide_semantic_acyclicity_tgds(query, tgds)
    assert "class=sticky" in decision.notes
    assert calls == [query]


class TestCandidates:
    def test_acyclic_subqueries_respect_head(self):
        query = parse_query("q(x, w) :- E(x, y), E(y, z), E(z, w)")
        for candidate in acyclic_subqueries(query):
            assert set(candidate.head) == set(query.head)
            assert candidate.is_acyclic()

    def test_generalisations_cover_identity_and_full_split(self):
        query = parse_query("E(x, y), E(y, z)")
        frozen = query.canonical_database().sorted_atoms()
        generalisations = list(generalisations_of_subinstance(frozen, ()))
        sizes = {len(g.variables()) for g in generalisations}
        # The fully merged version has 3 variables; the fully split one has 4.
        assert 3 in sizes and 4 in sizes

    def test_exhaustive_candidates_are_acyclic(self, triangle_query):
        chase_instance = triangle_query.canonical_database()
        for candidate in exhaustive_chase_candidates(
            triangle_query, chase_instance, (), max_atoms=3, max_subsets=200
        ):
            assert candidate.is_acyclic()


class TestApproximations:
    def test_approximation_of_triangle_without_constraints(self, triangle_query):
        result = acyclic_approximations(triangle_query)
        assert result.approximations
        assert not result.exact
        from repro.containment import cq_contained_in

        for approximation in result.approximations:
            assert approximation.is_acyclic()
            assert cq_contained_in(approximation, triangle_query)

    def test_approximation_is_exact_for_semantically_acyclic_queries(self, music_store):
        query, tgds, _ = music_store
        result = acyclic_approximations(query, tgds)
        assert result.exact
        assert any(
            equivalent_under_tgds(query, approximation, tgds) is ContainmentOutcome.TRUE
            for approximation in result.approximations
        )

    def test_trivial_queries_exist_for_boolean_inputs(self, triangle_query):
        from repro.core import trivial_acyclic_queries

        trivial = trivial_acyclic_queries(triangle_query)
        assert len(trivial) == 1
        assert trivial[0].is_acyclic()
        from repro.containment import cq_contained_in

        assert cq_contained_in(trivial[0], triangle_query)

    def test_mixing_constraint_kinds_is_rejected(self, triangle_query):
        with pytest.raises(ValueError):
            acyclic_approximations(
                triangle_query,
                [parse_tgd("E(x, y) -> E(y, x)"), parse_egd("E(x, y), E(x, z) -> y = z")],
            )


class TestUCQSemanticAcyclicity:
    def test_union_with_acyclic_witnesses(self):
        ucq = parse_ucq("Interest(x, z), Class(y, z), Owns(x, y) ; Interest(x, z), Class(y, z)")
        # Boolean variant of Example 1 as a union: under the tgd both disjuncts
        # collapse to the acyclic one.
        decision = decide_ucq_semantic_acyclicity(ucq, [example1_tgd()])
        assert decision.semantically_acyclic
        assert decision.witness is not None
        assert decision.witness.is_acyclic()

    def test_redundant_cyclic_disjunct_is_dropped(self, triangle_query, path3_query):
        # The triangle is contained in the single-edge query, so the union is
        # equivalent to the (acyclic) single-edge query alone.
        edge = parse_query("E(x, y)")
        ucq = UnionOfConjunctiveQueries([triangle_query, edge])
        decision = decide_ucq_semantic_acyclicity(ucq, [])
        assert decision.semantically_acyclic
        statuses = set(decision.disjunct_status.values())
        assert "redundant" in statuses

    def test_union_with_a_stuck_disjunct(self, triangle_query):
        lonely = parse_query("F(u, v)")
        ucq = UnionOfConjunctiveQueries([triangle_query, lonely])
        decision = decide_ucq_semantic_acyclicity(ucq, [])
        assert not decision.semantically_acyclic
        assert decision.disjunct_status[0] == "stuck"

    def test_mutually_equivalent_disjuncts_keep_one_representative(self):
        first = parse_query("E(x, y)")
        second = parse_query("E(u, v), E(u, w)")
        ucq = UnionOfConjunctiveQueries([first, second])
        decision = decide_ucq_semantic_acyclicity(ucq, [])
        assert decision.semantically_acyclic
        assert decision.witness is not None
        assert len(decision.witness) >= 1


class TestPCPReduction:
    def test_pcp_instance_validation(self):
        with pytest.raises(ValueError):
            PCPInstance(("a",), ("a", "b"))
        with pytest.raises(ValueError):
            PCPInstance(("ac",), ("a",))

    def test_bounded_solver(self):
        solvable = PCPInstance(("a", "ab"), ("aa", "b"))
        assert solvable.has_solution_bounded(3) is not None
        unsolvable = PCPInstance(("ab",), ("ba",))
        assert unsolvable.has_solution_bounded(4) is None

    def test_solution_word(self):
        instance = PCPInstance(("a", "ab"), ("aa", "b"))
        assert instance.solution_word((0, 1)) == "aab"
        assert instance.solution_word((1,)) is None
        assert instance.solution_word(()) is None

    def test_construction_shapes(self):
        instance = PCPInstance(("a", "ab"), ("aa", "b"))
        query = pcp_query()
        tgds = pcp_tgds(instance)
        assert query.is_boolean()
        assert not query.is_acyclic()
        assert all(tgd.is_full() for tgd in tgds)
        # initialization + |instance| synchronization + |instance| finalization rules
        assert len(tgds) == 1 + 2 * instance.size

    def test_path_queries_are_acyclic(self):
        instance = PCPInstance(("a", "ab"), ("aa", "b"))
        path = solution_path_query(instance, (0, 1))
        assert path.is_acyclic()
        assert word_path_query("ab").is_acyclic()
        with pytest.raises(ValueError):
            solution_path_query(instance, (1,))
        with pytest.raises(ValueError):
            word_path_query("xyz")

    def test_reduction_positive_direction(self):
        # For a solvable instance the solution path query is equivalent to q.
        instance = PCPInstance(("a", "ab"), ("aa", "b"))
        query = pcp_query()
        tgds = pcp_tgds(instance)
        path = solution_path_query(instance, (0, 1))
        from repro.containment import ContainmentConfig

        outcome = equivalent_under_tgds(
            query, path, tgds, ContainmentConfig(max_steps=50_000)
        )
        assert outcome is ContainmentOutcome.TRUE

    def test_reduction_negative_direction_on_a_non_solution_word(self):
        # A word that is not a PCP solution gives a path query that is not
        # equivalent to q.
        instance = PCPInstance(("a", "ab"), ("aa", "b"))
        query = pcp_query()
        tgds = pcp_tgds(instance)
        path = word_path_query("ba")
        from repro.containment import ContainmentConfig

        outcome = equivalent_under_tgds(
            query, path, tgds, ContainmentConfig(max_steps=50_000)
        )
        assert outcome is ContainmentOutcome.FALSE
