"""Tests for the tgd chase, the egd chase, the guarded forest and preservation."""

import gc

import pytest

from repro.chase import (
    ChaseBudgetExceeded,
    EGDChaseFailure,
    chase,
    chase_query,
    chase_terminates,
    chased_query,
    egd_chase,
    egd_chase_query,
    egd_chase_preserves_acyclicity,
    guarded_chase_forest,
    guarded_chase_join_tree,
    tgd_chase_preserves_acyclicity,
)
from repro.datamodel import Atom, Constant, Instance, Predicate, Variable
from repro.dependencies import FunctionalDependency, fds_to_egds, key
from repro.hypergraph import instance_connectors, is_acyclic_instance, is_valid_join_tree
from repro.parser import parse_egd, parse_query, parse_tgd
from repro.workloads.paper_examples import (
    example2_query,
    example2_tgd,
    example4_key,
    example4_query,
    example5_keys,
    example5_ring_query,
    k2_collapse_example,
)


R = Predicate("R", 2)
S = Predicate("S", 3)


def instance_of(*facts):
    return Instance(facts)


class TestTgdChase:
    def test_full_tgd_fixpoint(self):
        tgd = parse_tgd("R(x, y) -> R(y, x)")
        start = instance_of(Atom(R, (Constant("a"), Constant("b"))))
        result = chase(start, [tgd])
        assert result.terminated
        assert Atom(R, (Constant("b"), Constant("a"))) in result.instance
        assert len(result.instance) == 2
        assert result.satisfies([tgd])

    def test_existential_tgd_creates_nulls(self):
        tgd = parse_tgd("R(x, y) -> S(x, y, z)")
        start = instance_of(Atom(R, (Constant("a"), Constant("b"))))
        result = chase(start, [tgd])
        assert result.terminated
        new_atoms = result.instance.atoms_with_predicate(S)
        assert len(new_atoms) == 1
        assert next(iter(new_atoms)).nulls()

    def test_restricted_chase_does_not_refire_satisfied_heads(self):
        tgd = parse_tgd("R(x, y) -> S(x, y, z)")
        start = instance_of(
            Atom(R, (Constant("a"), Constant("b"))),
            Atom(S, (Constant("a"), Constant("b"), Constant("c"))),
        )
        result = chase(start, [tgd])
        assert result.terminated
        assert len(result.instance) == 2
        assert result.step_count == 0

    def test_oblivious_chase_fires_anyway(self):
        tgd = parse_tgd("R(x, y) -> S(x, y, z)")
        start = instance_of(
            Atom(R, (Constant("a"), Constant("b"))),
            Atom(S, (Constant("a"), Constant("b"), Constant("c"))),
        )
        result = chase(start, [tgd], variant="oblivious")
        assert result.terminated
        assert len(result.instance) == 3

    def test_non_terminating_chase_hits_budget(self):
        tgd = parse_tgd("R(x, y) -> R(y, z)")
        start = instance_of(Atom(R, (Constant("a"), Constant("b"))))
        result = chase(start, [tgd], max_steps=25)
        assert not result.terminated
        assert result.budget_exhausted
        with pytest.raises(ChaseBudgetExceeded):
            chase(start, [tgd], max_steps=25, on_budget="raise")
        assert not chase_terminates(start, [tgd], max_steps=25)

    def test_depth_bounded_chase(self):
        tgd = parse_tgd("R(x, y) -> R(y, z)")
        start = instance_of(Atom(R, (Constant("a"), Constant("b"))))
        result = chase(start, [tgd], max_depth=3, max_steps=1000)
        assert result.budget_exhausted
        assert result.max_depth() <= 3

    def test_chase_query_freezes_variables(self):
        query = parse_query("q(x) :- R(x, y)")
        tgd = parse_tgd("R(x, y) -> R(y, x)")
        result, freezing = chase_query(query, [tgd])
        assert result.terminated
        assert Variable("x") in freezing
        assert len(result.instance) == 2

    def test_invalid_variant_rejected(self):
        with pytest.raises(ValueError):
            chase(Instance(), [parse_tgd("R(x, y) -> R(y, x)")], variant="bogus")

    def test_chase_step_records_depth_and_premises(self):
        tgd = parse_tgd("R(x, y) -> S(x, y, z)")
        start = instance_of(Atom(R, (Constant("a"), Constant("b"))))
        result = chase(start, [tgd])
        step = result.steps[0]
        assert step.depth == 1
        assert step.premise_atoms[0] in start
        assert all(atom in result.instance for atom in step.new_atoms)

    def test_multi_head_tgd(self):
        tgd = parse_tgd("R(x, y) -> S(x, y, z), R(y, z)")
        start = instance_of(Atom(R, (Constant("a"), Constant("b"))))
        result = chase(start, [tgd], max_steps=50)
        # The generated R(y, z) keeps triggering the rule: the chase does not terminate.
        assert not result.terminated
        assert len(result.instance.atoms_with_predicate(S)) > 1

    def test_truncated_chase_is_reproducible_across_reinterning(self):
        """A chase cut by ``max_steps`` stops on the same prefix in every
        call, even when its terms died in between and were interned again
        under new identities (and so with new hashes and set orders)."""
        tgd = parse_tgd("R(x, y) -> R(y, z)")

        def run(reverse):
            # Fresh constants, interned in a different order behind a
            # different allocation pattern on each call.
            ballast = [object() for _ in range(97 if reverse else 3)]
            names = [(f"s{i}", f"t{i}") for i in range(12)]
            if reverse:
                names.reverse()
            start = instance_of(
                *(Atom(R, (Constant(a), Constant(b))) for a, b in names)
            )
            # Round 1 fires all 12 triggers, round 2 is cut after 5 of its
            # 12 (one per fresh null, enumerated from a set of new atoms).
            result = chase(start, [tgd], max_steps=17)
            assert result.budget_exhausted and result.step_count == 17
            steps = [
                (
                    step.tgd_index,
                    sorted((str(v), str(t)) for v, t in step.trigger.items()),
                    [str(atom) for atom in step.new_atoms],
                )
                for step in result.steps
            ]
            atoms = sorted(str(atom) for atom in result.instance)
            del ballast
            return steps, atoms

        first = run(reverse=False)
        gc.collect()
        for reverse in (True, False, True):
            assert run(reverse) == first
            gc.collect()


class TestEgdChase:
    def test_key_merges_nulls_and_frozen_constants(self):
        query = parse_query("R(x, y), R(x, z), S(y, z, w)")
        egd = parse_egd("R(x, y), R(x, z) -> y = z")
        result, freezing = egd_chase_query(query, [egd])
        assert not result.failed
        assert len(result.instance.atoms_with_predicate(R)) == 1
        merged = {result.resolve(freezing[Variable("y")]), result.resolve(freezing[Variable("z")])}
        assert len(merged) == 1

    def test_constant_conflict_fails(self):
        egd = parse_egd("R(x, y), R(x, z) -> y = z")
        start = instance_of(
            Atom(R, (Constant("a"), Constant("b"))),
            Atom(R, (Constant("a"), Constant("c"))),
        )
        with pytest.raises(EGDChaseFailure):
            egd_chase(start, [egd])
        result = egd_chase(start, [egd], on_failure="return")
        assert result.failed

    def test_constant_wins_over_null(self):
        from repro.datamodel import Null

        egd = parse_egd("R(x, y), R(x, z) -> y = z")
        start = instance_of(
            Atom(R, (Constant("a"), Constant("b"))),
            Atom(R, (Constant("a"), Null("n"))),
        )
        result = egd_chase(start, [egd])
        assert not result.failed
        assert result.resolve(Null("n")) == Constant("b")

    def test_chase_is_idempotent_on_satisfying_instances(self):
        egd = parse_egd("R(x, y), R(x, z) -> y = z")
        start = instance_of(Atom(R, (Constant("a"), Constant("b"))))
        result = egd_chase(start, [egd])
        assert result.instance == start
        assert not result.steps

    def test_fd_chase_query(self):
        query = parse_query("R(x, y), R(x, z)")
        fd = key(R, {1})
        result, _ = egd_chase_query(query, fds_to_egds([fd]))
        assert len(result.instance) == 1

    def test_chased_query_example4(self):
        chased = chased_query(example4_query(), [example4_key()])
        assert len(chased) == 4
        assert not chased.is_acyclic()

    def test_chased_query_preserves_head(self):
        query = parse_query("q(x) :- R(x, y), R(x, z)")
        egd = parse_egd("R(x, y), R(x, z) -> y = z")
        chased = chased_query(query, [egd])
        assert len(chased.head) == 1
        assert len(chased) == 1


class TestGuardedForest:
    def test_forest_requires_guarded_sets(self):
        query = parse_query("R(x, y)")
        unguarded = [parse_tgd("R(x, y), R(y, z) -> R(x, z)")]
        with pytest.raises(ValueError):
            guarded_chase_forest(query, unguarded)

    def test_forest_parents_are_guard_images(self):
        query = parse_query("R(x, y)")
        tgds = [parse_tgd("R(x, y) -> S(x, y, z)")]
        forest = guarded_chase_forest(query, tgds)
        assert len(forest.parent_atom) == 1
        derived, anchor = next(iter(forest.parent_atom.items()))
        assert anchor in forest.roots
        assert forest.depth_of(derived) == 1

    def test_join_tree_of_guarded_chase_is_valid(self):
        query = parse_query("R(x, y), R(y, z)")
        tgds = [
            parse_tgd("R(x, y) -> S(x, y, w)"),
            parse_tgd("S(x, y, w) -> R(y, w)"),
        ]
        tree, forest = guarded_chase_join_tree(query, tgds, max_steps=200, max_depth=4)
        chase_atoms = forest.chase.instance.sorted_atoms()
        assert is_valid_join_tree(tree, chase_atoms, instance_connectors)

    def test_join_tree_requires_acyclic_query(self, triangle_query):
        tgds = [parse_tgd("E(x, y) -> E(y, x)")]
        with pytest.raises(ValueError):
            guarded_chase_join_tree(triangle_query, tgds)


class TestAcyclicityPreservation:
    def test_guarded_sets_preserve_acyclicity(self):
        query = parse_query("R(x, y), R(y, z)")
        tgds = [parse_tgd("R(x, y) -> S(x, y, w)"), parse_tgd("S(x, y, w) -> R(x, w)")]
        report = tgd_chase_preserves_acyclicity(query, tgds, max_steps=500, max_depth=4)
        assert report.query_acyclic
        assert report.chase_acyclic
        assert report.preserved

    def test_example2_destroys_acyclicity(self):
        report = tgd_chase_preserves_acyclicity(example2_query(4), [example2_tgd()])
        assert report.query_acyclic
        assert not report.chase_acyclic
        assert not report.preserved
        assert report.chase_terminated

    def test_example4_key_destroys_acyclicity(self):
        report = egd_chase_preserves_acyclicity(example4_query(), [example4_key()])
        assert report.query_acyclic
        assert not report.chase_acyclic

    def test_example5_ring_destroys_acyclicity(self):
        report = egd_chase_preserves_acyclicity(example5_ring_query(5), example5_keys())
        assert report.query_acyclic
        assert not report.chase_acyclic

    def test_k2_keys_preserve_acyclicity(self):
        # Proposition 22: keys over unary/binary predicates preserve acyclicity.
        query = parse_query("A(x, y), A(x, z), B(z, w)")
        egd = parse_egd("A(x, y), A(x, z) -> y = z")
        report = egd_chase_preserves_acyclicity(query, [egd])
        assert report.query_acyclic
        assert report.chase_acyclic
        assert report.preserved

    def test_k2_collapse_example_stays_acyclic_after_chase(self):
        query, egds = k2_collapse_example()
        # The query itself is cyclic, so "preserved" is vacuous, but the chase
        # must produce an acyclic instance (this is what makes it a positive
        # SemAc instance).
        report = egd_chase_preserves_acyclicity(query, egds)
        assert not report.query_acyclic
        assert report.chase_acyclic
