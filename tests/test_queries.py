"""Tests for CQs, UCQs, homomorphisms, evaluation and core minimisation."""

import pytest

from repro.containment import cq_contained_in, cq_equivalent
from repro.datamodel import Atom, Constant, Database, Instance, Predicate, Variable
from repro.parser import parse_query
from repro.queries import (
    ConjunctiveQuery,
    UnionOfConjunctiveQueries,
    boolean_query,
    core,
    find_homomorphism,
    has_homomorphism,
    homomorphically_equivalent,
    homomorphisms,
    is_core,
    is_homomorphism,
    is_semantically_acyclic_unconstrained,
    query_from_instance,
)


E = Predicate("E", 2)
R = Predicate("R", 2)
S = Predicate("S", 3)


def edge_db(*edges):
    database = Database()
    for source, target in edges:
        database.add(Atom(E, (Constant(source), Constant(target))))
    return database


class TestConjunctiveQuery:
    def test_head_safety_is_enforced(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery((Variable("x"),), [Atom(E, (Variable("y"), Variable("z")))])

    def test_nulls_are_rejected_in_bodies(self):
        from repro.datamodel import Null

        with pytest.raises(ValueError):
            boolean_query([Atom(E, (Null("n"), Variable("x")))])

    def test_basic_accessors(self):
        query = parse_query("q(x) :- E(x, y), E(y, x)")
        assert len(query) == 2
        assert query.head == (Variable("x"),)
        assert query.existential_variables() == {Variable("y")}
        assert not query.is_boolean()

    def test_gaifman_connectivity(self):
        connected = parse_query("E(x, y), E(y, z)")
        disconnected = parse_query("E(x, y), E(u, v)")
        assert connected.is_connected()
        assert not disconnected.is_connected()
        components = disconnected.connected_components()
        assert len(components) == 2

    def test_connected_components_keep_head_variables(self):
        query = parse_query("q(x, u) :- E(x, y), E(u, v)")
        heads = {component.head for component in query.connected_components()}
        assert (Variable("x"),) in heads
        assert (Variable("u"),) in heads

    def test_acyclicity(self, triangle_query, path3_query):
        assert not triangle_query.is_acyclic()
        assert path3_query.is_acyclic()

    def test_alpha_acyclicity_is_not_hereditary(self):
        # Triangle plus a covering atom is acyclic even though the triangle alone is not.
        covered = parse_query("E(x, y), E(y, z), E(z, x), S(x, y, z)")
        assert covered.is_acyclic()

    def test_freeze_produces_canonical_database(self):
        query = parse_query("q(x) :- E(x, y)")
        database, freezing = query.freeze()
        assert len(database) == 1
        assert set(freezing) == {Variable("x"), Variable("y")}
        assert database.is_database()

    def test_evaluation_over_database(self):
        query = parse_query("q(x) :- E(x, y), E(y, x)")
        database = edge_db(("a", "b"), ("b", "a"), ("b", "c"))
        answers = query.evaluate(database)
        assert answers == {(Constant("a"),), (Constant("b"),)}

    def test_boolean_holds_in(self, triangle_query):
        assert triangle_query.holds_in(edge_db(("a", "b"), ("b", "c"), ("c", "a")))
        assert not triangle_query.holds_in(edge_db(("a", "b"), ("b", "c")))

    def test_holds_in_with_answer(self):
        query = parse_query("q(x, y) :- E(x, y)")
        database = edge_db(("a", "b"))
        assert query.holds_in(database, (Constant("a"), Constant("b")))
        assert not query.holds_in(database, (Constant("b"), Constant("a")))
        with pytest.raises(ValueError):
            query.holds_in(database, (Constant("a"),))

    def test_apply_and_rename_apart(self):
        query = parse_query("q(x) :- E(x, y)")
        renamed = query.rename_apart([Variable("x"), Variable("y")])
        assert renamed.variables().isdisjoint({Variable("x"), Variable("y")})
        with pytest.raises(ValueError):
            query.apply({Variable("x"): Constant("a")})

    def test_conjoin(self):
        left = parse_query("q(x) :- E(x, y)")
        right = parse_query("p(z) :- E(z, w)")
        conjunction = left.conjoin(right)
        assert len(conjunction) == 2
        assert conjunction.head == (Variable("x"), Variable("z"))

    def test_subquery_drops_lost_head_variables(self):
        query = parse_query("q(x, w) :- E(x, y), E(z, w)")
        sub = query.subquery([query.body[0]])
        assert sub.head == (Variable("x"),)

    def test_query_from_instance_round_trip(self):
        instance = Instance([Atom(E, (Constant("a"), Constant("b")))])
        query = query_from_instance(instance)
        assert len(query) == 1
        assert query.is_boolean()
        assert query.holds_in(instance)

    def test_syntactic_equality(self):
        first = parse_query("E(x, y), E(y, z)")
        second = parse_query("E(y, z), E(x, y)")
        assert first == second
        assert hash(first) == hash(second)


class TestHomomorphisms:
    def test_all_homomorphisms_enumerated(self):
        query = parse_query("E(x, y)")
        database = edge_db(("a", "b"), ("b", "c"))
        assert len(list(homomorphisms(query.body, database))) == 2

    def test_seed_restricts_search(self):
        query = parse_query("E(x, y)")
        database = edge_db(("a", "b"), ("b", "c"))
        seeded = list(homomorphisms(query.body, database, seed={Variable("x"): Constant("b")}))
        assert len(seeded) == 1
        assert seeded[0][Variable("y")] == Constant("c")

    def test_constants_are_rigid(self):
        query = boolean_query([Atom(E, (Constant("a"), Variable("y")))])
        assert has_homomorphism(query.body, edge_db(("a", "b")))
        assert not has_homomorphism(query.body, edge_db(("b", "a")))

    def test_repeated_variables_force_equality(self):
        loop = boolean_query([Atom(E, (Variable("x"), Variable("x")))])
        assert not has_homomorphism(loop.body, edge_db(("a", "b")))
        assert has_homomorphism(loop.body, edge_db(("a", "a")))

    def test_empty_source_has_trivial_homomorphism(self):
        assert find_homomorphism([], edge_db(("a", "b"))) == {}

    def test_is_homomorphism_checker(self):
        query = parse_query("E(x, y)")
        database = edge_db(("a", "b"))
        mapping = find_homomorphism(query.body, database)
        assert is_homomorphism(mapping, query.body, database)
        assert not is_homomorphism({Variable("x"): Constant("b"), Variable("y"): Constant("a")}, query.body, database)

    def test_homomorphic_equivalence(self):
        from repro.datamodel import Null

        cycle2 = [Atom(E, (Null("a"), Null("b"))), Atom(E, (Null("b"), Null("a")))]
        cycle4 = [
            Atom(E, (Null(1), Null(2))),
            Atom(E, (Null(2), Null(3))),
            Atom(E, (Null(3), Null(4))),
            Atom(E, (Null(4), Null(1))),
        ]
        # The 4-cycle maps onto the 2-cycle but not conversely.
        assert has_homomorphism(cycle4, cycle2)
        assert not has_homomorphism(cycle2, cycle4)
        assert not homomorphically_equivalent(cycle2, cycle4)
        assert homomorphically_equivalent(cycle2, cycle2)


class TestCoreAndContainment:
    def test_containment_chandra_merlin(self):
        path2 = parse_query("E(x, y), E(y, z)")
        edge = parse_query("E(x, y)")
        assert cq_contained_in(path2, edge)
        assert not cq_contained_in(edge, path2)

    def test_containment_respects_head_arity(self):
        unary = parse_query("q(x) :- E(x, y)")
        binary = parse_query("q(x, y) :- E(x, y)")
        assert not cq_contained_in(unary, binary)

    def test_core_folds_redundant_atoms(self):
        query = parse_query("E(x, y), E(x, z)")
        minimal = core(query)
        assert len(minimal) == 1
        assert cq_equivalent(query, minimal)

    def test_core_preserves_free_variables(self):
        query = parse_query("q(x) :- E(x, y), E(x, z)")
        minimal = core(query)
        assert minimal.head == (Variable("x"),)
        assert len(minimal) == 1

    def test_core_of_a_core_is_itself(self, triangle_query):
        assert is_core(triangle_query)
        assert core(triangle_query) == triangle_query

    def test_free_variables_block_folding(self):
        query = parse_query("q(y, z) :- E(x, y), E(x, z)")
        assert is_core(query)

    def test_semantic_acyclicity_unconstrained(self, triangle_query):
        assert not is_semantically_acyclic_unconstrained(triangle_query)
        # A cyclic-looking query with a redundant atom whose core is acyclic.
        redundant = parse_query("E(x, y), E(y, z), E(x, w)")
        assert is_semantically_acyclic_unconstrained(redundant)


class TestUCQ:
    def test_arity_mismatch_rejected(self):
        unary = parse_query("q(x) :- E(x, y)")
        boolean = parse_query("E(x, y)")
        with pytest.raises(ValueError):
            UnionOfConjunctiveQueries([unary, boolean])

    def test_empty_union_rejected(self):
        with pytest.raises(ValueError):
            UnionOfConjunctiveQueries([])

    def test_evaluation_is_union_of_disjuncts(self):
        q1 = parse_query("q(x) :- E(x, y), E(y, x)")
        q2 = parse_query("q(x) :- E(x, x)")
        ucq = UnionOfConjunctiveQueries([q1, q2])
        database = edge_db(("a", "b"), ("b", "a"), ("c", "c"))
        assert ucq.evaluate(database) == {(Constant("a"),), (Constant("b"),), (Constant("c"),)}

    def test_height_and_sizes(self):
        q1 = parse_query("E(x, y)")
        q2 = parse_query("E(x, y), E(y, z)")
        ucq = UnionOfConjunctiveQueries([q1, q2])
        assert ucq.height() == 2
        assert ucq.total_size() == 3
        assert len(ucq) == 2

    def test_deduplicate_and_without(self):
        q1 = parse_query("E(x, y)")
        q2 = parse_query("E(u, v)")
        ucq = UnionOfConjunctiveQueries([q1, q1, q2])
        assert len(ucq.deduplicate()) == 2
        assert len(ucq.without(q2)) == 2

    def test_is_acyclic(self, triangle_query, path3_query):
        assert UnionOfConjunctiveQueries([path3_query]).is_acyclic()
        assert not UnionOfConjunctiveQueries([path3_query, triangle_query]).is_acyclic()
