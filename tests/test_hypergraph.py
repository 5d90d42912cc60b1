"""Tests for the GYO kernel, join trees and the Lemma 9 construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel import Atom, Constant, Instance, Null, Predicate, Variable, freeze_variable
from repro.hypergraph import (
    JoinTreeError,
    build_join_tree,
    compact_acyclic_query,
    gyo_parents,
    instance_connectors,
    is_acyclic_atoms,
    is_acyclic_instance,
    is_valid_join_tree,
    join_tree_of_instance,
    join_tree_of_query_atoms,
    query_connectors,
    vertex_masks,
)
from repro.parser import parse_query
from repro.containment import cq_contained_in
from repro.workloads.generators import random_acyclic_query

from helpers.gyo_reference import gyo_reduction


E = Predicate("E", 2)
S = Predicate("S", 3)


class TestConnectorPolicies:
    def test_query_connectors(self):
        assert query_connectors(Variable("x"))
        assert query_connectors(Null("n"))
        assert not query_connectors(Constant("a"))

    def test_instance_connectors(self):
        assert instance_connectors(Null("n"))
        assert instance_connectors(freeze_variable(Variable("x")))
        assert not instance_connectors(Constant("a"))

    def test_hypergraph_edges_mirror_atoms(self):
        query = parse_query("E(x, y), S(x, y, z), E(z, 'c'), E('c', 'd')")
        assert vertex_masks(query.body, query_connectors) == [0b011, 0b111, 0b100, 0]


class TestGYO:
    def test_path_is_acyclic(self):
        query = parse_query("E(x, y), E(y, z), E(z, w)")
        assert is_acyclic_atoms(query.body)

    def test_triangle_is_cyclic(self, triangle_query):
        assert not is_acyclic_atoms(triangle_query.body)

    def test_covered_triangle_is_acyclic(self):
        query = parse_query("E(x, y), E(y, z), E(z, x), S(x, y, z)")
        assert is_acyclic_atoms(query.body)

    def test_star_is_acyclic(self):
        query = parse_query("E(c, a), E(c, b), E(c, d)")
        assert is_acyclic_atoms(query.body)

    def test_square_is_cyclic(self):
        query = parse_query("E(a, b), E(b, c), E(c, d), E(d, a)")
        assert not is_acyclic_atoms(query.body)

    def test_disconnected_acyclic_components(self):
        query = parse_query("E(x, y), E(u, v)")
        assert is_acyclic_atoms(query.body)

    def test_constants_do_not_create_cycles(self):
        # A "triangle" through a constant is not a cycle of the query hypergraph.
        query = parse_query("E(x, 'c'), E('c', y), E(y, x)")
        assert is_acyclic_atoms(query.body)

    def test_instance_acyclicity_uses_nulls(self):
        cyclic = Instance(
            [
                Atom(E, (Null("a"), Null("b"))),
                Atom(E, (Null("b"), Null("c"))),
                Atom(E, (Null("c"), Null("a"))),
            ]
        )
        acyclic_with_constants = Instance(
            [
                Atom(E, (Constant("a"), Constant("b"))),
                Atom(E, (Constant("b"), Constant("c"))),
                Atom(E, (Constant("c"), Constant("a"))),
            ]
        )
        assert not is_acyclic_instance(cyclic)
        assert is_acyclic_instance(acyclic_with_constants)

    def test_gyo_reports_parents_for_acyclic_inputs(self):
        query = parse_query("E(x, y), E(y, z)")
        assert gyo_parents(vertex_masks(query.body, query_connectors)) == [1, None]

    @pytest.mark.parametrize(
        "text", ["E(x, y), E(u, v)", "E('c', 'd'), E(x, y)"], ids=["disconnected", "ground"]
    )
    def test_one_survivor_roots_a_disconnected_or_ground_body(self, text):
        # Atoms sharing no connector reduce to empty edges, and an empty
        # edge is absorbed: the reduction never stops with several roots.
        query = parse_query(text)
        parents = gyo_parents(vertex_masks(query.body, query_connectors))
        assert parents is not None and parents.count(None) == 1
        tree = build_join_tree(query.body)
        assert len(tree) == 2 and tree.parent(tree.root) is None
        assert is_valid_join_tree(tree, query.body, query_connectors)


#: Connectors under one policy or the other, and the rigid constants ``k``
#: and ``m``, which make atoms without connectors.
POOL = (
    [Variable(name) for name in "uvwx"]
    + [Null("n0"), Null("n1")]
    + [freeze_variable(Variable(name)) for name in "ab"]
    + [Constant("k"), Constant("m")]
)


def bodies(max_arity):
    rows = st.lists(
        st.lists(st.sampled_from(POOL), min_size=1, max_size=max_arity), max_size=8
    )
    return rows.map(
        lambda rows: [Atom(Predicate(f"R{len(row)}", len(row)), tuple(row)) for row in rows]
    )


@settings(max_examples=400, deadline=None)
@given(
    atoms=st.one_of(bodies(2), bodies(4)),
    policy=st.sampled_from([query_connectors, instance_connectors]),
)
def test_kernel_agrees_with_the_reference_reduction(atoms, policy):
    """The int-mask kernel and the dict-of-sets reduction it replaced give
    the same verdict and the same parent for every edge, on bodies of rank
    ≤ 2 and ≤ 4 with repeated edges, edges without connectors and several
    components."""
    parents = gyo_parents(vertex_masks(atoms, policy))
    reference = gyo_reduction([frozenset(t for t in a.terms if policy(t)) for a in atoms])
    assert (parents is not None) == reference.acyclic
    if parents is not None:
        assert parents == [reference.parents.get(index) for index in range(len(atoms))]
        assert len(reference.roots) == min(len(atoms), 1)
        if atoms:
            assert is_valid_join_tree(build_join_tree(atoms, policy), atoms, policy)


class TestJoinTrees:
    def test_join_tree_of_acyclic_query(self, path3_query):
        tree = join_tree_of_query_atoms(path3_query.body)
        assert len(tree) == 3
        assert is_valid_join_tree(tree, path3_query.body, query_connectors)

    def test_join_tree_rejects_cyclic_query(self, triangle_query):
        with pytest.raises(JoinTreeError):
            join_tree_of_query_atoms(triangle_query.body)

    def test_join_tree_of_star(self):
        query = parse_query("E(c, a), E(c, b), E(c, d), E(c, e)")
        tree = join_tree_of_query_atoms(query.body)
        assert is_valid_join_tree(tree, query.body, query_connectors)

    def test_join_tree_of_disconnected_query(self):
        query = parse_query("E(x, y), E(u, v), E(v, w)")
        tree = join_tree_of_query_atoms(query.body)
        assert len(tree) == 3
        assert is_valid_join_tree(tree, query.body, query_connectors)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000), size=st.integers(1, 7))
    def test_rerooted_is_a_join_tree_at_every_node(self, seed, size):
        query = random_acyclic_query(seed=seed, atom_count=size)
        tree = join_tree_of_query_atoms(query.body)
        root, parent_edges = tree.root, tree.edges()
        edges = {frozenset(edge) for edge in parent_edges}
        for node in tree.node_ids():
            rerooted = tree.rerooted(node)
            assert rerooted.root == node
            assert is_valid_join_tree(rerooted, query.body, query_connectors)
            assert {frozenset(edge) for edge in rerooted.edges()} == edges
            assert sorted(rerooted.bottom_up_order()) == tree.node_ids()
        # Pure: the original keeps its root and parents.
        assert (tree.root, tree.edges()) == (root, parent_edges)

    def test_join_tree_navigation(self):
        query = parse_query("E(x, y), E(y, z), E(z, w), E(z, u)")
        tree = join_tree_of_query_atoms(query.body)
        root = tree.root
        assert tree.parent(root) is None
        bottom_up = tree.bottom_up_order()
        assert bottom_up[-1] == root
        for identifier in tree.node_ids():
            for child in tree.children(identifier):
                assert tree.parent(child) == identifier
        leaves = tree.leaves()
        assert leaves
        # The path between two leaves passes through their common ancestor.
        if len(leaves) >= 2:
            path = tree.path(leaves[0], leaves[1])
            assert path[0] == leaves[0] and path[-1] == leaves[1]

    def test_join_tree_of_instance_with_frozen_constants(self):
        query = parse_query("E(x, y), E(y, z)")
        database = query.canonical_database()
        tree = join_tree_of_instance(database)
        assert is_valid_join_tree(tree, database, instance_connectors)

    def test_empty_input_rejected(self):
        with pytest.raises(JoinTreeError):
            build_join_tree([])


class TestCompactAcyclicQuery:
    def test_lemma9_on_a_long_path(self):
        # q asks for a single edge; the instance is a long frozen path.  The
        # compact query must contain the image, be acyclic, small, and
        # contained in q.
        query = parse_query("E(x, y)")
        path = parse_query("E(a, b), E(b, c), E(c, d), E(d, e), E(e, f)")
        instance = path.canonical_database()
        compact = compact_acyclic_query(query, instance)
        assert compact is not None
        assert compact.is_acyclic()
        assert len(compact) <= 2 * len(query)
        assert cq_contained_in(compact, query)

    def test_lemma9_respects_answers(self):
        query = parse_query("q(x) :- E(x, y), E(y, z)")
        path = parse_query("E(a, b), E(b, c), E(c, d)")
        instance = path.canonical_database()
        answer = (freeze_variable(Variable("a")),)
        compact = compact_acyclic_query(query, instance, answer=answer)
        assert compact is not None
        assert len(compact.head) == 1
        assert cq_contained_in(compact, query)

    def test_lemma9_returns_none_when_query_does_not_hold(self):
        query = parse_query("E(x, x)")
        path = parse_query("E(a, b), E(b, c)")
        compact = compact_acyclic_query(query, path.canonical_database())
        assert compact is None

    def test_lemma9_size_bound_on_branching_instances(self):
        # A star instance with many rays: the compact query stays within 2|q|.
        query = parse_query("E(x, y), E(x, z)")
        star = parse_query(
            "E(c, a1), E(c, a2), E(c, a3), E(c, a4), E(c, a5), E(c, a6)"
        )
        compact = compact_acyclic_query(query, star.canonical_database())
        assert compact is not None
        assert len(compact) <= 2 * len(query)
        assert cq_contained_in(compact, query)
