"""Tests for tree and hypertree decompositions (repro.hypergraph.decompositions)."""

from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import elimination_reference as reference
from repro.datamodel import (
    Atom,
    Constant,
    Database,
    Instance,
    Null,
    Predicate,
    Variable,
    freeze_variable,
)
from repro.evaluation import DecompositionEvaluator
from repro.hypergraph import (
    HypertreeDecomposition,
    HypertreeNode,
    TreeDecomposition,
    decomposition_from_elimination_order,
    hypertree_decomposition_of_atoms,
    hypertree_from_join_tree,
    hypertree_from_tree_decomposition,
    hypertree_width_upper_bound,
    instance_connectors,
    instance_treewidth,
    join_tree_of_query_atoms,
    min_degree_order,
    min_fill_order,
    query_connectors,
    query_treewidth,
    tree_decomposition_min_degree,
    tree_decomposition_min_fill,
    treewidth_exact,
    treewidth_upper_bound,
)
from repro.parser import parse_query
from repro.queries import ConjunctiveQuery, gaifman_graph_of_atoms, gaifman_graph_of_instance
from repro.workloads.generators import cycle_query, path_query, star_query


E = Predicate("E", 2)
R = Predicate("R", 2)


def clique_graph(size):
    """Adjacency graph of a clique over ``size`` integer vertices."""
    return {i: {j for j in range(size) if j != i} for i in range(size)}


def path_graph(size):
    """Adjacency graph of a path over ``size`` integer vertices."""
    graph = {i: set() for i in range(size)}
    for i in range(size - 1):
        graph[i].add(i + 1)
        graph[i + 1].add(i)
    return graph


def cycle_graph(size):
    """Adjacency graph of a cycle over ``size`` integer vertices."""
    graph = path_graph(size)
    graph[0].add(size - 1)
    graph[size - 1].add(0)
    return graph


def grid_graph(rows, columns):
    """Adjacency graph of a rows × columns grid."""
    graph = {(i, j): set() for i in range(rows) for j in range(columns)}
    for i in range(rows):
        for j in range(columns):
            if i + 1 < rows:
                graph[(i, j)].add((i + 1, j))
                graph[(i + 1, j)].add((i, j))
            if j + 1 < columns:
                graph[(i, j)].add((i, j + 1))
                graph[(i, j + 1)].add((i, j))
    return graph


class TestTreeDecompositionObject:
    def test_single_bag_decomposition(self):
        decomposition = TreeDecomposition({0: {"x", "y"}})
        assert decomposition.width == 1
        assert decomposition.vertices() == {"x", "y"}
        assert decomposition.edges() == []

    def test_rejects_empty_bag_set(self):
        with pytest.raises(ValueError):
            TreeDecomposition({})

    def test_rejects_edges_to_unknown_bags(self):
        with pytest.raises(ValueError):
            TreeDecomposition({0: {"x"}}, [(0, 1)])

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            TreeDecomposition({0: {"x"}, 1: {"y"}}, [(0, 0), (0, 1)])

    def test_rejects_cycles_in_the_bag_graph(self):
        bags = {0: {"a"}, 1: {"b"}, 2: {"c"}}
        with pytest.raises(ValueError):
            TreeDecomposition(bags, [(0, 1), (1, 2), (2, 0)])

    def test_rejects_disconnected_bag_graph(self):
        with pytest.raises(ValueError):
            TreeDecomposition({0: {"a"}, 1: {"b"}}, [])

    def test_validity_check_accepts_a_correct_decomposition(self):
        graph = path_graph(3)
        decomposition = TreeDecomposition({0: {0, 1}, 1: {1, 2}}, [(0, 1)])
        assert decomposition.is_valid_for(graph)

    def test_validity_check_rejects_missing_vertex(self):
        graph = path_graph(3)
        decomposition = TreeDecomposition({0: {0, 1}})
        assert not decomposition.is_valid_for(graph)

    def test_validity_check_rejects_uncovered_edge(self):
        graph = path_graph(3)
        decomposition = TreeDecomposition({0: {0, 1}, 1: {2}}, [(0, 1)])
        assert not decomposition.is_valid_for(graph)

    def test_validity_check_rejects_broken_running_intersection(self):
        graph = path_graph(4)
        # Vertex 1 occurs in two bags that are not adjacent in the bag tree.
        decomposition = TreeDecomposition(
            {0: {0, 1}, 1: {2, 3}, 2: {1, 2}},
            [(0, 1), (1, 2)],
        )
        assert not decomposition.is_valid_for(graph)

    def test_neighbours_and_len(self):
        decomposition = TreeDecomposition({0: {"a"}, 1: {"a", "b"}}, [(0, 1)])
        assert len(decomposition) == 2
        assert decomposition.neighbours(0) == {1}
        assert decomposition.bag(1) == frozenset({"a", "b"})


class TestEliminationOrders:
    def test_orders_cover_every_vertex_once(self):
        graph = cycle_graph(6)
        for order in (min_fill_order(graph), min_degree_order(graph)):
            assert sorted(order) == sorted(graph)

    def test_decomposition_from_any_order_is_valid(self):
        graph = cycle_graph(5)
        order = sorted(graph)
        decomposition = decomposition_from_elimination_order(graph, order)
        assert decomposition.is_valid_for(graph)

    def test_decomposition_rejects_incomplete_order(self):
        graph = path_graph(3)
        with pytest.raises(ValueError):
            decomposition_from_elimination_order(graph, [0, 1])

    def test_min_fill_is_exact_on_trees(self):
        graph = path_graph(8)
        decomposition = tree_decomposition_min_fill(graph)
        assert decomposition.is_valid_for(graph)
        assert decomposition.width == 1

    def test_min_degree_is_exact_on_trees(self):
        graph = path_graph(8)
        decomposition = tree_decomposition_min_degree(graph)
        assert decomposition.is_valid_for(graph)
        assert decomposition.width == 1

    def test_heuristics_on_cliques(self):
        graph = clique_graph(6)
        for decomposition in (
            tree_decomposition_min_fill(graph),
            tree_decomposition_min_degree(graph),
        ):
            assert decomposition.is_valid_for(graph)
            assert decomposition.width == 5

    def test_empty_graph_handled(self):
        assert treewidth_upper_bound({}) == 0
        assert tree_decomposition_min_fill({}).width <= 0


class TestTreewidthValues:
    def test_isolated_vertices_have_width_zero(self):
        graph = {0: set(), 1: set()}
        assert treewidth_upper_bound(graph) == 0
        assert treewidth_exact(graph) == 0

    def test_path_has_width_one(self):
        assert treewidth_exact(path_graph(7)) == 1

    def test_cycle_has_width_two(self):
        assert treewidth_exact(cycle_graph(7)) == 2

    def test_clique_has_width_n_minus_one(self):
        assert treewidth_exact(clique_graph(5)) == 4

    def test_grid_width_matches_side(self):
        graph = grid_graph(3, 3)
        assert treewidth_exact(graph, max_vertices=9) == 3

    def test_exact_never_exceeds_heuristic(self):
        for graph in (cycle_graph(6), grid_graph(2, 4), clique_graph(5)):
            assert treewidth_exact(graph, max_vertices=10) <= treewidth_upper_bound(graph)

    def test_exact_rejects_large_graphs(self):
        with pytest.raises(ValueError):
            treewidth_exact(clique_graph(20), max_vertices=10)


class TestQueryAndInstanceTreewidth:
    def test_acyclic_query_width_bounded_by_arity(self):
        query = path_query(5)
        assert query_treewidth(query.body, exact_limit=10) == 1

    def test_triangle_query_width_two(self, triangle_query):
        assert query_treewidth(triangle_query.body, exact_limit=10) == 2

    def test_star_query_width_one(self):
        query = star_query(6)
        assert query_treewidth(query.body) == 1

    def test_cycle_query_width_two(self):
        query = cycle_query(6)
        assert query_treewidth(query.body, exact_limit=10) == 2

    def test_instance_treewidth_of_a_grid(self):
        from repro.workloads.generators import grid_database

        database = grid_database(3, 3)
        width = instance_treewidth(database, exact_limit=9)
        assert width == 3

    def test_chase_with_example2_tgd_raises_treewidth(self):
        # Example 2: chasing P(x1) ∧ ... ∧ P(xn) with P(x), P(y) → R(x, y)
        # produces an n-clique, so the treewidth jumps from 0 to n - 1.
        from repro.chase import chase_query
        from repro.workloads.paper_examples import example2_query, example2_tgd

        n = 5
        query = example2_query(n)
        assert query_treewidth(query.body, exact_limit=10) == 0
        result, _ = chase_query(query, [example2_tgd()])
        chased_width = instance_treewidth(result.instance, exact_limit=10)
        assert chased_width == n - 1


class TestHypertreeDecompositions:
    def test_join_tree_gives_width_one(self):
        query = path_query(4)
        join_tree = join_tree_of_query_atoms(query.body)
        decomposition = hypertree_from_join_tree(join_tree)
        assert decomposition.width == 1
        assert decomposition.is_valid_for(query.body)

    def test_acyclic_atoms_get_width_one_automatically(self):
        query = star_query(5)
        decomposition = hypertree_decomposition_of_atoms(query.body)
        assert decomposition.width == 1
        assert decomposition.is_valid_for(query.body)

    def test_triangle_gets_width_two(self, triangle_query):
        decomposition = hypertree_decomposition_of_atoms(triangle_query.body)
        assert decomposition.is_valid_for(triangle_query.body)
        assert decomposition.width == 2

    def test_width_upper_bound_of_acyclic_query_is_one(self):
        assert hypertree_width_upper_bound(path_query(6).body) == 1

    def test_rejects_empty_atom_set(self):
        with pytest.raises(ValueError):
            hypertree_decomposition_of_atoms([])

    def test_guards_cover_bags(self, triangle_query):
        decomposition = hypertree_decomposition_of_atoms(triangle_query.body)
        for node in decomposition.nodes():
            covered = set()
            for guard in node.guards:
                covered.update(guard.variables())
            assert set(node.bag) <= covered

    def test_validity_rejects_foreign_guards(self):
        query = parse_query("E(x, y), E(y, z)")
        foreign = Atom(R, (Variable("x"), Variable("y")))
        nodes = {
            0: HypertreeNode(0, frozenset({Variable("x"), Variable("y")}), (foreign,)),
            1: HypertreeNode(
                1,
                frozenset({Variable("y"), Variable("z")}),
                (query.body[1],),
            ),
        }
        decomposition = HypertreeDecomposition(nodes, [(0, 1)])
        assert not decomposition.is_valid_for(query.body)

    def test_validity_rejects_uncovered_bag(self):
        query = parse_query("E(x, y), E(y, z)")
        nodes = {
            0: HypertreeNode(
                0,
                frozenset({Variable("x"), Variable("y"), Variable("z")}),
                (query.body[0],),
            ),
        }
        decomposition = HypertreeDecomposition(nodes)
        assert not decomposition.is_valid_for(query.body)

    def test_hypertree_from_tree_decomposition_on_a_clique_of_edges(self):
        # A clique made of binary atoms: every bag of size k needs ~k/2 guards.
        variables = [Variable(f"x{i}") for i in range(6)]
        atoms = [
            Atom(E, (variables[i], variables[j]))
            for i in range(6)
            for j in range(i + 1, 6)
        ]
        graph = gaifman_graph_of_atoms(atoms)
        tree = tree_decomposition_min_fill(graph)
        decomposition = hypertree_from_tree_decomposition(atoms, tree)
        assert decomposition.is_valid_for(atoms)
        assert decomposition.width >= 3
        assert decomposition.width <= 5

    def test_example2_chase_raises_hypertree_width(self):
        from repro.chase import chase_query
        from repro.workloads.paper_examples import example2_query, example2_tgd

        n = 6
        query = example2_query(n)
        assert hypertree_width_upper_bound(query.body) == 1
        result, _ = chase_query(query, [example2_tgd()])
        atoms = list(result.instance)
        from repro.hypergraph import instance_connectors

        chased_width = hypertree_width_upper_bound(atoms, instance_connectors)
        assert chased_width >= n // 2

    def test_tree_decomposition_accessor(self):
        query = path_query(3)
        decomposition = hypertree_decomposition_of_atoms(query.body)
        underlying = decomposition.tree_decomposition()
        assert isinstance(underlying, TreeDecomposition)
        assert len(underlying) == len(decomposition)


# ----------------------------------------------------------------------
# The one builder and the one greedy loop against the code they replaced
# ----------------------------------------------------------------------
@st.composite
def graphs(draw):
    """Graphs over up to 12 int vertices: empty, sparse (isolated vertices,
    many degree and fill-in ties) or dense.  Past 9 vertices ``str`` order
    ("10" < "2") differs from int order, so the tie-break is exercised."""
    size = draw(st.integers(0, 12))
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    graph = {vertex: set() for vertex in range(size)}
    for left, right in chosen:
        graph[left].add(right)
        graph[right].add(left)
    return graph


def _same_decomposition(ours, theirs):
    return ours.bags == theirs.bags and ours.edges() == theirs.edges()


@settings(max_examples=300, deadline=None)
@given(graph=graphs(), data=st.data())
def test_elimination_agrees_with_the_reference_loops(graph, data):
    """Min-fill and min-degree orders, and the bags and edges built from
    them or from any order, are those of the two loops the greedy loop
    replaced."""
    for order_of, reference_order_of, decompose in (
        (min_fill_order, reference.min_fill_order, tree_decomposition_min_fill),
        (min_degree_order, reference.min_degree_order, tree_decomposition_min_degree),
    ):
        order = order_of(graph)
        assert order == reference_order_of(graph)
        expected = reference.decomposition_from_elimination_order(graph, order)
        assert _same_decomposition(decompose(graph), expected)
    shuffled = data.draw(st.permutations(sorted(graph)))
    assert _same_decomposition(
        decomposition_from_elimination_order(graph, shuffled),
        reference.decomposition_from_elimination_order(graph, shuffled),
    )


#: Variables, nulls, frozen query variables and plain constants.
TERM_POOL = (
    [Variable(name) for name in "uvwxy"]
    + [Null("n0"), Null("n1")]
    + [freeze_variable(Variable(name)) for name in "ab"]
    + [Constant("k"), Constant("m")]
)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.lists(st.sampled_from(TERM_POOL), min_size=1, max_size=4), max_size=8)
)
def test_gaifman_builder_agrees_with_both_reference_builders(rows):
    atoms = [Atom(Predicate(f"R{len(row)}", len(row)), tuple(row)) for row in rows]
    assert gaifman_graph_of_atoms(atoms) == reference.gaifman_graph_of_atoms(atoms)
    ground = [atom for atom in atoms if not atom.variables()]
    assert gaifman_graph_of_instance(Instance(ground)) == reference.gaifman_graph_of_atoms(
        Instance(ground), use_all_terms=True
    )
    for policy in (query_connectors, instance_connectors):
        assert gaifman_graph_of_atoms(atoms, policy) == reference.connector_graph(atoms, policy)


T3 = Predicate("T", 3)
_ORACLE_DATABASE = Database(
    [Atom(E, (Constant(f"c{i % 5}"), Constant(f"c{(i * 3 + 1) % 5}"))) for i in range(12)]
    + [Atom(R, (Constant(f"c{i % 4}"), Constant(f"c{(i + 2) % 5}"))) for i in range(8)]
    + [
        Atom(T3, (Constant(f"c{i % 3}"), Constant(f"c{i % 5}"), Constant(f"c{(i + 1) % 4}")))
        for i in range(10)
    ]
)


@st.composite
def cyclic_queries(draw):
    """Random cyclic CQs of 3–7 binary and ternary atoms over 6 variables."""
    variables = [Variable(f"x{i}") for i in range(6)]
    body = []
    for _ in range(draw(st.integers(3, 7))):
        predicate = draw(st.sampled_from([E, R, T3]))
        terms = tuple(draw(st.sampled_from(variables)) for _ in range(predicate.arity))
        body.append(Atom(predicate, terms))
    used = sorted({v for atom in body for v in atom.variables()}, key=str)
    head = draw(st.lists(st.sampled_from(used), max_size=2))
    query = ConjunctiveQuery(tuple(head), body)
    assume(not query.is_acyclic())
    return query


def _reference_min_fill(graph):
    return reference.decomposition_from_elimination_order(graph, reference.min_fill_order(graph))


@settings(max_examples=80, deadline=None)
@given(query=cyclic_queries())
def test_decomposition_route_agrees_with_the_reference_loops(query):
    """``DecompositionEvaluator`` builds the same bag tree (parents and the
    order of children) and prints the same EXPLAIN, probes included, as
    with the reference builder and min-fill loop in its place."""
    ours = DecompositionEvaluator(query)
    with mock.patch(
        "repro.evaluation.planner_dp.gaifman_graph_of_atoms", reference.gaifman_graph_of_atoms
    ), mock.patch(
        "repro.evaluation.planner_dp.tree_decomposition_min_fill", _reference_min_fill
    ):
        theirs = DecompositionEvaluator(query)
    assert _same_decomposition(ours.decomposition, theirs.decomposition)
    assert ours.join_tree.root == theirs.join_tree.root
    for node in ours.join_tree.node_ids():
        assert ours.join_tree.parent(node) == theirs.join_tree.parent(node)
        assert ours.join_tree.children(node) == theirs.join_tree.children(node)
    assert ours.explain(_ORACLE_DATABASE) == theirs.explain(_ORACLE_DATABASE)
