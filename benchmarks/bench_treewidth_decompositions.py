"""E16 (ablation) — structural width before and after the chase.

Extends E6/E9: the paper remarks (Example 2, Example 5, footnote 4) that
chasing with non-recursive/sticky tgds or with keys over wider schemas
destroys not only acyclicity but *bounded (hyper)tree width*.  This bench
measures tree decompositions and generalized hypertree decompositions of the
query and of its chase as the scaling parameter grows, and compares the
exact treewidth with the min-fill / min-degree heuristics (the decomposition
ablation called out in DESIGN.md).
"""

import pytest

from repro.chase import chase_query, egd_chase_query
from repro.datamodel import Atom, Constant, Database, Predicate
from repro.evaluation import DecompositionEvaluator, evaluate_generic
from repro.hypergraph import (
    hypertree_width_upper_bound,
    instance_connectors,
    instance_treewidth,
    query_treewidth,
    tree_decomposition_min_degree,
    tree_decomposition_min_fill,
    treewidth_exact,
)
from repro.queries import gaifman_graph_of_instance
from repro.reporting import BenchSnapshot
from repro.workloads.generators import cycle_query
from repro.workloads.paper_examples import (
    example2_query,
    example2_tgd,
    example4_key,
    example4_scaled_query,
)
from conftest import host_metadata, print_series, scaled_sizes


@pytest.mark.parametrize("n", scaled_sizes([3, 5, 7], [3]))
def test_example2_width_explosion(benchmark, n):
    query = example2_query(n)
    result, _ = chase_query(query, [example2_tgd()])
    atoms = list(result.instance)

    width = benchmark(lambda: hypertree_width_upper_bound(atoms, instance_connectors))

    print_series(
        f"E16a: hypertree width before/after chasing Example 2 (n = {n})",
        [
            ("query hypertree width", hypertree_width_upper_bound(query.body)),
            ("chase hypertree width ≥", width),
            ("query treewidth", query_treewidth(query.body, exact_limit=10)),
            ("chase treewidth bound", instance_treewidth(result.instance)),
        ],
    )
    assert hypertree_width_upper_bound(query.body) == 1
    assert width >= max(2, n // 2)


@pytest.mark.parametrize("n", scaled_sizes([3, 5, 8], [3]))
def test_example4_width_growth(benchmark, n):
    query = example4_scaled_query(n)
    chased, _ = egd_chase_query(query, [example4_key()], on_failure="return")

    width = benchmark(lambda: instance_treewidth(chased.instance))

    print_series(
        f"E16b: key chase on the scaled Example 4 (n = {n})",
        [
            ("query acyclic", query.is_acyclic()),
            ("query treewidth bound", query_treewidth(query.body)),
            ("chase treewidth bound", width),
        ],
    )
    assert query.is_acyclic()
    # The chase closes a cycle through the hub, so the width strictly grows
    # over the trivial acyclic bound only for the chase, never for the query.
    assert width >= query_treewidth(query.body)


@pytest.mark.parametrize("n", scaled_sizes([4, 6, 8], [4]))
def test_exact_vs_heuristic_treewidth(benchmark, n):
    # Ablation: exact branch-and-bound versus the two elimination heuristics
    # on the chased Example 2 clique (where the exact value is n - 1).
    query = example2_query(n)
    result, _ = chase_query(query, [example2_tgd()])
    graph = gaifman_graph_of_instance(result.instance)

    exact = benchmark(lambda: treewidth_exact(graph, max_vertices=10))

    min_fill = tree_decomposition_min_fill(graph).width
    min_degree = tree_decomposition_min_degree(graph).width
    print_series(
        f"E16c: exact vs heuristic treewidth on the Example 2 clique (n = {n})",
        [
            ("exact", exact),
            ("min-fill bound", min_fill),
            ("min-degree bound", min_degree),
        ],
    )
    assert exact == n - 1
    assert min_fill >= exact
    assert min_degree >= exact


def _cycle_database(length: int, copies: int = 3, chaff: int = 5) -> Database:
    """``copies`` disjoint directed ``length``-cycles plus open chaff paths."""
    predicate = Predicate("E", 2)
    database = Database()
    for copy in range(copies):
        nodes = [Constant(f"n{copy}_{i}") for i in range(length)]
        for i in range(length):
            database.add(Atom(predicate, (nodes[i], nodes[(i + 1) % length])))
    for copy in range(chaff):
        # Paths of the same length that never close — the decomposition
        # route's semijoin reduction must prune them before assembly.
        nodes = [Constant(f"p{copy}_{i}") for i in range(length + 1)]
        for i in range(length):
            database.add(Atom(predicate, (nodes[i], nodes[i + 1])))
    return database


def test_decomposition_route_width_stays_constant_on_growing_cycles():
    # E16d: the widths measured above are what the *evaluation-time*
    # decomposition route (``DecompositionEvaluator``, the default engine
    # for cyclic queries without constraints) actually achieves: a growing
    # cycle keeps min-fill width 2 while the bag count grows linearly, so
    # bag materialisation stays cubic in |D| per bag instead of
    # exponential in the cycle length.
    rows = []
    for length in scaled_sizes([4, 6, 8, 10], [4, 5]):
        query = cycle_query(length)
        database = _cycle_database(length)
        evaluator = DecompositionEvaluator(query)
        answers = evaluator.evaluate(database)
        assert answers == evaluate_generic(query, database)
        rows.append(
            {
                "length": length,
                "width": evaluator.decomposition.width,
                "bags": len(evaluator.decomposition.nodes()),
                "facts": len(database),
                "satisfiable": bool(answers),
            }
        )
    print_series(
        "E16d: decomposition-route width and bag count on growing cycles",
        [
            (row["length"], row["width"], row["bags"], row["facts"])
            for row in rows
        ],
        header=("cycle length", "route width", "bags", "facts"),
    )
    snapshot = BenchSnapshot("treewidth_decompositions")
    snapshot.record("host", host_metadata())
    snapshot.record("cycle_lengths", [row["length"] for row in rows])
    snapshot.record("route_widths", [row["width"] for row in rows])
    for row in rows:
        snapshot.add_row("curve", row)
    snapshot.write()
    for row in rows:
        assert row["satisfiable"]
        assert row["width"] == 2, "min-fill must find the optimal cycle width"
        # Bag count grows with the cycle; width does not.
        assert row["bags"] >= row["length"] - 2
