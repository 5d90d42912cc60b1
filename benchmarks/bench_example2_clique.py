"""E6 — Example 2: non-recursive / sticky sets destroy acyclicity (and treewidth).

Paper claim: chasing the trivially acyclic query ``P(x_1) ∧ ... ∧ P(x_n)``
with the (non-recursive, sticky, non-guarded) tgd ``P(x), P(y) → R(x, y)``
produces an ``n``-clique in the Gaifman graph — acyclicity *and* bounded
(hyper)tree width are destroyed.  The benchmark measures clique size and a
treewidth upper bound as ``n`` grows.
"""

import pytest

from repro.chase import chase_query, tgd_chase_preserves_acyclicity
from repro.dependencies import classify, DependencyClass
from repro.hypergraph import treewidth_upper_bound
from repro.queries import gaifman_graph_of_instance, max_clique_lower_bound
from repro.workloads.paper_examples import example2_query, example2_tgd
from conftest import print_series, scaled_sizes


@pytest.mark.parametrize("n", scaled_sizes([3, 5, 8], [3]))
def test_example2_chase_builds_a_clique(benchmark, n):
    query = example2_query(n)
    tgd = example2_tgd()

    result, _ = benchmark(lambda: chase_query(query, [tgd]))

    graph = gaifman_graph_of_instance(result.instance)
    clique = max_clique_lower_bound(graph)
    width = treewidth_upper_bound(graph)
    report = tgd_chase_preserves_acyclicity(query, [tgd])
    print_series(
        f"E6: Example 2 with n = {n}",
        [
            ("query acyclic", query.is_acyclic()),
            ("query treewidth bound", treewidth_upper_bound(
                gaifman_graph_of_instance(query.canonical_database()))),
            ("chase size", len(result.instance)),
            ("chase acyclic", report.chase_acyclic),
            ("clique in the chased Gaifman graph ≥", clique),
            ("chase treewidth upper bound", width),
        ],
    )
    assert query.is_acyclic()
    assert not report.chase_acyclic
    assert clique >= n
    assert width >= n - 1


def test_example2_tgd_classification(benchmark):
    classes = benchmark(lambda: classify([example2_tgd()]))
    print_series(
        "E6: classification of P(x), P(y) → R(x, y)",
        [(cls.value, cls in classes) for cls in DependencyClass],
    )
    assert DependencyClass.NON_RECURSIVE in classes
    assert DependencyClass.STICKY in classes
    assert DependencyClass.GUARDED not in classes
