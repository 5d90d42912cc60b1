"""E9 — Examples 4–5: keys over ≥3-ary predicates destroy acyclicity, K2 keys do not.

Paper claims: applying the key of Example 4 to the acyclic five-atom query
produces a cyclic query; the two keys of Example 5 turn a tree-like query
into a grid-like (high treewidth) one; by contrast keys over unary and binary
predicates preserve acyclicity (Proposition 22).  Figure 4's exact grid query
is not recoverable from the text, so the Example 5 series uses the documented
ring reconstruction (``example5_ring_query``) which shows the same mechanism
with a scalable cycle length.
"""

import pytest

from repro.chase import egd_chase_preserves_acyclicity, egd_chase_query
from repro.hypergraph import is_acyclic_instance, treewidth_upper_bound
from repro.queries import gaifman_graph_of_instance
from repro.workloads import binary_keys, random_acyclic_query, random_schema
from repro.workloads.paper_examples import (
    example4_key,
    example4_query,
    example4_scaled_query,
    example5_keys,
    example5_ring_query,
)
from conftest import print_series, scaled_sizes


def test_example4_exact(benchmark):
    query = example4_query()
    report = benchmark(lambda: egd_chase_preserves_acyclicity(query, [example4_key()]))
    print_series(
        "E9: Example 4",
        [
            ("query acyclic", report.query_acyclic),
            ("chased query acyclic", report.chase_acyclic),
            ("chase size", report.chase_size),
        ],
    )
    assert report.query_acyclic and not report.chase_acyclic


@pytest.mark.parametrize("n", scaled_sizes([4, 8, 16], [4]))
def test_example4_scaled_cycle_length(benchmark, n):
    query = example4_scaled_query(n)
    result, _ = benchmark(lambda: egd_chase_query(query, [example4_key()]))
    acyclic = is_acyclic_instance(result.instance)
    print_series(
        f"E9: scaled Example 4, n = {n}",
        [
            ("query atoms", len(query)),
            ("query acyclic", query.is_acyclic()),
            ("chase acyclic", acyclic),
        ],
    )
    assert query.is_acyclic() and not acyclic


@pytest.mark.parametrize("n", scaled_sizes([3, 6, 10], [3]))
def test_example5_ring_treewidth(benchmark, n):
    query = example5_ring_query(n)
    result, _ = benchmark(lambda: egd_chase_query(query, example5_keys()))
    width_before = treewidth_upper_bound(
        gaifman_graph_of_instance(query.canonical_database())
    )
    width_after = treewidth_upper_bound(gaifman_graph_of_instance(result.instance))
    print_series(
        f"E9: Example 5 ring, n = {n}",
        [
            ("query acyclic", query.is_acyclic()),
            ("chase acyclic", is_acyclic_instance(result.instance)),
            ("treewidth bound before", width_before),
            ("treewidth bound after", width_after),
        ],
    )
    assert query.is_acyclic()
    assert not is_acyclic_instance(result.instance)


@pytest.mark.parametrize("seed", scaled_sizes([0, 1, 2, 3], [0]))
def test_k2_keys_preserve_acyclicity(benchmark, seed):
    # Proposition 22: keys over unary/binary predicates have acyclicity-preserving chase.
    schema = random_schema(seed=seed, predicate_count=3, max_arity=2)
    query = random_acyclic_query(seed=seed, schema=schema, atom_count=6)
    keys = binary_keys(schema)

    report = benchmark(lambda: egd_chase_preserves_acyclicity(query, keys))

    print_series(
        f"E9: K2 keys on a random acyclic query (seed {seed})",
        [
            ("query acyclic", report.query_acyclic),
            ("chase acyclic", report.chase_acyclic),
            ("chase failed", not report.chase_terminated),
        ],
    )
    assert report.preserved
