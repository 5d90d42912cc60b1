"""E4 — Lemma 9 / Figure 3: the compact acyclic query.

Paper claim: whenever ``q(c̄)`` holds in an acyclic instance ``I``, there is
an acyclic ``q' ⊆ q`` with at most ``2·|q|`` atoms and ``q'(c̄)`` true in
``I`` — crucially the bound is *linear in |q|* and independent of ``|I|``.
The benchmark extracts compact witnesses from acyclic instances of growing
size and records the witness sizes.
"""

import pytest

from repro.datamodel import Constant
from repro.hypergraph import compact_acyclic_query, is_acyclic_instance
from repro.containment import cq_contained_in
from repro.workloads import random_acyclic_query, random_schema
from repro.workloads.generators import path_query
from conftest import print_series, scaled_sizes


@pytest.mark.parametrize("instance_atoms", scaled_sizes([10, 40, 160], [10]))
def test_compact_query_size_is_independent_of_instance_size(benchmark, instance_atoms):
    # The query asks for a 3-edge path; the instance is a long frozen path.
    query = path_query(3)
    instance = path_query(instance_atoms).canonical_database()
    assert is_acyclic_instance(instance)

    compact = benchmark(lambda: compact_acyclic_query(query, instance))

    print_series(
        f"E4: |I| = {instance_atoms}",
        [
            ("|q|", len(query)),
            ("compact witness size", len(compact)),
            ("bound 2|q|", 2 * len(query)),
            ("witness acyclic", compact.is_acyclic()),
            ("witness ⊆ q", cq_contained_in(compact, query)),
        ],
    )
    assert len(compact) <= 2 * len(query)
    assert compact.is_acyclic()
    assert cq_contained_in(compact, query)


@pytest.mark.parametrize("seed", scaled_sizes([1, 2, 3, 4, 5], [1, 2]))
def test_compact_query_on_random_acyclic_instances(benchmark, seed):
    schema = random_schema(seed=seed, predicate_count=3, max_arity=3)
    query = random_acyclic_query(seed=seed, schema=schema, atom_count=4)
    host = random_acyclic_query(seed=seed + 100, schema=schema, atom_count=20)
    instance = host.canonical_database()

    def extract():
        return compact_acyclic_query(query, instance)

    compact = benchmark(extract)
    holds = compact is not None
    rows = [("query holds in the instance", holds)]
    if holds:
        rows.extend(
            [
                ("witness size", len(compact)),
                ("bound 2|q|", 2 * len(query)),
                ("witness acyclic", compact.is_acyclic()),
                ("witness ⊆ q", cq_contained_in(compact, query)),
            ]
        )
        assert len(compact) <= 2 * len(query)
        assert compact.is_acyclic()
        assert cq_contained_in(compact, query)
    print_series(f"E4: random instance (seed {seed})", rows)
