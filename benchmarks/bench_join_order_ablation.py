"""E17 (ablation) — how much of the win is acyclicity, how much is planning?

Extends E15: the paper's efficiency claim for semantic acyclicity rests on
Yannakakis' linear-time evaluation of the acyclic reformulation.  A fair
comparison needs a non-strawman cyclic-evaluation baseline, so this bench
evaluates the Example 1 query three ways on growing databases:

1. naive backtracking joins in query order;
2. backtracking joins over a greedy cost-based join order;
3. Yannakakis on the acyclic reformulation produced by the SemAc decider.

The expected shape: (2) improves on (1) by a constant factor, while (3)
scales linearly with the database and does not depend on the join order at
all — the reformulation, not the planner, is what removes the join blow-up.
"""

import pytest

from helpers.ablation_planners import plan_in_query_order
from repro.core import decide_semantic_acyclicity
from repro.evaluation import (
    evaluate_acyclic,
    evaluate_generic,
    evaluate_with_plan,
    execute_plan,
    plan_greedy,
)
from repro.workloads.generators import music_store_database
from repro.workloads.paper_examples import example1_query, example1_tgd
from conftest import print_series, scaled_sizes


SIZES = scaled_sizes([20, 60, 120], [20])


@pytest.mark.parametrize("customers", SIZES)
def test_naive_backtracking(benchmark, customers):
    query = example1_query()
    database = music_store_database(seed=customers, customers=customers, records=2 * customers)
    answers = benchmark(lambda: evaluate_generic(query, database))
    print_series(
        f"E17: naive backtracking, {customers} customers",
        [("facts", len(database)), ("answers", len(answers))],
    )
    assert answers


@pytest.mark.parametrize("customers", SIZES)
def test_greedy_join_order(benchmark, customers):
    query = example1_query()
    database = music_store_database(seed=customers, customers=customers, records=2 * customers)
    answers = benchmark(lambda: evaluate_with_plan(query, database, planner=plan_greedy))
    naive_execution = execute_plan(plan_in_query_order(query, database), database)
    greedy_execution = execute_plan(plan_greedy(query, database), database)
    print_series(
        f"E17: greedy join order, {customers} customers",
        [
            ("facts", len(database)),
            ("answers", len(answers)),
            ("max intermediate (query order)", naive_execution.max_intermediate_size),
            ("max intermediate (greedy order)", greedy_execution.max_intermediate_size),
        ],
    )
    assert answers == naive_execution.answers


@pytest.mark.parametrize("customers", SIZES)
def test_yannakakis_on_reformulation(benchmark, customers):
    query = example1_query()
    decision = decide_semantic_acyclicity(query, [example1_tgd()])
    assert decision.semantically_acyclic
    database = music_store_database(seed=customers, customers=customers, records=2 * customers)

    answers = benchmark(lambda: evaluate_acyclic(decision.witness, database))

    print_series(
        f"E17: Yannakakis on the reformulation, {customers} customers",
        [("facts", len(database)), ("answers", len(answers))],
    )
    assert answers == evaluate_generic(query, database)
