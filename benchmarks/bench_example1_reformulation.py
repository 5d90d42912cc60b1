"""E1 — Example 1: constraint-driven acyclic reformulation of the music-store query.

Paper claim: the CQ of Example 1 is not semantically acyclic on its own, but
under the compulsive-collector tgd it is equivalent to the acyclic query that
drops the ``Owns`` atom.  The benchmark measures the decision procedure and
compares evaluation of the original query against its reformulation on
databases of growing size.
"""

import pytest

from repro.core import (
    decide_semantic_acyclicity_tgds,
    decide_semantic_acyclicity_unconstrained,
)
from repro.containment import ContainmentOutcome, equivalent_under_tgds
from repro.evaluation import YannakakisEvaluator, evaluate_generic
from repro.workloads import music_store_database
from repro.workloads.paper_examples import (
    example1_acyclic_reformulation,
    example1_query,
    example1_tgd,
)
from conftest import print_series, scaled_sizes


def test_example1_reformulation_decision(benchmark):
    query = example1_query()
    tgds = [example1_tgd()]

    decision = benchmark(lambda: decide_semantic_acyclicity_tgds(query, tgds))

    unconstrained = decide_semantic_acyclicity_unconstrained(query)
    rows = [
        ("semantically acyclic without constraints", unconstrained.semantically_acyclic),
        ("semantically acyclic under the tgd", decision.semantically_acyclic),
        ("witness", decision.witness),
        ("witness equivalent to the paper's reformulation",
         equivalent_under_tgds(decision.witness, example1_acyclic_reformulation(), tgds)
         is ContainmentOutcome.TRUE),
        ("candidates checked", decision.candidates_checked),
    ]
    print_series("E1: Example 1 decision", rows)
    assert decision.semantically_acyclic
    assert not unconstrained.semantically_acyclic


@pytest.mark.parametrize("customers", scaled_sizes([20, 60, 120], [20]))
def test_example1_reformulated_evaluation(benchmark, customers):
    query = example1_query()
    tgds = [example1_tgd()]
    decision = decide_semantic_acyclicity_tgds(query, tgds)
    evaluator = YannakakisEvaluator(decision.witness)
    database = music_store_database(seed=customers, customers=customers, records=2 * customers, styles=10)

    answers = benchmark(lambda: evaluator.evaluate(database))

    exact = evaluate_generic(query, database)
    print_series(
        f"E1: evaluation, {customers} customers ({len(database)} facts)",
        [
            ("answers via acyclic reformulation", len(answers)),
            ("answers via original query", len(exact)),
            ("agree", answers == exact),
        ],
    )
    assert answers == exact
