#!/usr/bin/env python3
"""Quickstart: deciding semantic acyclicity and using the reformulation.

This walks through the paper's motivating Example 1 end to end:

1. parse a conjunctive query and a tgd;
2. check that the query is *not* semantically acyclic on its own;
3. check that it *is* semantically acyclic under the tgd and obtain the
   acyclic reformulation;
4. evaluate the original query and the reformulation over a database that
   satisfies the tgd and confirm they agree (the reformulation runs through
   Yannakakis' linear-time algorithm).

Run with:  python examples/quickstart.py
"""

from repro import (
    decide_semantic_acyclicity,
    evaluate_generic,
    parse_query,
    parse_tgd,
)
from repro.core import decide_semantic_acyclicity_unconstrained
from repro.evaluation import YannakakisEvaluator
from repro.workloads import music_store_database


def main() -> None:
    # The music-store query of Example 1: customers owning a record of a
    # style they are interested in.
    query = parse_query(
        "q(customer, record) :- Interest(customer, style), "
        "Class(record, style), Owns(customer, record)"
    )
    collector_rule = parse_tgd(
        "Interest(customer, style), Class(record, style) -> Owns(customer, record)"
    )

    print("Query:", query)
    print("Constraint:", collector_rule)
    print()

    unconstrained = decide_semantic_acyclicity_unconstrained(query)
    print("Semantically acyclic without constraints?", unconstrained.semantically_acyclic)

    decision = decide_semantic_acyclicity(query, [collector_rule])
    print("Semantically acyclic under the constraint?", decision.semantically_acyclic)
    print("Acyclic reformulation:", decision.witness)
    print("Decision method:", decision.method)
    print()

    # Evaluate both formulations over a database of compulsive collectors.
    database = music_store_database(seed=7, customers=40, records=60, styles=10)
    print(f"Database: {len(database)} facts over Interest / Class / Owns")

    original_answers = evaluate_generic(query, database)
    evaluator = YannakakisEvaluator(decision.witness)
    reformulated_answers = evaluator.evaluate(database)

    print("Answers via the original (cyclic) query:  ", len(original_answers))
    print("Answers via the acyclic reformulation:    ", len(reformulated_answers))
    print("Answer sets agree?", original_answers == reformulated_answers)


if __name__ == "__main__":
    main()
