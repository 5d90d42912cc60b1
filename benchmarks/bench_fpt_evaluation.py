"""E11 — Proposition 24: fixed-parameter tractable evaluation under constraints.

Paper claim: a semantically acyclic CQ under G/NR/S can be evaluated in time
``O(|D| · f(|q|, |Σ|))`` — reformulate once (query-side cost), then evaluate
the acyclic reformulation in time linear in the database.  The benchmark
fixes the query/constraints of Example 1, grows the database, and reports the
per-fact cost of (a) the one-off reformulation and (b) the linear evaluation,
against the NP-baseline of evaluating the original cyclic query directly.
"""

import gc
import random
import statistics
import time

import pytest

from repro.core import decide_semantic_acyclicity_tgds
from repro.datamodel import Atom, Constant, Database, Predicate, Variable
from repro.evaluation import DecompositionEvaluator, YannakakisEvaluator, evaluate_generic
from repro.evaluation.operators import ExecutionContext
from repro.queries.cq import ConjunctiveQuery
from repro.reporting import BenchSnapshot
from repro.workloads import music_store_database
from repro.workloads.paper_examples import example1_query, example1_tgd
from conftest import host_metadata, print_series, scaled_sizes


SIZES = scaled_sizes([20, 60, 180], [20])

#: The 5-cycle row: nodes of a digraph whose every node has in- and
#: out-degree at most 3 (the ``cold_tgds`` N_0 relation at 60 nodes).
CYCLE_NODES = scaled_sizes(240, 30)
CYCLE_REPEATS = scaled_sizes(7, 1)


@pytest.mark.parametrize("customers", SIZES)
def test_fpt_evaluation_scales_linearly_in_the_database(benchmark, customers):
    query = example1_query()
    tgds = [example1_tgd()]

    # Query-side (parameter) cost: paid once, independent of the database.
    start = time.perf_counter()
    decision = decide_semantic_acyclicity_tgds(query, tgds)
    reformulation_time = time.perf_counter() - start
    evaluator = YannakakisEvaluator(decision.witness)

    database = music_store_database(
        seed=customers, customers=customers, records=3 * customers, styles=12
    )

    answers = benchmark(lambda: evaluator.evaluate(database))

    start = time.perf_counter()
    baseline = evaluate_generic(query, database)
    baseline_time = time.perf_counter() - start

    print_series(
        f"E11: |D| = {len(database)} facts ({customers} customers)",
        [
            ("reformulation (one-off) seconds", f"{reformulation_time:.4f}"),
            ("answers", len(answers)),
            ("matches NP baseline", answers == baseline),
            ("baseline generic-evaluation seconds", f"{baseline_time:.4f}"),
        ],
    )
    assert answers == baseline


def test_decomposition_route_is_the_constraint_free_fallback():
    # Proposition 24 needs the constraints to reformulate; without them the
    # engine's fallback for the same cyclic query is the decomposition
    # route, FPT in the treewidth instead of in |Σ|.  This compares all
    # three evaluations of Example 1 per database size and snapshots the
    # curves: the decomposition route must agree with reformulation and
    # with the generic baseline at every size.
    query = example1_query()
    tgds = [example1_tgd()]
    decision = decide_semantic_acyclicity_tgds(query, tgds)
    reformulated = YannakakisEvaluator(decision.witness)
    rows = []
    for customers in SIZES:
        database = music_store_database(
            seed=customers, customers=customers, records=3 * customers, styles=12
        )
        start = time.perf_counter()
        semac_answers = reformulated.evaluate(database)
        semac_time = time.perf_counter() - start
        route = DecompositionEvaluator(query)
        start = time.perf_counter()
        decomposition_answers = route.evaluate(database)
        decomposition_time = time.perf_counter() - start
        assert decomposition_answers == semac_answers
        assert decomposition_answers == evaluate_generic(query, database)
        rows.append(
            {
                "customers": customers,
                "facts": len(database),
                "answers": len(decomposition_answers),
                "width": route.decomposition.width,
                "semac_seconds": semac_time,
                "decomposition_seconds": decomposition_time,
            }
        )
    print_series(
        "E11b: reformulation route vs decomposition route on Example 1",
        [
            (
                row["customers"],
                row["facts"],
                row["answers"],
                row["width"],
                f"{row['semac_seconds']:.4f}",
                f"{row['decomposition_seconds']:.4f}",
            )
            for row in rows
        ],
        header=(
            "customers",
            "facts",
            "answers",
            "route width",
            "semac s",
            "decomp s",
        ),
    )
    cycle = five_cycle_row()
    print_series(
        "E11c: decomposition route on a 5-cycle with no acyclic reformulation",
        [
            ("facts", cycle["facts"]),
            ("answers", cycle["answers"]),
            ("largest intermediate rows", cycle["largest_intermediate_rows"]),
            ("seconds (median)", f"{cycle['seconds']['median']:.4f}"),
        ],
    )
    snapshot = BenchSnapshot("fpt_evaluation")
    snapshot.record("host", host_metadata())
    snapshot.record("five_cycle", cycle)
    snapshot.record("sizes", [row["customers"] for row in rows])
    snapshot.record("route_width", rows[-1]["width"])
    for row in rows:
        snapshot.add_row("curve", row)
    snapshot.write()


def five_cycle_row():
    """Evaluate ``q(v0) :- N(v0, v1), …, N(v4, v0)`` by the decomposition
    route on a degree-3 digraph: its answers, its largest intermediate
    (the most rows any plan operator produced) and its seconds.

    Each bag is its cover joined with its children's separators, so the
    largest intermediate stays near the bag sizes; a bag completed by a
    Cartesian guard would hold ``|N|²`` rows.
    """
    N = Predicate("N", 2)
    rng = random.Random(CYCLE_NODES)
    targets = list(range(CYCLE_NODES))
    edges = set()
    for _ in range(3):
        rng.shuffle(targets)
        edges.update(enumerate(targets))
    database = Database(
        Atom(N, (Constant(f"c{a}"), Constant(f"c{b}"))) for a, b in edges
    )
    v = [Variable(f"v{i}") for i in range(5)]
    query = ConjunctiveQuery((v[0],), [Atom(N, (v[i], v[(i + 1) % 5])) for i in range(5)])
    evaluator = DecompositionEvaluator(query)
    plan = evaluator.compile_answer_plan()
    samples = []
    for _ in range(CYCLE_REPEATS):
        # Collect before each repeat (the collector stays on), so a pause
        # owed to the previous repeat's garbage does not land in this one.
        gc.collect()
        context = ExecutionContext(database)
        started = time.perf_counter()
        answers = plan.materialize_encoded(context).answer_tuples(query.head)
        samples.append(time.perf_counter() - started)
    assert answers == evaluate_generic(query, database)
    largest = max(record.rows or 0 for record in context.run.values())
    assert largest < len(edges) ** 2
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = median = q3 = samples[0]
    return {
        "nodes": CYCLE_NODES,
        "facts": len(edges),
        "answers": len(answers),
        "width": evaluator.decomposition.width,
        "largest_intermediate_rows": largest,
        "seconds": {"q1": q1, "median": median, "q3": q3},
        "repeats": CYCLE_REPEATS,
    }
