"""Plan quality: heuristic vs calibrated greedy vs DP, plus a cyclic panel.

The greedy planner of :mod:`repro.evaluation.join_plans` historically
scored atoms with a blind 1/10-per-constraint selectivity guess
(``estimate_cardinality``, preserved with ``plan_greedy_heuristic`` in
``tests/helpers/ablation_planners.py``).  The statistics-calibrated
cost model (:class:`repro.evaluation.CostModel`: per-column distinct
counts, bucket-size histograms, textbook join selectivities) replaced it,
and the Selinger-style DP planner (:func:`repro.evaluation.plan_dp`) now
searches bushy join orders over the same model.

Two panels:

* **Acyclic grid** — :func:`repro.workloads.generators.plan_quality_workload`,
  a workload built to fool fact-count heuristics: one constant anchor keeps
  half the database (2 distinct values in the pinned column) while the
  other keeps a handful of rows, and the fact counts point the wrong way.
  Per size it executes the heuristic, calibrated-greedy and DP plans and
  asserts DP's estimated *and* observed intermediate totals never exceed
  greedy's on any grid point (greedy's left-deep order is inside DP's
  search space, so regressing this means the DP recurrence is broken).
* **Cyclic panel** — :func:`repro.workloads.generators.fanout_cycles_workload`,
  two triangles sharing one variable where every edge adjacent to the
  shared variable is a growing fan.  Any flat left-deep order pays a
  ``Θ(size · fanout)`` intermediate crossing into the second triangle;
  the decomposition route (bags = triangles, joined after semijoin
  reduction) and DP's bushy plans stay linear.  The headline is
  growth-per-doubling of total intermediates: the decomposition route
  must grow strictly slower than the flat left-deep baseline at the
  largest doubling.

All plans are cross-checked for answer equality at every size, so the
benchmark doubles as a differential test.  Run standalone with
``pytest benchmarks/bench_plan_quality.py -s``; ``BENCH_SMOKE=1`` shrinks
the sizes to milliseconds and skips the growth assertions (tiny inputs are
noise-dominated).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from helpers import tuple_engine
from helpers.ablation_planners import plan_greedy_heuristic
from repro.evaluation import (
    DecompositionEvaluator,
    ExecutionContext,
    HashJoin,
    SemiJoin,
    estimated_intermediate_sizes,
    execute_plan,
    plan_dp,
    plan_greedy,
)
from repro.workloads.generators import fanout_cycles_workload, plan_quality_workload
from conftest import BenchSnapshot, print_series, scaled_sizes, smoke_mode


FULL_SIZES = [400, 800, 1600, 3200]
SMOKE_SIZES = [64, 128]
SIZES = scaled_sizes(FULL_SIZES, SMOKE_SIZES)

CYCLIC_FULL_SIZES = [50, 100, 200, 400]
CYCLIC_SMOKE_SIZES = [12, 24]
CYCLIC_SIZES = scaled_sizes(CYCLIC_FULL_SIZES, CYCLIC_SMOKE_SIZES)

#: At the largest full size the heuristic plan must drag at least this many
#: times more intermediate tuples than the calibrated plan.
MIN_INTERMEDIATE_RATIO = 5.0

_CACHE: Dict[Tuple[str, Tuple[int, ...], int], List[Dict[str, object]]] = {}


def _estimated_join_total(plan) -> int:
    """Total estimated rows across a plan's join steps (scan excluded)."""
    return sum(estimated_intermediate_sizes(plan)[1:])


def _observed_join_total(execution) -> int:
    """Total observed rows across the executed join steps (scan excluded)."""
    return sum(execution.intermediate_sizes[1:])


def run_plan_quality(sizes: Sequence[int] = SIZES, seed: int = 0) -> List[Dict[str, object]]:
    """Execute the heuristic, greedy and DP plans per size; one row each."""
    key = ("acyclic", tuple(sizes), seed)
    if key in _CACHE:
        return _CACHE[key]
    rows: List[Dict[str, object]] = []
    for size in sizes:
        query, database = plan_quality_workload(size, seed=seed)
        heuristic = execute_plan(plan_greedy_heuristic(query, database), database)
        greedy_plan = plan_greedy(query, database)
        calibrated = execute_plan(greedy_plan, database)
        dp_plan = plan_dp(query, database)
        dp = execute_plan(dp_plan, database)
        assert calibrated.answers == heuristic.answers == dp.answers, (
            "the planners must agree"
        )
        # The tuple oracle executes the same calibrated plan with identical
        # answers and intermediate sizes (encoding changes representation,
        # never semantics).
        oracle = tuple_engine.execute_plan(greedy_plan, database)
        assert oracle.answers == calibrated.answers
        assert oracle.intermediate_sizes == calibrated.intermediate_sizes
        rows.append(
            {
                "size": size,
                "answers": len(calibrated.answers),
                "heuristic_max": heuristic.max_intermediate_size,
                "calibrated_max": calibrated.max_intermediate_size,
                "heuristic_total": heuristic.total_intermediate_tuples,
                "calibrated_total": calibrated.total_intermediate_tuples,
                "dp_total": dp.total_intermediate_tuples,
                "greedy_estimated": _estimated_join_total(greedy_plan),
                "dp_estimated": _estimated_join_total(dp_plan),
                "greedy_observed": _observed_join_total(calibrated),
                "dp_observed": _observed_join_total(dp),
                "ratio": heuristic.total_intermediate_tuples
                / max(1, calibrated.total_intermediate_tuples),
            }
        )
    _CACHE[key] = rows
    return rows


def _decomposition_join_total(query, database) -> Tuple[int, frozenset]:
    """(total observed rows over the bag-tree plan's joins, answer set)."""
    evaluator = DecompositionEvaluator(query)
    plan = evaluator.compile_answer_plan()
    context = ExecutionContext(database)
    answers = plan.materialize(context).answer_tuples(query.head)
    total = sum(
        record.rows or 0
        for operator, record in context.run.items()
        if isinstance(operator, (HashJoin, SemiJoin))
    )
    return total, frozenset(answers)


def run_cyclic_panel(
    sizes: Sequence[int] = CYCLIC_SIZES, seed: int = 0
) -> List[Dict[str, object]]:
    """Flat left-deep vs bushy DP vs decomposition route on the fanout cycles."""
    key = ("cyclic", tuple(sizes), seed)
    if key in _CACHE:
        return _CACHE[key]
    rows: List[Dict[str, object]] = []
    for size in sizes:
        query, database = fanout_cycles_workload(size)
        flat = execute_plan(plan_greedy(query, database), database)
        bushy_plan = plan_dp(query, database)
        bushy = execute_plan(bushy_plan, database)
        greedy_plan = plan_greedy(query, database)
        decomposition_total, answers = _decomposition_join_total(query, database)
        assert answers == flat.answers == bushy.answers, "the routes must agree"
        rows.append(
            {
                "size": size,
                "answers": len(answers),
                "flat_total": flat.total_intermediate_tuples,
                "dp_total": bushy.total_intermediate_tuples,
                "decomposition_total": decomposition_total,
                "greedy_estimated": _estimated_join_total(greedy_plan),
                "dp_estimated": _estimated_join_total(bushy_plan),
                "greedy_observed": _observed_join_total(flat),
                "dp_observed": _observed_join_total(bushy),
            }
        )
    for previous, current in zip(rows, rows[1:]):
        current["flat_growth"] = current["flat_total"] / max(1, previous["flat_total"])
        current["decomposition_growth"] = current["decomposition_total"] / max(
            1, previous["decomposition_total"]
        )
    _CACHE[key] = rows
    return rows


def _write_snapshot() -> None:
    """Write both panels into one ``BENCH_plan_quality.json`` snapshot."""
    acyclic = run_plan_quality()
    cyclic = run_cyclic_panel()
    snapshot = BenchSnapshot("plan_quality")
    snapshot.record("sizes", [row["size"] for row in acyclic])
    snapshot.record("intermediate_ratios", [row["ratio"] for row in acyclic])
    snapshot.record("cyclic_sizes", [row["size"] for row in cyclic])
    snapshot.record(
        "cyclic_growth_per_doubling",
        {
            "flat_left_deep": cyclic[-1].get("flat_growth"),
            "decomposition": cyclic[-1].get("decomposition_growth"),
        },
    )
    for row in acyclic:
        snapshot.add_row("curve", row)
    for row in cyclic:
        snapshot.add_row("cyclic_curve", row)
    snapshot.write()


def test_calibrated_plans_shrink_intermediates():
    rows = run_plan_quality()
    print_series(
        "greedy plan intermediates: legacy heuristic vs calibrated model vs DP",
        [
            (
                row["size"],
                row["answers"],
                row["heuristic_max"],
                row["calibrated_max"],
                row["heuristic_total"],
                row["calibrated_total"],
                row["dp_total"],
                f"{row['ratio']:.1f}x",
            )
            for row in rows
        ],
        header=(
            "size",
            "answers",
            "heur max",
            "calib max",
            "heur total",
            "calib total",
            "dp total",
            "ratio",
        ),
    )
    _write_snapshot()
    for row in rows:
        # The calibrated model must never do worse on this workload, and the
        # DP plan must never do worse than greedy — greedy's left-deep order
        # is inside DP's search space, both by estimate and by observation.
        assert row["calibrated_total"] <= row["heuristic_total"]
        assert row["dp_estimated"] <= row["greedy_estimated"]
        assert row["dp_observed"] <= row["greedy_observed"]
    if smoke_mode():
        return
    last = rows[-1]
    assert last["ratio"] >= MIN_INTERMEDIATE_RATIO, (
        f"expected ≥{MIN_INTERMEDIATE_RATIO}× fewer intermediate tuples at "
        f"size {last['size']}, got {last['ratio']:.1f}×"
    )
    # The gap grows with the database: the heuristic's intermediates are
    # O(size) where the calibrated plan's stay essentially flat.
    ratios = [row["ratio"] for row in rows]
    assert ratios[-1] > ratios[0]


def test_cyclic_panel_decomposition_beats_flat_left_deep():
    rows = run_cyclic_panel()
    print_series(
        "cyclic fanout panel: flat left-deep vs bushy DP vs decomposition",
        [
            (
                row["size"],
                row["answers"],
                row["flat_total"],
                row["dp_total"],
                row["decomposition_total"],
                f"{row.get('flat_growth', 0):.1f}x",
                f"{row.get('decomposition_growth', 0):.1f}x",
            )
            for row in rows
        ],
        header=(
            "size",
            "answers",
            "flat total",
            "dp total",
            "decomp total",
            "flat growth",
            "decomp growth",
        ),
    )
    _write_snapshot()
    for row in rows:
        # DP ≤ greedy holds per grid point on the cyclic panel too.
        assert row["dp_estimated"] <= row["greedy_estimated"]
        assert row["dp_observed"] <= row["greedy_observed"]
    if smoke_mode():
        return
    last = rows[-1]
    # Headline: at the largest doubling the decomposition route's total
    # intermediates grow strictly slower than the flat left-deep baseline's
    # (linear vs Θ(size · fanout)).
    assert last["decomposition_growth"] < last["flat_growth"], (
        f"decomposition grew {last['decomposition_growth']:.2f}× over the last "
        f"doubling vs flat left-deep {last['flat_growth']:.2f}×"
    )
    # And in absolute terms the bag-tree plan carries fewer tuples.
    assert last["decomposition_total"] < last["flat_total"]


if __name__ == "__main__":  # pragma: no cover — manual runs
    test_calibrated_plans_shrink_intermediates()
    test_cyclic_panel_decomposition_beats_flat_left_deep()
