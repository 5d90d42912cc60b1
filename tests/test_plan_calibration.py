"""Plan-cost calibration: estimated vs observed intermediate cardinalities.

The ROADMAP flagged ``estimate_cardinality`` (now kept in
``tests/helpers/ablation_planners.py``) as a crude
1/10-per-constraint heuristic and asked for calibration against the
intermediate sizes the executor records.  The statistics-calibrated
:class:`repro.evaluation.CostModel` (per-column distinct counts,
bucket-size histograms, textbook join selectivities) closed that item;
this module is the regression guard: it runs the greedy planner over the
``yannakakis_scaling_workload`` at several sizes and seeds, pools the
(estimated, observed) intermediate-cardinality pairs —
:func:`repro.evaluation.estimated_intermediate_sizes` vs
:attr:`PlanExecution.intermediate_sizes` — and asserts that their Spearman
rank correlation stays above a measured floor.

The floor is deliberately set with a margin below the measured value: the
test is not a claim that the model is perfect, only that nobody makes it
silently worse while refactoring the planner.  History: the legacy
running-product heuristic measured ≈ 0.83 (floor 0.70); the calibrated
model measured ≈ 0.99 on the same grid (floor 0.85); with the planner-v2
DP plans pooled in alongside greedy's, both planners measure ≈ 0.993, so
the floor is now 0.95.

The correlation-aware pair sketches get their own fixture here: a chain
whose join keys move together (``y = f(x)``), where the independence
product is off by the fan-out factor and the sketched joint-distinct
count is exact.
"""

from typing import List, Sequence, Tuple

import pytest

from repro.datamodel import Atom, Constant, Database, Predicate, Variable
from repro.evaluation import (
    CardinalityEstimate,
    CostModel,
    Statistics,
    estimated_intermediate_sizes,
    evaluate_generic,
    execute_plan,
    plan_dp,
    plan_greedy,
)
from repro.queries.cq import ConjunctiveQuery
from repro.workloads.generators import yannakakis_scaling_workload


#: The workload grid the calibration pairs are pooled over.
SIZES = (150, 300, 600, 1200)
SEEDS = (0, 1, 2)

#: Both planners' plans feed the calibration pool: the DP planner is the
#: default, greedy is the baseline it must stay comparable with.
PLANNERS = (plan_greedy, plan_dp)

#: Regression floor for the pooled Spearman rank correlation (greedy and
#: DP plans both measure ≈ 0.993 on this grid; the legacy
#: 1/10-per-constraint heuristic measured ≈ 0.83).
MIN_RANK_CORRELATION = 0.95


def _average_ranks(values: Sequence[float]) -> List[float]:
    """Ranks 1..n with ties sharing their average rank."""
    order = sorted(range(len(values)), key=lambda index: values[index])
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        stop = start
        while stop + 1 < len(order) and values[order[stop + 1]] == values[order[start]]:
            stop += 1
        average = (start + stop) / 2 + 1
        for position in range(start, stop + 1):
            ranks[order[position]] = average
        start = stop + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (Pearson on average ranks)."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two sequences of equal length ≥ 2")
    rank_x, rank_y = _average_ranks(xs), _average_ranks(ys)
    n = len(xs)
    mean_x, mean_y = sum(rank_x) / n, sum(rank_y) / n
    covariance = sum((a - mean_x) * (b - mean_y) for a, b in zip(rank_x, rank_y))
    deviation_x = sum((a - mean_x) ** 2 for a in rank_x) ** 0.5
    deviation_y = sum((b - mean_y) ** 2 for b in rank_y) ** 0.5
    if deviation_x == 0 or deviation_y == 0:
        raise ValueError("constant sequence has no rank correlation")
    return covariance / (deviation_x * deviation_y)


def calibration_pairs() -> List[Tuple[int, int]]:
    """Pooled (estimated, observed) intermediate sizes over the grid."""
    pairs: List[Tuple[int, int]] = []
    for size in SIZES:
        for seed in SEEDS:
            query, database = yannakakis_scaling_workload(size, seed=seed)
            for planner in PLANNERS:
                plan = planner(query, database)
                estimated = estimated_intermediate_sizes(plan)
                execution = execute_plan(plan, database)
                # execute_plan stops recording at the first empty
                # intermediate, so observed may be a prefix; zip pairs
                # only what was observed.
                observed = execution.intermediate_sizes
                assert len(estimated) == len(plan) and len(observed) <= len(plan)
                pairs.extend(zip(estimated, observed))
    return pairs


class TestSpearmanHelper:
    def test_perfect_correlation(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert spearman([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)

    def test_ties_share_average_ranks(self):
        assert _average_ranks([5, 5, 1]) == [2.5, 2.5, 1.0]

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            spearman([1], [2])
        with pytest.raises(ValueError):
            spearman([1, 1, 1], [1, 2, 3])


def test_cost_model_rank_correlation_does_not_regress():
    pairs = calibration_pairs()
    assert len(pairs) >= 30, "the calibration grid shrank — keep it meaningful"
    correlation = spearman([p[0] for p in pairs], [p[1] for p in pairs])
    print(
        f"\nplan-cost calibration: {len(pairs)} (estimated, observed) pairs, "
        f"spearman = {correlation:.3f} (floor {MIN_RANK_CORRELATION})"
    )
    assert correlation >= MIN_RANK_CORRELATION, (
        f"the cost model's rank correlation dropped to {correlation:.3f} "
        f"(floor {MIN_RANK_CORRELATION}); if a planner change is expected to "
        "shift estimates, re-measure and adjust the floor deliberately"
    )


def test_estimated_intermediates_are_recorded_per_step():
    query, database = yannakakis_scaling_workload(200, seed=0)
    plan = plan_greedy(query, database)
    estimated = estimated_intermediate_sizes(plan)
    assert len(estimated) == len(plan)
    assert all(value >= 0 for value in estimated)
    assert estimated == [step.estimated_intermediate_rows for step in plan.steps]


def test_calibrated_model_outranks_the_legacy_running_product():
    """The point of the calibration: the statistics-based estimates must
    rank-correlate with reality strictly better than the legacy
    running-product-of-heuristics model they replaced."""
    from helpers.ablation_planners import estimate_cardinality

    legacy_pairs: List[Tuple[int, int]] = []
    for size in SIZES:
        for seed in SEEDS:
            query, database = yannakakis_scaling_workload(size, seed=seed)
            plan = plan_greedy(query, database)
            running = 1
            legacy = []
            for step in plan.steps:
                running *= max(1, estimate_cardinality(step.atom, database))
                legacy.append(running)
            observed = execute_plan(plan, database).intermediate_sizes
            legacy_pairs.extend(zip(legacy, observed))
    legacy_correlation = spearman(
        [p[0] for p in legacy_pairs], [p[1] for p in legacy_pairs]
    )
    calibrated_pairs = calibration_pairs()
    calibrated_correlation = spearman(
        [p[0] for p in calibrated_pairs], [p[1] for p in calibrated_pairs]
    )
    assert calibrated_correlation > legacy_correlation


# ----------------------------------------------------------------------
# Correlation sketches: the correlated-chain fixture
# ----------------------------------------------------------------------
def correlated_chain_fixture():
    """``R(x, y) ⋈ S(x, y, z)`` where ``y`` is a function of ``x``.

    40 distinct ``x`` values, each with its unique ``y = f(x)`` and a
    fan-out of 5 into ``z`` — so there are 40 distinct ``(x, y)`` pairs,
    not the 40 · 40 the independence product assumes, and the true join
    size is 200.
    """
    R, S = Predicate("R", 2), Predicate("S", 3)
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    database = Database()
    for i in range(40):
        database.add(Atom(R, (Constant(f"k{i}"), Constant(f"f{i}"))))
        for j in range(5):
            database.add(
                Atom(S, (Constant(f"k{i}"), Constant(f"f{i}"), Constant(f"z{j}")))
            )
    query = ConjunctiveQuery((x, y, z), [Atom(R, (x, y)), Atom(S, (x, y, z))])
    return query, database


def test_pair_sketch_beats_independence_on_correlated_chain():
    query, database = correlated_chain_fixture()
    model = CostModel(Statistics(database))
    left = model.scan_estimate(query.body[0])
    right = model.scan_estimate(query.body[1])

    sketched = model.join_estimate(left, right)
    # The independence baseline: identical per-variable statistics with
    # the pair sketches stripped, so joint_distinct multiplies.
    independent = model.join_estimate(
        CardinalityEstimate(left.rows, dict(left.distinct)),
        CardinalityEstimate(right.rows, dict(right.distinct)),
    )
    observed = len(evaluate_generic(query, database))

    assert observed == 200
    assert sketched.rows == pytest.approx(observed)
    assert abs(sketched.rows - observed) < abs(independent.rows - observed)
    # The independence product divides by d(x)·d(y) = 1600 instead of the
    # sketched 40 joint pairs — a 5× under-estimate on this fixture.
    assert independent.rows < observed / 4
