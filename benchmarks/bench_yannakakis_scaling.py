"""E15b — the semi-join complexity bug, before and after.

Yannakakis' algorithm is the paper's payoff: semantically acyclic CQs
evaluate in linear data complexity (Proposition 24 / Theorem 25).  The
original evaluator represented rows as assignment dicts and decided each
semi-join with a nested ``any(...)`` scan, which is quadratic in ``|D|`` —
doubling the database quadrupled the runtime.  The hash-relation engine
(:mod:`repro.evaluation.relation`) restores the linear bound.

This benchmark runs both implementations on the layered chain workload of
:func:`repro.workloads.generators.yannakakis_scaling_workload` at doubling
database sizes and reports, per size, the runtime and the growth factor
relative to the previous size.  Expected shape:

* dict engine: growth factor ≈ 4 per doubling (quadratic);
* hash engine: growth factor < 3 per doubling (≈ linear), and ≥ 5× faster
  than the dict engine at the largest size (in practice the gap is orders
  of magnitude).

Run standalone with ``pytest benchmarks/bench_yannakakis_scaling.py -s``.
``BENCH_SMOKE=1`` shrinks the sizes to milliseconds and skips the timing
assertions (tiny inputs are noise-dominated); the tier-1 suite uses that
mode to keep this file executable in CI.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import pytest

# The quadratic baseline is a test-only oracle (tests/helpers/, put on
# sys.path by this directory's conftest).
from helpers.yannakakis_dict import DictYannakakisEvaluator
from repro.evaluation import ScanCache, YannakakisEvaluator
from repro.evaluation.relation import Partition
from repro.reporting import BenchSnapshot
from repro.workloads.generators import yannakakis_scaling_workload
from conftest import print_series, scaled_sizes, smoke_mode


FULL_SIZES = [250, 500, 1000, 2000]
SMOKE_SIZES = [40, 80]
SIZES = scaled_sizes(FULL_SIZES, SMOKE_SIZES)

#: Acceptance thresholds (see ISSUE 1): the hash engine must be at least
#: this much faster than the dict engine at the largest size, and its
#: per-doubling growth factor must stay below this bound.
MIN_SPEEDUP = 5.0
MAX_LINEAR_GROWTH = 3.0

#: ISSUE 7: the columnar backend must beat the tuple backend by at least
#: this factor at the largest non-smoke size.
MIN_BACKEND_SPEEDUP = 3.0


def _best_of(run, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of ``run()`` (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def run_scaling(
    sizes: Sequence[int] = SIZES,
    layers: int = 4,
    fanout: int = 2,
    seed: int = 0,
    include_dict: bool = True,
    repeats: int = 3,
) -> List[Dict[str, object]]:
    """Time both engines at each size; return one row of measurements per size.

    The two engines are also cross-checked for answer-set equality at every
    size, so the benchmark doubles as a differential test on large inputs.
    """
    rows: List[Dict[str, object]] = []
    for size in sizes:
        query, database = yannakakis_scaling_workload(
            size, layers=layers, fanout=fanout, seed=seed
        )
        hash_evaluator = YannakakisEvaluator(query)
        answers = hash_evaluator.evaluate(database)
        hash_time = _best_of(lambda: hash_evaluator.evaluate(database), repeats)

        dict_time: Optional[float] = None
        if include_dict:
            dict_evaluator = DictYannakakisEvaluator(query)
            # Single timed run: the dict engine is seconds-slow at the larger
            # sizes, where timer noise is negligible anyway — and the run
            # doubles as the differential check.
            start = time.perf_counter()
            dict_answers = dict_evaluator.evaluate(database)
            dict_time = time.perf_counter() - start
            assert dict_answers == answers

        rows.append(
            {
                "size": len(database),
                "answers": len(answers),
                "hash_time": hash_time,
                "dict_time": dict_time,
            }
        )
    return rows


def _growth(rows: List[Dict[str, object]], key: str) -> List[Optional[float]]:
    factors: List[Optional[float]] = [None]
    for previous, current in zip(rows, rows[1:]):
        if previous[key] and current[key] is not None:
            factors.append(current[key] / previous[key])  # type: ignore[operator]
        else:
            factors.append(None)
    return factors


def _format(value: Optional[float], unit: str = "") -> str:
    return "—" if value is None else f"{value:.4f}{unit}"


def test_hash_engine_linear_dict_engine_quadratic():
    rows = run_scaling()
    hash_growth = _growth(rows, "hash_time")
    dict_growth = _growth(rows, "dict_time")
    print_series(
        "E15b: Yannakakis scaling (hash relations vs assignment dicts)",
        [
            (
                row["size"],
                row["answers"],
                _format(row["hash_time"], "s"),
                _format(hg, "×"),
                _format(row["dict_time"], "s"),
                _format(dg, "×"),
            )
            for row, hg, dg in zip(rows, hash_growth, dict_growth)
        ],
        header=["|D|", "answers", "hash", "growth", "dict", "growth"],
    )
    largest = rows[-1]
    speedup = largest["dict_time"] / largest["hash_time"]  # type: ignore[operator]
    print(f"    speedup at |D| = {largest['size']}: {speedup:.1f}×")

    snapshot = BenchSnapshot("yannakakis_scaling")
    snapshot.record("sizes", [row["size"] for row in rows])
    snapshot.record("hash_growth", hash_growth)
    snapshot.record("dict_growth", dict_growth)
    snapshot.record("speedup_at_largest", speedup)
    for row in rows:
        snapshot.add_row("curve", row)
    snapshot.write()

    if smoke_mode():
        return  # tiny inputs are noise-dominated; correctness was checked above

    assert speedup >= MIN_SPEEDUP, (
        f"hash engine only {speedup:.1f}× faster than the dict engine "
        f"at |D| = {largest['size']} (expected ≥ {MIN_SPEEDUP}×)"
    )
    # Every doubling must stay well under quadratic growth for the hash
    # engine (quadratic would be ≈ 4×).
    for factor in hash_growth[1:]:
        assert factor is not None and factor < MAX_LINEAR_GROWTH, (
            f"hash engine grew {factor}× on a doubling "
            f"(expected < {MAX_LINEAR_GROWTH}×)"
        )


def test_columnar_backend_speedup():
    """ISSUE 7: the batch face attacks the per-tuple constant — tuple vs
    columnar on the same plans, same ScanCache amortisation per backend,
    columnar ≥ 3× faster at the largest non-smoke size."""
    rows: List[Dict[str, object]] = []
    for size in SIZES:
        query, database = yannakakis_scaling_workload(size)
        evaluator = YannakakisEvaluator(query)
        # One cache per backend: both amortise the phase-1 scans across the
        # timed repeats; the columnar cache additionally amortises the
        # dictionary encodings — the design's point.
        tuple_scans = ScanCache(database)
        columnar_scans = ScanCache(database)
        answers = evaluator.evaluate(database, scans=tuple_scans)
        before = Partition.total_probes
        columnar_answers = evaluator.evaluate(
            database, scans=columnar_scans, backend="columnar"
        )
        columnar_probes = Partition.total_probes - before
        assert columnar_answers == answers  # differential oracle
        tuple_time = _best_of(
            lambda: evaluator.evaluate(database, scans=tuple_scans), repeats=5
        )
        columnar_time = _best_of(
            lambda: evaluator.evaluate(
                database, scans=columnar_scans, backend="columnar"
            ),
            repeats=5,
        )
        rows.append(
            {
                "size": len(database),
                "answers": len(answers),
                "tuple_time": tuple_time,
                "columnar_time": columnar_time,
                "ratio": tuple_time / columnar_time,
                "columnar_probes": columnar_probes,
            }
        )
    print_series(
        "ISSUE 7: Yannakakis, tuple vs columnar backend",
        [
            (
                row["size"],
                row["answers"],
                _format(row["tuple_time"], "s"),
                _format(row["columnar_time"], "s"),
                _format(row["ratio"], "×"),
                row["columnar_probes"],
            )
            for row in rows
        ],
        header=["|D|", "answers", "tuple", "columnar", "ratio", "probes"],
    )

    snapshot = BenchSnapshot("backend_scaling")
    snapshot.record("sizes", [row["size"] for row in rows])
    snapshot.record("backend_ratios", [row["ratio"] for row in rows])
    snapshot.record("ratio_at_largest", rows[-1]["ratio"])
    snapshot.record("tuple_growth", _growth(rows, "tuple_time"))
    snapshot.record("columnar_growth", _growth(rows, "columnar_time"))
    for row in rows:
        snapshot.add_row("curve", row)
    snapshot.write()

    if smoke_mode():
        return  # tiny inputs are noise-dominated; correctness was checked above

    ratio = rows[-1]["ratio"]
    assert ratio >= MIN_BACKEND_SPEEDUP, (  # type: ignore[operator]
        f"columnar backend only {ratio:.2f}× faster than the tuple backend "
        f"at |D| = {rows[-1]['size']} (expected ≥ {MIN_BACKEND_SPEEDUP}×)"
    )


@pytest.mark.parametrize("size", SIZES)
def test_hash_engine_throughput(benchmark, size):
    query, database = yannakakis_scaling_workload(size)
    evaluator = YannakakisEvaluator(query)
    answers = benchmark(lambda: evaluator.evaluate(database))
    print_series(
        f"E15b: hash engine, |D| = {len(database)}",
        [("answers", len(answers))],
    )
    # Cross-check against the (quadratic) dict oracle only at the smallest
    # size — the comparison test already differential-checks every size on
    # the identical seed-0 workloads.
    if size == min(SIZES):
        assert answers == DictYannakakisEvaluator(query).evaluate(database)
    else:
        assert answers
