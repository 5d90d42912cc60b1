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
from helpers import tuple_engine
from helpers.yannakakis_dict import DictYannakakisEvaluator
from repro.evaluation import ScanCache, YannakakisEvaluator
from repro.evaluation.relation import Partition
from repro.workloads.generators import yannakakis_scaling_workload
from conftest import (
    BenchSnapshot,
    fmt,
    growth,
    interleaved,
    print_series,
    scaled_sizes,
    smoke_mode,
    timed,
)


FULL_SIZES = [250, 500, 1000, 2000]
SMOKE_SIZES = [40, 80]
SIZES = scaled_sizes(FULL_SIZES, SMOKE_SIZES)

#: Acceptance thresholds (see ISSUE 1): the hash engine must be at least
#: this much faster than the dict engine at the largest size, and its
#: per-doubling growth factor must stay below this bound.
MIN_SPEEDUP = 5.0
MAX_LINEAR_GROWTH = 3.0

#: The columnar engine must beat the tuple-at-a-time oracle by at least
#: this factor at the largest non-smoke size.
MIN_BACKEND_SPEEDUP = 3.0


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
        hash_time = timed(lambda: hash_evaluator.evaluate(database), repeats)["min"]

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


def test_hash_engine_linear_dict_engine_quadratic():
    rows = run_scaling()
    hash_growth = growth(rows, "hash_time")
    dict_growth = growth(rows, "dict_time")
    print_series(
        "E15b: Yannakakis scaling (hash relations vs assignment dicts)",
        [
            (
                row["size"],
                row["answers"],
                fmt(row["hash_time"], "s"),
                fmt(hg, "×"),
                fmt(row["dict_time"], "s"),
                fmt(dg, "×"),
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
    """The columnar engine attacks the per-tuple constant — the tuple
    oracle (``tests/helpers/tuple_engine.py``) vs the engine on the same
    plans, engine ≥ 3× faster at the largest non-smoke size.  The oracle
    scans the facts itself on every call; the engine amortises its scans
    and dictionary encodings in one warm ScanCache — the design's point."""
    rows: List[Dict[str, object]] = []
    for size in SIZES:
        query, database = yannakakis_scaling_workload(size)
        evaluator = YannakakisEvaluator(query)
        scans = ScanCache(database)
        answers = tuple_engine.evaluate(evaluator, database)
        before = Partition.total_probes
        engine_answers = evaluator.evaluate(database, scans=scans)
        engine_probes = Partition.total_probes - before
        assert engine_answers == answers  # differential oracle
        samples = interleaved(
            {
                "oracle": lambda: tuple_engine.evaluate(evaluator, database),
                "engine": lambda: evaluator.evaluate(database, scans=scans),
            },
            repeats=5,
        )
        oracle_time, engine_time = min(samples["oracle"]), min(samples["engine"])
        rows.append(
            {
                "size": len(database),
                "answers": len(answers),
                "oracle_time": oracle_time,
                "engine_time": engine_time,
                "ratio": oracle_time / engine_time,
                "engine_probes": engine_probes,
            }
        )
    print_series(
        "Yannakakis, tuple oracle vs columnar engine",
        [
            (
                row["size"],
                row["answers"],
                fmt(row["oracle_time"], "s"),
                fmt(row["engine_time"], "s"),
                fmt(row["ratio"], "×"),
                row["engine_probes"],
            )
            for row in rows
        ],
        header=["|D|", "answers", "oracle", "engine", "ratio", "probes"],
    )

    snapshot = BenchSnapshot("backend_scaling")
    snapshot.record("sizes", [row["size"] for row in rows])
    snapshot.record("oracle_ratios", [row["ratio"] for row in rows])
    snapshot.record("ratio_at_largest", rows[-1]["ratio"])
    snapshot.record("oracle_growth", growth(rows, "oracle_time"))
    snapshot.record("engine_growth", growth(rows, "engine_time"))
    for row in rows:
        snapshot.add_row("curve", row)
    snapshot.write()

    if smoke_mode():
        return  # tiny inputs are noise-dominated; correctness was checked above

    ratio = rows[-1]["ratio"]
    assert ratio >= MIN_BACKEND_SPEEDUP, (  # type: ignore[operator]
        f"columnar engine only {ratio:.2f}× faster than the tuple oracle "
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
