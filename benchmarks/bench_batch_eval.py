"""Batched vs one-at-a-time evaluation on the shared-predicate workload.

The serving-path north star — many users issuing many CQs over one shared
database — wants the phase-1 atom scans and hash partitions amortised across
a *batch* of queries instead of rebuilt per query.  This benchmark routes
every query of the anchored-star shared-predicate workload of
:func:`repro.workloads.generators.shared_predicate_batch_workload` once
(:func:`repro.evaluation.resolve_route`, outside the timer) and, at
doubling batch sizes over a fixed database, times two ways to run the
routes:

* ``sequential`` — every route over a scan cache of its own (no shared
  state): phase-1 cost ``O(batch · rays · |R|)``;
* ``batched`` — every route over one shared
  :class:`~repro.evaluation.batch.ScanCache`, as
  :func:`repro.evaluation.evaluate_batch` runs them: each predicate's base
  scan and each key index is built once per call, phase-1 cost
  ``O(signatures · |R| + batch · ε)``.

Expected shape: the batched/sequential speedup *grows* as the batch doubles
(the distinct-signature count saturates while the sequential re-scan count
keeps doubling), levelling off at the scan-to-residual-work ratio of the
workload.  The per-size growth factors of both engines are reported per
doubling: sequential ≈ 2× (linear in batch size), batched well below.

Run standalone with ``pytest benchmarks/bench_batch_eval.py -s``.
``BENCH_SMOKE=1`` shrinks batch and database to milliseconds and skips the
timing assertions (tiny inputs are noise-dominated); the tier-1 suite uses
that mode to keep this file executable in CI.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import pytest

from repro.evaluation import ScanCache, resolve_route
from repro.reporting import BenchSnapshot
from repro.workloads.generators import shared_predicate_batch_workload
from conftest import host_metadata, print_series, scaled_sizes, smoke_mode


FULL_BATCHES = [8, 16, 32, 64]
SMOKE_BATCHES = [2, 4]
BATCHES = scaled_sizes(FULL_BATCHES, SMOKE_BATCHES)

FULL_DB_SIZE = 4000
SMOKE_DB_SIZE = 120
DB_SIZE = SMOKE_DB_SIZE if smoke_mode() else FULL_DB_SIZE

#: Acceptance thresholds (see ISSUE 3): batched evaluation must beat the
#: sequential baseline at the largest batch by at least this factor, and the
#: advantage must be larger at the largest batch than at the smallest.
MIN_SPEEDUP = 2.0


def _batched(routes, database, scans=None):
    """Every route over one scan cache (``scans``, else a new one)."""
    if scans is None:
        scans = ScanCache(database)
    return [evaluator.evaluate(database, scans=scans) for evaluator in routes]


def _sequential(routes, database):
    """Every route over a scan cache of its own: the per-query baseline."""
    return [evaluator.evaluate(database) for evaluator in routes]


def _best_of(run, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of ``run()`` (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def run_batches(
    batch_sizes: Sequence[int] = BATCHES,
    size: int = DB_SIZE,
    seed: int = 0,
    repeats: int = 3,
) -> List[Dict[str, object]]:
    """Time batched vs sequential evaluation at each batch size.

    The database is fixed; only the batch grows.  Every run cross-checks the
    two modes for answer-list equality, so the benchmark doubles as a
    differential test on large inputs, and records the ScanCache counters to
    make the amortisation visible (``built`` saturates, ``served`` grows).
    """
    rows: List[Dict[str, object]] = []
    for batch_size in batch_sizes:
        queries, database = shared_predicate_batch_workload(
            batch_size, size=size, seed=seed
        )
        routes = [resolve_route(query)[1] for query in queries]

        cache = ScanCache(database)
        batched_answers = _batched(routes, database, cache)
        assert batched_answers == _sequential(routes, database)

        batched_time = _best_of(lambda: _batched(routes, database), repeats)
        sequential_time = _best_of(lambda: _sequential(routes, database), repeats)

        rows.append(
            {
                "batch": batch_size,
                "db": len(database),
                "answers": sum(len(a) for a in batched_answers),
                "scans_served": cache.served,
                "scans_built": cache.built,
                "batched_time": batched_time,
                "sequential_time": sequential_time,
                "speedup": sequential_time / batched_time if batched_time else None,
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


def test_batched_evaluation_amortises_scans():
    rows = run_batches()
    sequential_growth = _growth(rows, "sequential_time")
    batched_growth = _growth(rows, "batched_time")
    print_series(
        "Batched vs sequential evaluation (shared-predicate workload, "
        f"|D| ≈ {rows[0]['db']})",
        [
            (
                row["batch"],
                row["answers"],
                f"{row['scans_built']}/{row['scans_served']}",
                _format(row["sequential_time"], "s"),
                _format(sg, "×"),
                _format(row["batched_time"], "s"),
                _format(bg, "×"),
                _format(row["speedup"], "×"),
            )
            for row, sg, bg in zip(rows, sequential_growth, batched_growth)
        ],
        header=[
            "batch",
            "answers",
            "built/served",
            "sequential",
            "growth",
            "batched",
            "growth",
            "speedup",
        ],
    )
    for previous, current in zip(rows, rows[1:]):
        factor = current["speedup"] / previous["speedup"]  # type: ignore[operator]
        print(
            f"    speedup growth {previous['batch']}→{current['batch']}: "
            f"{factor:.2f}× per doubling"
        )

    snapshot = BenchSnapshot("batch_eval")
    snapshot.record("host", host_metadata())
    snapshot.record("batches", [row["batch"] for row in rows])
    snapshot.record("speedups", [row["speedup"] for row in rows])
    snapshot.record("speedup_at_largest", rows[-1]["speedup"])
    snapshot.record("sequential_growth", sequential_growth)
    snapshot.record("batched_growth", batched_growth)
    for row in rows:
        snapshot.add_row("curve", row)
    snapshot.write()

    if smoke_mode():
        return  # tiny inputs are noise-dominated; correctness was checked above

    largest = rows[-1]
    assert largest["speedup"] >= MIN_SPEEDUP, (
        f"batched evaluation only {largest['speedup']:.2f}× faster than "
        f"sequential at batch {largest['batch']} (expected ≥ {MIN_SPEEDUP}×)"
    )
    assert rows[-1]["speedup"] > rows[0]["speedup"], (
        "the batched advantage must grow with batch size "
        f"({rows[0]['speedup']:.2f}× at batch {rows[0]['batch']} vs "
        f"{rows[-1]['speedup']:.2f}× at batch {rows[-1]['batch']})"
    )


@pytest.mark.parametrize("batch_size", BATCHES)
def test_batched_throughput(benchmark, batch_size):
    queries, database = shared_predicate_batch_workload(batch_size, size=DB_SIZE)
    routes = [resolve_route(query)[1] for query in queries]
    answers = benchmark(lambda: _batched(routes, database))
    print_series(
        f"batched evaluation, batch = {batch_size}, |D| = {len(database)}",
        [("total answers", sum(len(a) for a in answers))],
    )
    # Differential check at the smallest batch only — the comparison test
    # already cross-checks every batch size on the identical seed-0 workloads.
    if batch_size == min(BATCHES):
        assert answers == _sequential(routes, database)
