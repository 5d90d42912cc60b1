"""Vectorised numpy kernels vs loop kernels on the columnar face.

On numpy storage each batch operator has two kernels: the per-row
:class:`~repro.evaluation.encoding.EncodedRelation` loop kernel and the
single-pass dense-code kernel of :mod:`repro.evaluation.parallel` (a
radix-ordered build side, a code-range mask for semi-joins, ``bincount``
blocks for joins, dedup over the radix order — no comparison sort).
Production runs the vectorised kernel whenever
the probe side has at least ``PARALLEL_MIN_ROWS`` rows (0: always); this
benchmark forces each family in turn by holding that gate at 0
(vectorised everywhere) or past every input (loop everywhere).

The database is the layered chain workload of
:func:`repro.workloads.generators.yannakakis_scaling_workload`, on numpy
storage, behind one warm :class:`ScanCache` (scans, encodings and derived
key caches amortised, as on a serving path).  Timed runs alternate the two
families ``REPEATS`` times; the snapshot records the median and quartiles
of each, and the host block the commit measured.  *Engine* time is :meth:`PlanTree.materialize_encoded` — the part
the kernels execute; *end to end* is ``evaluate`` including decoding the
answer set.  Every vectorised run is checked for bit-identical encoded
rows against the loop kernels, and the smallest size against the tuple
oracle (``tests/helpers/tuple_engine.py``).

Acceptance: at the largest non-smoke size the vectorised engine is at
least :data:`MIN_VECTORISED_SPEEDUP` × faster than the loop engine (median
over median).  ``tests/test_parallel_exec.py`` pins the committed
``BENCH_parallel_scaling.json``.

Run standalone with ``pytest benchmarks/bench_parallel_scaling.py -s`` (or
``make bench-parallel``).  ``BENCH_SMOKE=1`` shrinks the sizes to
milliseconds and skips the timing assertion.  Without numpy the test is
skipped.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List

import pytest

from helpers import tuple_engine
from repro.evaluation import ExecutionContext, ScanCache, YannakakisEvaluator
from repro.evaluation import parallel as kernels
from repro.evaluation.encoding import NUMPY_ENV
from repro.workloads.generators import yannakakis_scaling_workload
from conftest import BenchSnapshot, print_series, scaled_sizes, smoke_mode, summary


FULL_SIZES = [5000, 20000]
SMOKE_SIZES = [60, 300]
SIZES = scaled_sizes(FULL_SIZES, SMOKE_SIZES)

REPEATS = 7
SEED = 5

#: The probe-side gate per kernel family: 0 forces the vectorised kernels
#: on every input, ``sys.maxsize`` keeps every input on the loop kernels.
GATES = {"loop": sys.maxsize, "vectorised": 0}

#: Acceptance threshold: vectorised vs loop engine time, numpy storage,
#: largest non-smoke size.
MIN_VECTORISED_SPEEDUP = 2.0


def _sweep(size: int) -> Dict[str, object]:
    query, database = yannakakis_scaling_workload(size, seed=SEED)
    scans = ScanCache(database)
    for atom in query.body:
        scans.scan(atom)
    evaluator = YannakakisEvaluator(query, scans)

    def engine():
        plan = evaluator.compile_answer_plan()
        context = ExecutionContext(database, scans)
        return plan.materialize_encoded(context)

    def end_to_end():
        return evaluator.evaluate(database)

    previous_gate = kernels.PARALLEL_MIN_ROWS
    engine_times: Dict[str, List[float]] = {name: [] for name in GATES}
    e2e_times: Dict[str, List[float]] = {name: [] for name in GATES}
    try:
        kernels.PARALLEL_MIN_ROWS = GATES["loop"]
        reference_rows = engine().rows
        reference = end_to_end()
        for repeat in range(REPEATS):
            # Alternate which family runs first, so drift hits both.
            order = list(GATES) if repeat % 2 == 0 else list(reversed(GATES))
            for name in order:
                kernels.PARALLEL_MIN_ROWS = GATES[name]
                start = time.perf_counter()
                rows = engine().rows
                engine_times[name].append(time.perf_counter() - start)
                assert rows == reference_rows, (
                    f"{name} kernels not bit-identical at |D| = {len(database)}"
                )
                start = time.perf_counter()
                answers = end_to_end()
                e2e_times[name].append(time.perf_counter() - start)
                assert answers == reference
    finally:
        kernels.PARALLEL_MIN_ROWS = previous_gate
    engine_stats = {name: summary(times) for name, times in engine_times.items()}
    e2e_stats = {name: summary(times) for name, times in e2e_times.items()}
    return {
        "size": len(database),
        "answers": len(reference),
        "engine": engine_stats,
        "end_to_end": e2e_stats,
        "speedup": engine_stats["loop"]["median"]
        / engine_stats["vectorised"]["median"],
        "e2e_speedup": e2e_stats["loop"]["median"]
        / e2e_stats["vectorised"]["median"],
    }


def test_vectorised_vs_loop_kernels(monkeypatch):
    numpy = pytest.importorskip("numpy")
    monkeypatch.setenv(NUMPY_ENV, "1")
    rows = [_sweep(size) for size in SIZES]

    # Differential oracle: the tuple engine on the smallest workload.
    query, database = yannakakis_scaling_workload(SIZES[0], seed=SEED)
    evaluator = YannakakisEvaluator(query)
    assert tuple_engine.evaluate(evaluator, database) == evaluator.evaluate(database)

    def ms(stats: Dict[str, float]) -> str:
        return (
            f"{stats['median'] * 1000:6.1f}ms "
            f"[{stats['q1'] * 1000:.1f}–{stats['q3'] * 1000:.1f}]"
        )

    print_series(
        f"numpy storage: loop vs vectorised kernels "
        f"(median [quartiles] of {REPEATS}, alternating)",
        [
            (
                row["size"],
                row["answers"],
                ms(row["engine"]["loop"]),
                ms(row["engine"]["vectorised"]),
                f"{row['speedup']:.2f}×",
                f"{row['e2e_speedup']:.2f}×",
            )
            for row in rows
        ],
        header=[
            "|D|",
            "answers",
            "engine loop",
            "engine vectorised",
            "engine speedup",
            "end-to-end speedup",
        ],
    )

    snapshot = BenchSnapshot("parallel_scaling")
    snapshot.record("repeats", REPEATS)
    snapshot.record("seed", SEED)
    for row in rows:
        snapshot.add_row("sweeps", row)
    largest = max(rows, key=lambda row: row["size"])
    snapshot.record("vectorised_speedup", largest["speedup"])
    snapshot.record("vectorised_e2e_speedup", largest["e2e_speedup"])
    snapshot.write()

    if smoke_mode():
        return  # tiny inputs are noise-dominated; correctness was checked above

    assert largest["speedup"] >= MIN_VECTORISED_SPEEDUP, (
        f"vectorised kernels only {largest['speedup']:.2f}× faster than the "
        f"loop kernels at |D| = {largest['size']} "
        f"(expected ≥ {MIN_VECTORISED_SPEEDUP}×)"
    )
