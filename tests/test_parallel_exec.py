"""Unit tests for the vectorised kernels and their thread-safety.

Covers the seams the differential suite (``test_parallel_differential.py``)
does not: the ``REPRO_BATCH_ROWS`` knob, encoder thread-safety under a
hammering pool, which kernel a default numpy run takes, verification of a
vectorised plan, probe accounting parity, runs of one shared plan, and the
committed ``BENCH_parallel_scaling.json`` record.
"""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.analysis import verify_plan
from repro.datamodel import Constant, Variable
from repro.evaluation import (
    ExecutionContext,
    EncodedRelation,
    ScanCache,
    TermEncoder,
    YannakakisEvaluator,
)
from repro.evaluation import operators as operators_module
from repro.evaluation import parallel as parallel_module
from repro.evaluation.operators import (
    BATCH_ROWS_ENV,
    DEFAULT_BATCH_ROWS,
    _resolve_batch_rows,
)
from repro.evaluation.relation import Partition
from repro.workloads.generators import yannakakis_scaling_workload

REPO_ROOT = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# Satellite 1: TermEncoder under a hammering thread pool
# ----------------------------------------------------------------------
def test_term_encoder_concurrent_encoding_stays_bijective():
    """Many threads encoding overlapping term sets must build one bijection.

    Before the lock, two threads could both miss the dict and append the
    same term twice (or interleave appends and hand out the same code for
    different terms).  Overlapping work maximises that window.
    """
    encoder = TermEncoder()
    terms = [Constant(value) for value in range(400)]
    barrier = threading.Barrier(8)

    def hammer(offset):
        barrier.wait()  # release all threads into encode() together
        return [encoder.encode(terms[(offset * 13 + i) % len(terms)]) for i in range(2000)]

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = [f.result() for f in [pool.submit(hammer, n) for n in range(8)]]

    # One code per distinct term, every handed-out code decodes back.
    assert len(encoder) == len(terms)
    assert sorted(encoder.codes.values()) == list(range(len(terms)))
    for codes in results:
        for code in codes:
            assert encoder.encode(encoder.decode(code)) == code


# ----------------------------------------------------------------------
# Satellite 2: REPRO_BATCH_ROWS validation
# ----------------------------------------------------------------------
def test_batch_rows_env_overrides(monkeypatch):
    monkeypatch.setenv(BATCH_ROWS_ENV, "4096")
    assert _resolve_batch_rows() == 4096
    monkeypatch.delenv(BATCH_ROWS_ENV)
    assert _resolve_batch_rows() == DEFAULT_BATCH_ROWS


@pytest.mark.parametrize("junk", ["0", "-5", "lots", "3.5"])
def test_batch_rows_junk_warns_and_defaults(monkeypatch, junk):
    monkeypatch.setenv(BATCH_ROWS_ENV, junk)
    with pytest.warns(RuntimeWarning, match=BATCH_ROWS_ENV):
        assert _resolve_batch_rows() == DEFAULT_BATCH_ROWS


# ----------------------------------------------------------------------
# Executed-plan seams: kernel selection, verification, probe accounting
# ----------------------------------------------------------------------
def _count_vectorised_runs(monkeypatch):
    """Wrap the kernels the operators call; count non-declines."""
    runs = []
    for name in ("parallel_join", "parallel_semijoin", "parallel_project"):
        kernel = getattr(operators_module, name)

        def counted(*args, _kernel=kernel, _name=name):
            result = _kernel(*args)
            if result is not None:
                runs.append(_name)
            return result

        monkeypatch.setattr(operators_module, name, counted)
    return runs


def test_default_numpy_run_takes_vectorised_kernel_above_threshold(monkeypatch):
    """The shipped gate: a numpy run vectorises every
    join and semi-join whose probe side reaches ``PARALLEL_MIN_ROWS`` (all
    of them at the shipped gate of 0), and ``array('q')`` storage never
    does."""
    pytest.importorskip("numpy")
    runs = _count_vectorised_runs(monkeypatch)
    query, database = yannakakis_scaling_workload(400, seed=3)
    assert all(
        len(database.atoms_with_predicate(atom.predicate))
        >= parallel_module.PARALLEL_MIN_ROWS
        for atom in query.body
    )
    monkeypatch.setenv("REPRO_NUMPY", "0")
    expected = YannakakisEvaluator(query).evaluate(database, backend="columnar")
    assert runs == [], "vectorised kernels ran on array('q') storage"
    monkeypatch.setenv("REPRO_NUMPY", "1")
    answers = YannakakisEvaluator(query).evaluate(database, backend="columnar")
    assert {"parallel_join", "parallel_semijoin"} <= set(runs)
    assert answers == expected == YannakakisEvaluator(query).evaluate(
        database, backend="tuple"
    )


def test_verifier_passes_clean_parallel_plan(monkeypatch):
    """A plan whose operators ran on the vectorised kernels verifies clean."""
    pytest.importorskip("numpy")
    monkeypatch.setenv("REPRO_NUMPY", "1")
    monkeypatch.setattr(parallel_module, "PARALLEL_MIN_ROWS", 0)
    runs = _count_vectorised_runs(monkeypatch)
    query, database = yannakakis_scaling_workload(400, seed=3)
    scans = ScanCache(database)
    plan = YannakakisEvaluator(query, scans).compile_answer_plan()
    plan.materialize_encoded(ExecutionContext(database, scans, backend="columnar"))
    assert runs, "no vectorised kernel ran despite a zero gate"
    assert verify_plan(plan) == []


def test_probe_accounting_matches_serial(monkeypatch):
    """``Partition.total_probes`` must advance identically on both kernels.

    The vectorised join adds ``len(probe side)`` probes at once, exactly
    what the loop kernel counts row by row, so the bounded-work assertions
    (probes ≤ O(|D| + |answers|)) hold on either path.
    """
    pytest.importorskip("numpy")
    monkeypatch.setenv("REPRO_NUMPY", "1")
    query, database = yannakakis_scaling_workload(400, seed=3)

    def probes(gate):
        monkeypatch.setattr(parallel_module, "PARALLEL_MIN_ROWS", gate)
        evaluator = YannakakisEvaluator(query)
        before = Partition.total_probes
        answers = evaluator.evaluate(database, backend="columnar")
        return answers, Partition.total_probes - before

    assert probes(0) == probes(sys.maxsize)


def test_multi_column_packed_keys_track_encoder_growth(monkeypatch):
    """A warm packed-key cache must repack after the shared encoder grows.

    One join side can sit warm in a scan cache — its multi-column keys
    packed at the encoder size of an earlier query — while the other side
    is a fresh store packed at the current, larger size (new query
    constants, absorbed inserts).  The mixed-radix base must therefore be
    sampled once per kernel call and be part of the cache key; otherwise
    the two sides compare incompatible encodings and probes silently miss.
    """
    pytest.importorskip("numpy")
    monkeypatch.setenv("REPRO_NUMPY", "1")
    monkeypatch.setattr(parallel_module, "PARALLEL_MIN_ROWS", 0)
    encoder = TermEncoder()
    schema = (Variable("x"), Variable("y"))
    rows = [(Constant(i), Constant((i * 7) % 40)) for i in range(48)]
    encoded_rows = [encoder.encode_row(row) for row in rows]
    left = EncodedRelation.from_rows(schema, encoded_rows, encoder)

    def vectorised_rows(build):
        result = parallel_module.parallel_join(left, build, (0, 1), (0, 1), (), schema)
        assert result is not None, "vectorised kernel unexpectedly declined"
        return result.rows

    warm = EncodedRelation.from_rows(schema, encoded_rows[:24], encoder)
    assert vectorised_rows(warm) == left.join(warm).rows
    # ``left``'s packed keys are now cached.  Grow the shared encoder, then
    # join against a fresh store whose keys pack at the larger base.
    for value in range(1000, 1400):
        encoder.encode(Constant(value))
    fresh = EncodedRelation.from_rows(schema, encoded_rows[8:], encoder)
    assert vectorised_rows(fresh) == left.join(fresh).rows


# ----------------------------------------------------------------------
# Probe accounting under concurrent scheduling
# ----------------------------------------------------------------------
def test_probe_counters_are_exact_under_concurrency():
    """Concurrent probes must not lose process-wide updates."""
    partition = Partition((0,), [(value,) for value in range(4)])
    barrier = threading.Barrier(8)

    def hammer():
        barrier.wait()
        for _ in range(5000):
            partition.get((1,))

    start = Partition.total_probes
    with ThreadPoolExecutor(max_workers=8) as pool:
        for future in [pool.submit(hammer) for _ in range(8)]:
            future.result()
    assert Partition.total_probes - start == 8 * 5000


def _observed(plan, context):
    """Per node of ``plan``: the (rows, probes, face) one run recorded."""
    return [
        (record.rows, record.probes, record.face)
        for record in (context.run.get(node) for node in plan.walk())
        if record is not None
    ]


def test_runs_of_one_plan_share_nothing():
    """One compiled plan runs serially and from more threads than cores at
    once: every run gets the tuple-engine answers and records exactly the
    rows and probes of a run on its own — a record shared between runs
    would double them — so EXPLAIN's per-operator counts never mix runs."""
    query, database = yannakakis_scaling_workload(600, seed=3)
    scans = ScanCache(database)
    evaluator = YannakakisEvaluator(query, scans)
    plan = evaluator.compile_answer_plan()
    truth = evaluator.evaluate(database, backend="tuple")
    workers = 4

    def run(backend):
        context = ExecutionContext(database, scans, backend=backend)
        if context.backend == "columnar":
            relation = plan.materialize_encoded(context).to_relation()
        else:
            relation = plan.materialize(context)
        return relation.answer_tuples(query.head), context

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for backend in ("tuple", "columnar"):
            serial = [run(backend), run(backend)]
            barrier = threading.Barrier(workers)

            def concurrent():
                barrier.wait(timeout=30)
                return run(backend)

            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(concurrent) for _ in range(workers)]
                parallel = [future.result(timeout=60) for future in futures]
            expected = _observed(plan, serial[0][1])
            assert any(probes for _rows, probes, _face in expected)
            for answers, context in serial + parallel:
                assert answers == truth
                assert _observed(plan, context) == expected
    finally:
        sys.setswitchinterval(previous)


# ----------------------------------------------------------------------
# Acceptance record: the committed benchmark snapshot
# ----------------------------------------------------------------------
def test_committed_parallel_snapshot_records_acceptance_speedup():
    """The committed ``BENCH_parallel_scaling.json`` (regenerated by ``make
    bench-parallel``) records the vectorised kernels ≥ 2× faster than the
    loop kernels on numpy storage at the largest size, with its host.

    End to end the bound is 1.5×: decoding the answer set is the same work
    on both kernel families (~90 ms of the ~120/210 ms at |D| ≈ 20k), so
    even a 3.6× engine gain shows as ~1.7× end to end.

    Pins the *committed* artefact, so a perf regression has to show up in
    the recorded snapshot before it can be committed — no re-timing in CI.
    """
    snapshot = json.loads((REPO_ROOT / "BENCH_parallel_scaling.json").read_text())
    assert snapshot["vectorised_speedup"] >= 2.0
    assert snapshot["vectorised_e2e_speedup"] >= 1.5
    assert {"cores", "python", "numpy"} <= set(snapshot["host"])
    largest = max(snapshot["sweeps"], key=lambda row: row["size"])
    assert largest["speedup"] == snapshot["vectorised_speedup"]
    assert largest["e2e_speedup"] == snapshot["vectorised_e2e_speedup"]
    engine = largest["engine"]
    assert engine["vectorised"]["q3"] < engine["loop"]["q1"]
