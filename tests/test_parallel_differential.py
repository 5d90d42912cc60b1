"""Differential: the vectorised numpy kernels must equal the loop kernels.

On numpy storage the batch face runs one vectorised kernel per operator
(:mod:`repro.evaluation.parallel`) once the probe side reaches
:data:`~repro.evaluation.parallel.PARALLEL_MIN_ROWS` rows, and the
:class:`~repro.evaluation.encoding.EncodedRelation` loop kernels below it.
Both promise *bit-identical* output — same rows, same row order, same probe
counts — and the tuple-at-a-time oracle (``tests/helpers/tuple_engine.py``)
stays the ground truth.  This suite pins that
with the repo's differential-oracle pattern:

* whole plans on randomized acyclic workloads (constants, repeated head
  variables) and on Zipf-skewed chains, run with the gate forced to 0
  (vectorised everywhere) and past every input (loop everywhere), against
  the tuple oracle — encoded rows, per-node probe counts, answer sets,
  the plan route and streaming under ``limit=``;
* the kernels themselves on random multi-column keys, on both sides of
  the :data:`~repro.evaluation.parallel.DENSE_FACTOR` gate, including
  encoder growth between calls and keys whose packing would overflow
  ``int64``;
* the radix ordering primitive against ``numpy.lexsort``, and whole plans
  over an encoder past 65,536 codes, where every radix order takes two
  16-bit digits per column;
* client threads sharing one scan cache (``evaluate_batch(...,
  scans=shared)`` called concurrently) or one standing service (``submit`` from four
  threads) under insert/delete interleavings.

The storage-parametrised tests also run on the pure-python ``array('q')``
path, where the vectorised kernels decline and the loop kernels are
checked against the tuple oracle alone.
"""

import os
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datamodel import Atom, Constant, Database, Predicate, Variable
from repro.evaluation import (
    AcyclicityRequired,
    EncodedRelation,
    ExecutionContext,
    ScanCache,
    TermEncoder,
    YannakakisEvaluator,
    evaluate_batch,
    evaluate_with_plan,
    resolve_route,
)
from repro.evaluation import parallel as parallel_module
from repro.evaluation.encoding import NUMPY_ENV
from repro.evaluation.relation import Partition
from repro.queries.cq import ConjunctiveQuery
from repro.service import QueryService
from repro.workloads.generators import skewed_scaling_workload
from helpers import tuple_engine as oracle
from helpers.workloads import randomized_acyclic_workload

STORAGE_PARAMS = pytest.mark.parametrize(
    "storage", ["0", "1"], ids=["python", "numpy"]
)

#: The kernel gate per family: vectorised on every input, or on none.
VECTORISED, LOOP = 0, sys.maxsize


@contextmanager
def _storage(storage, gate=VECTORISED):
    """One columnar storage path with the kernel gate set to ``gate``.

    A plain context manager (not a fixture) so the hypothesis-driven tests
    can enter it per generated input — function-scoped fixtures don't reset
    between hypothesis examples.
    """
    if storage == "1":
        pytest.importorskip("numpy")
    previous_env = os.environ.get(NUMPY_ENV)
    previous_gate = parallel_module.PARALLEL_MIN_ROWS
    os.environ[NUMPY_ENV] = storage
    parallel_module.PARALLEL_MIN_ROWS = gate
    try:
        yield
    finally:
        parallel_module.PARALLEL_MIN_ROWS = previous_gate
        if previous_env is None:
            del os.environ[NUMPY_ENV]
        else:
            os.environ[NUMPY_ENV] = previous_env


@contextmanager
def _dense_factor(factor):
    """The code-range gate of the vectorised kernels set to ``factor``:
    ``0`` sends every join and semi-join to ``searchsorted``,
    ``sys.maxsize`` every single-column key to the code-range kernels."""
    previous = parallel_module.DENSE_FACTOR
    parallel_module.DENSE_FACTOR = factor
    try:
        yield
    finally:
        parallel_module.DENSE_FACTOR = previous


#: Both sides of the code-range gate.
SPARSE, DENSE = 0, sys.maxsize


def _executed(evaluator, database, gate):
    """Encoded rows, total probes and per-node probes of one fresh run."""
    parallel_module.PARALLEL_MIN_ROWS = gate
    plan = evaluator.compile_answer_plan()
    context = ExecutionContext(database, ScanCache(database))
    before = Partition.total_probes
    rows = plan.materialize_encoded(context).rows
    probes = Partition.total_probes - before
    recorded = [
        context.run[node].probes if node in context.run else None
        for node in plan.walk()
    ]
    return rows, probes, recorded


def _assert_kernels_agree(query, database):
    try:
        evaluator = YannakakisEvaluator(query)
    except AcyclicityRequired:
        return  # constant injection made the hypergraph cyclic; out of domain
    truth = oracle.evaluate(evaluator, database)
    loop = _executed(evaluator, database, LOOP)
    for factor in (SPARSE, DENSE):
        with _dense_factor(factor):
            assert _executed(evaluator, database, VECTORISED) == loop, (
                "vectorised kernels diverged from the loop kernels"
            )
    for gate in (VECTORISED, LOOP):
        parallel_module.PARALLEL_MIN_ROWS = gate
        assert evaluator.evaluate(database) == truth
        assert evaluate_with_plan(query, database) == truth
        limit = max(1, len(truth) // 2)
        streamed = list(evaluator.iter_answers(database, limit=limit))
        assert len(streamed) == min(limit, len(truth))
        assert set(streamed) <= truth


@STORAGE_PARAMS
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_parallel_agrees_on_randomized_workloads(storage, seed):
    with _storage(storage):
        query, database = randomized_acyclic_workload(seed)
        _assert_kernels_agree(query, database)


@STORAGE_PARAMS
@pytest.mark.parametrize("seed", range(10))
def test_parallel_agrees_on_seeded_grid(storage, seed):
    """A fixed, deterministic slice of the same space (fast CI signal)."""
    with _storage(storage):
        query, database = randomized_acyclic_workload(seed * 7919)
        _assert_kernels_agree(query, database)


@pytest.mark.parametrize("skew", [0.0, 2.0])
def test_kernels_agree_on_skewed_chains(skew):
    """Hub keys give long, uneven buckets: bucket order must survive."""
    with _storage("1"):
        query, database = skewed_scaling_workload(400, skew=skew, seed=1)
        _assert_kernels_agree(query, database)


# ----------------------------------------------------------------------
# The kernels themselves, on random multi-column keys
# ----------------------------------------------------------------------
ROWS = st.lists(
    st.tuples(*(st.integers(min_value=0, max_value=5) for _ in range(3))),
    max_size=30,
)


def _relation(schema, rows, encoder):
    return EncodedRelation.from_rows(
        schema,
        [encoder.encode_row(tuple(Constant(v) for v in row)) for row in rows],
        encoder,
    )


def _with_probes(kernel):
    before = Partition.total_probes
    result = kernel()
    return result, Partition.total_probes - before


@settings(max_examples=80, deadline=None)
@given(
    left_rows=ROWS,
    right_rows=ROWS,
    width=st.integers(min_value=1, max_value=3),
    growth=st.integers(min_value=0, max_value=300),
    code=st.integers(min_value=0, max_value=5),
    dense=st.booleans(),
)
def test_vectorised_kernels_match_loop_kernels(
    left_rows, right_rows, width, growth, code, dense
):
    """Each kernel against its loop counterpart: rows, order and probes.

    ``width`` join columns are shared; the encoder grows by ``growth``
    codes between the first and second join, so keys cached at the old
    packing base must not be served at the new one.  ``dense`` puts the
    single-column keys on the code-range kernels, or on ``searchsorted``.
    """
    with _storage("1"), _dense_factor(DENSE if dense else SPARSE):
        encoder = TermEncoder()
        xs = tuple(Variable(f"x{i}") for i in range(3))
        ys = xs[:width] + tuple(Variable(f"y{i}") for i in range(width, 3))
        left = _relation(xs, left_rows, encoder)
        right = _relation(ys, right_rows, encoder)
        key = tuple(range(width))
        residual = tuple(range(width, 3))
        schema = xs + ys[width:]

        def check_join():
            vectorised, probes = _with_probes(
                lambda: parallel_module.parallel_join(
                    left, right, key, key, residual, schema
                )
            )
            expected, expected_probes = _with_probes(lambda: left.join(right))
            assert vectorised is not None
            assert vectorised.schema == expected.schema
            assert vectorised.rows == expected.rows
            assert probes == expected_probes == len(left)

        check_join()
        for value in range(1000, 1000 + growth):
            encoder.encode(Constant(value))
        right = _relation(ys, right_rows[::-1], encoder)
        check_join()

        semijoin, probes = _with_probes(
            lambda: parallel_module.parallel_semijoin(left, right, key, key)
        )
        assert semijoin.rows == left.semijoin(right).rows
        assert probes == 0  # membership is uncounted on every path
        projected = parallel_module.parallel_project(left, xs[:width], key)
        assert projected.rows == left.project(xs[:width]).rows
        assert parallel_module.parallel_project(left, xs, (0, 1, 2)).rows == (
            left.project(left.schema).rows
        )
        checks = ((0, encoder.encode(Constant(code))),)
        assert parallel_module.parallel_select(left, checks).rows == (
            left.select_codes(checks).rows
        )


def test_int64_overflow_declines_to_the_loop_kernel():
    """A join or semi-join key whose mixed-radix packing would overflow
    ``int64`` declines, and the operator answers through the loop kernel
    instead.  Dedup packs nothing, so the same key still projects."""
    with _storage("1"):
        # 300 distinct constants: an 8-column key packs at base 300, and
        # 300**8 > 2**62.
        encoder = TermEncoder()
        xs = tuple(Variable(f"x{i}") for i in range(8))
        rows = [tuple((i + 37 * j) % 300 for j in range(8)) for i in range(300)]
        left = _relation(xs, rows, encoder)
        right = _relation(xs, rows[::2], encoder)
        key = tuple(range(8))
        assert parallel_module.parallel_join(left, right, key, key, (), xs) is None
        assert parallel_module.parallel_semijoin(left, right, key, key) is None
        assert parallel_module.parallel_project(left, xs, key).rows == left.project(left.schema).rows

        predicate = Predicate("W", 8)
        database = Database(Atom(predicate, tuple(Constant(v) for v in row)) for row in rows)
        query = ConjunctiveQuery(xs[:1], [Atom(predicate, xs)] * 2)
        evaluator = YannakakisEvaluator(query)
        assert evaluator.evaluate(database) == oracle.evaluate(evaluator, database)


def test_wide_projection_runs_vectorised_past_the_packing_limit():
    """Dedup compares adjacent radix-ordered rows column by column, so a
    key whose packing would need ``base ** 5 >= 2 ** 62`` still runs the
    vectorised kernel, with the loop kernel's rows and order."""
    with _storage("1"):
        encoder = TermEncoder()
        for value in range(2 ** 13):
            encoder.encode(Constant(value))
        xs = tuple(Variable(f"x{i}") for i in range(5))
        rng = random.Random(13)
        rows = [
            tuple(rng.choice((0, 1, 2 ** 13 - 1)) for _ in range(5))
            for _ in range(400)
        ]
        relation = _relation(xs, rows, encoder)
        assert len(encoder) ** 5 >= 2 ** 62
        projected = parallel_module.parallel_project(relation, xs, tuple(range(5)))
        assert projected is not None, "vectorised dedup declined"
        assert projected.rows == relation.project(relation.schema).rows
        narrow = parallel_module.parallel_project(relation, xs[3:], (3, 4))
        assert narrow.rows == relation.project(xs[3:]).rows


@settings(max_examples=80, deadline=None)
@example(rows=0, width=2, base=2 ** 16 + 1, seed=0)
@example(rows=1, width=2, base=2 ** 16 + 1, seed=0)
@given(
    rows=st.integers(min_value=0, max_value=60),
    width=st.integers(min_value=1, max_value=3),
    base=st.sampled_from([2, 7, 2 ** 16, 2 ** 16 + 1, 2 ** 20, 2 ** 33]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_stable_order_matches_lexsort(rows, width, base, seed):
    """The radix order is ``numpy.lexsort``'s (stable, first column most
    significant), at one-digit bases and at bases past 65,536, where each
    column takes two or more 16-bit digits; empty and one-row inputs too."""
    numpy = pytest.importorskip("numpy")
    rng = numpy.random.default_rng(seed)
    # Few distinct values per column, so equal keys (and stability) occur.
    palette = rng.integers(0, base, size=4)
    columns = [palette[rng.integers(0, 4, size=rows)] for _ in range(width)]
    order = parallel_module._stable_order(columns, base)
    assert order.tolist() == numpy.lexsort(tuple(reversed(columns))).tolist()


@pytest.mark.parametrize("factor", [SPARSE, DENSE], ids=["sparse", "dense"])
def test_two_digit_codes_run_end_to_end(factor):
    """Whole plans over an encoder grown past 65,536 codes before the scans
    encode any fact: every code the kernels see needs two radix digits.
    Encoded rows and probes match the loop kernels, answers the oracle."""
    with _storage("1"), _dense_factor(factor):
        query, database = skewed_scaling_workload(400, skew=2.0, seed=1)
        evaluator = YannakakisEvaluator(query)
        truth = oracle.evaluate(evaluator, database)
        runs = []
        for gate in (VECTORISED, LOOP):
            parallel_module.PARALLEL_MIN_ROWS = gate
            scans = ScanCache(database)
            for value in range(2 ** 16 + 100):
                scans.encoder.encode(Constant(f"pad{value}"))
            plan = evaluator.compile_answer_plan()
            context = ExecutionContext(database, scans)
            before = Partition.total_probes
            result = plan.materialize_encoded(context)
            runs.append((result.rows, Partition.total_probes - before))
            assert min(min(row) for row in result.rows) >= 2 ** 16
            assert YannakakisEvaluator(query, scans).evaluate(database) == truth
        assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# Client threads over shared caches
# ----------------------------------------------------------------------
@contextmanager
def _switching_often():
    """Switch threads every microsecond, so concurrent runs interleave."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@STORAGE_PARAMS
def test_batch_evaluator_parallel_matches_sequential(storage):
    with _storage(storage):
        _check_batch_evaluator()


def _check_batch_evaluator():
    queries = []
    databases = []
    for seed in range(6):
        query, database = randomized_acyclic_workload(seed * 613)
        try:
            YannakakisEvaluator(query)
        except AcyclicityRequired:
            continue
        queries.append(query)
        databases.append(database)
    assert queries, "seed grid produced no acyclic queries"
    # One shared database: merge the per-seed instances into one.
    merged = Database()
    for database in databases:
        for atom in database.atoms():
            merged.add(atom)
    serial = evaluate_batch(queries, merged)
    # Four client threads evaluate the batch at once over one shared cache.
    shared = ScanCache(merged)
    with _switching_often(), ThreadPoolExecutor(max_workers=4) as clients:
        runs = [
            clients.submit(evaluate_batch, queries, merged, scans=shared)
            for _ in range(4)
        ]
        concurrent = [run.result(timeout=60) for run in runs]
    assert concurrent == [serial] * 4
    assert [resolve_route(query)[1].evaluate(merged) for query in queries] == serial


E = Predicate("E", 2)
F = Predicate("F", 1)
x, y, z = Variable("x"), Variable("y"), Variable("z")

SERVICE_QUERIES = [
    ConjunctiveQuery((x, z), [Atom(E, (x, y)), Atom(E, (y, z))], name="path"),
    ConjunctiveQuery((x,), [Atom(E, (x, y)), Atom(F, (y,))], name="filtered"),
    ConjunctiveQuery((y,), [Atom(E, (Constant(0), y))], name="anchored"),
]


@STORAGE_PARAMS
def test_service_parallel_submits_survive_mutation_interleaving(storage):
    """Submits against a long-lived service, interleaved with writes.

    Every read — single, or one per query from 4 client threads at once,
    vectorised kernels on — must equal a fresh-cache tuple oracle on the
    current database state; a divergence means a packed-key or
    sorted-build cache survived a write it should not have.
    """
    with _storage(storage), _switching_often():
        _check_service_interleaving()


def _check_service_interleaving():
    rng = random.Random(99)
    database = Database()
    service = QueryService(database)
    oracles = {q.name: YannakakisEvaluator(q) for q in SERVICE_QUERIES}
    evaluated = 0
    with ThreadPoolExecutor(max_workers=4) as clients:
        for _ in range(120):
            roll = rng.random()
            if roll < 0.25:
                query = SERVICE_QUERIES[rng.randrange(len(SERVICE_QUERIES))]
                got = service.submit(query)
                want = oracle.evaluate(oracles[query.name], database)  # fresh scans
                assert got == want, f"{query.name} diverged after {service.writes} writes"
                evaluated += 1
            elif roll < 0.35:
                got = list(clients.map(service.submit, SERVICE_QUERIES, timeout=60))
                want = [oracle.evaluate(oracles[q.name], database) for q in SERVICE_QUERIES]
                assert got == want, "concurrent submits diverged from serial oracle"
                evaluated += len(SERVICE_QUERIES)
            elif roll < 0.7:
                a, b = rng.randrange(5), rng.randrange(5)
                fact = (
                    Atom(E, (Constant(a), Constant(b)))
                    if rng.random() < 0.7
                    else Atom(F, (Constant(a),))
                )
                service.insert(fact)
            else:
                a, b = rng.randrange(5), rng.randrange(5)
                fact = (
                    Atom(E, (Constant(a), Constant(b)))
                    if rng.random() < 0.7
                    else Atom(F, (Constant(a),))
                )
                service.delete(fact)
    assert evaluated > 10
