"""Differential tests for the columnar engine.

The tuple-at-a-time engine (``tests/helpers/tuple_engine.py``) is the
differential oracle: for every route (``yannakakis``, ``reformulated``,
``plan``) and every entry point (``evaluate``, ``iter_answers``/
``iter_with_plan`` with and without ``limit=``, ``BatchEvaluator``), the
engine must produce exactly the same answer set — including the corners where representations
historically diverge: injected constants, repeated head variables, empty
predicates, and terms with colliding string forms.

Beyond route equality the suite pins down:

* the encode/decode round trip of :class:`TermEncoder` and
  :class:`EncodedRelation` (property-based, ambiguous terms included);
* the two semi-join kernels — probing a cached left key index and scanning
  the left rows — agree row for row on both storages, and a point
  semi-join on a cached store never re-reads its left key column;
* probe accounting on the batch face — semi-join membership is uncounted,
  joins count one probe per left row, and the pipelined plan route does a
  bounded amount of work per pulled batch (the per-batch analogue of the
  per-tuple bounds in ``tests/test_operators.py``);
* the cache/aliasing discipline: encoded stores are cached per encoder
  identity, shared across ``with_schema`` views, rebuilt on an encoder
  change, and never aliased into operator outputs;
* the optional numpy storage path (``REPRO_NUMPY=1``) agrees with both the
  pure-python ``array('q')`` path and the tuple oracle.
"""

import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel import Atom, Constant, Database, Null, Predicate, Variable
from repro.evaluation import (
    AcyclicityRequired,
    BatchEvaluator,
    Relation,
    ScanCache,
    TermEncoder,
    YannakakisEvaluator,
    evaluate_iter,
    evaluate_with_plan,
    iter_with_plan,
    plan_greedy,
)
from repro.evaluation.encoding import EncodedRelation, NUMPY_ENV
from repro.evaluation.join_plans import BATCH_ROWS
from repro.evaluation.relation import Partition
from repro.queries.cq import ConjunctiveQuery
from repro.workloads.generators import yannakakis_scaling_workload
from repro.workloads.paper_examples import example1_query, example1_tgd
from repro.workloads import music_store_database

from helpers import tuple_engine as oracle
from helpers.workloads import (
    randomized_acyclic_workload,
    randomized_cyclic_workload,
)


def _probes(run):
    before = Partition.total_probes
    result = run()
    return result, Partition.total_probes - before


# ----------------------------------------------------------------------
# Route differentials: the tuple engine is the oracle
# ----------------------------------------------------------------------
def _assert_matches_oracle_acyclic(query, database):
    try:
        evaluator = YannakakisEvaluator(query)
    except AcyclicityRequired:
        # Constant injection can, in rare corners, make the variable
        # hypergraph cyclic; the acyclic route only covers acyclic CQs.
        return
    expected = oracle.evaluate(evaluator, database)
    assert evaluator.evaluate(database) == expected

    streamed = list(evaluator.iter_answers(database))
    assert len(set(streamed)) == len(streamed)  # no duplicates yielded
    assert set(streamed) == expected

    limited = list(evaluator.iter_answers(database, limit=3))
    assert len(limited) == min(3, len(expected))
    assert set(limited) <= expected


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_yannakakis_route_backends_agree(seed):
    query, database = randomized_acyclic_workload(seed)
    _assert_matches_oracle_acyclic(query, database)


@pytest.mark.parametrize("seed", range(20))
def test_yannakakis_route_backends_agree_on_seeded_grid(seed):
    """A fixed, deterministic slice of the same space (fast CI signal)."""
    query, database = randomized_acyclic_workload(seed * 7717)
    _assert_matches_oracle_acyclic(query, database)


def _assert_matches_oracle_plan(query, database):
    expected = oracle.evaluate_with_plan(query, database)
    assert evaluate_with_plan(query, database) == expected

    streamed = list(iter_with_plan(query, database))
    assert len(set(streamed)) == len(streamed)
    assert set(streamed) == expected

    limited = list(iter_with_plan(query, database, limit=3))
    assert len(limited) == min(3, len(expected))
    assert set(limited) <= expected


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_plan_route_backends_agree(seed):
    query, database = randomized_cyclic_workload(seed)
    _assert_matches_oracle_plan(query, database)


@pytest.mark.parametrize("seed", range(10))
def test_plan_route_backends_agree_on_seeded_grid(seed):
    query, database = randomized_cyclic_workload(seed * 6151)
    _assert_matches_oracle_plan(query, database)


def test_reformulated_route_backends_agree():
    query = example1_query()
    tgd = example1_tgd()
    database = music_store_database(seed=3, customers=12, records=15, styles=4)

    batch = BatchEvaluator([query], tgds=[tgd])
    assert batch.routes() == ["reformulated"]
    expected = oracle.evaluate_route(query, database, tgds=[tgd])
    [columnar] = batch.evaluate(database)
    assert columnar == expected

    [stream] = batch.evaluate_iter(database)
    streamed = list(stream)
    assert len(set(streamed)) == len(streamed)
    assert set(streamed) == expected

    streamed_limited = list(
        evaluate_iter(query, database, tgds=[tgd], limit=2)
    )
    assert len(streamed_limited) == min(2, len(expected))
    assert set(streamed_limited) <= expected


# ----------------------------------------------------------------------
# Explicit corners
# ----------------------------------------------------------------------
E = Predicate("E", 2)
F = Predicate("F", 2)


def _chain_query(head):
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    return ConjunctiveQuery(
        head, [Atom(E, (x, y)), Atom(F, (y, z))], name="chain"
    )


def test_empty_predicate_agrees_across_backends():
    database = Database([Atom(E, (Constant("a"), Constant("b")))])
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    query = _chain_query((x, z))
    evaluator = YannakakisEvaluator(query)
    assert evaluator.evaluate(database) == set()
    assert list(evaluator.iter_answers(database)) == []
    assert oracle.evaluate(evaluator, database) == set()


def test_boolean_query_agrees_across_backends():
    database = Database(
        [
            Atom(E, (Constant("a"), Constant("b"))),
            Atom(F, (Constant("b"), Constant("c"))),
        ]
    )
    query = _chain_query(())
    evaluator = YannakakisEvaluator(query)
    assert evaluator.evaluate(database) == {()}
    assert evaluator.boolean(database) is True
    assert oracle.boolean(evaluator, database) is True
    empty = Database([Atom(E, (Constant("a"), Constant("b")))])
    assert YannakakisEvaluator(query).evaluate(empty) == set()


def test_repeated_head_variables_and_constants_agree():
    database = Database(
        [
            Atom(E, (Constant("a"), Constant("b"))),
            Atom(E, (Constant("c"), Constant("b"))),
            Atom(F, (Constant("b"), Constant("d"))),
        ]
    )
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    query = ConjunctiveQuery(
        (x, x, z), [Atom(E, (x, y)), Atom(F, (y, z))], name="rep"
    )
    evaluator = YannakakisEvaluator(query)
    expected = oracle.evaluate(evaluator, database)
    assert expected == {
        (Constant("a"), Constant("a"), Constant("d")),
        (Constant("c"), Constant("c"), Constant("d")),
    }
    assert evaluator.evaluate(database) == expected

    # A constant selection in the body, on top of the repeated head.
    selected = ConjunctiveQuery(
        (x, x), [Atom(E, (x, y)), Atom(F, (y, Constant("d")))], name="sel"
    )
    sel_eval = YannakakisEvaluator(selected)
    assert sel_eval.evaluate(database) == oracle.evaluate(sel_eval, database)


def test_string_colliding_terms_stay_distinct_under_encoding():
    # str(Constant(1)) == str(Constant("1")) == str(Null("1")) == "1"; the
    # encoder must key on the terms themselves, never their string forms.
    database = Database(
        [
            Atom(E, (Constant(1), Constant("p"))),
            Atom(E, (Constant("1"), Constant("q"))),
        ]
    )
    x, y = Variable("x"), Variable("y")
    query = ConjunctiveQuery((x,), [Atom(E, (x, y))], name="collide")
    evaluator = YannakakisEvaluator(query)
    expected = oracle.evaluate(evaluator, database)
    assert len(expected) == 2
    assert evaluator.evaluate(database) == expected


# ----------------------------------------------------------------------
# Encode/decode round trip (property-based)
# ----------------------------------------------------------------------
_terms = st.one_of(
    st.integers(min_value=-5, max_value=5).map(Constant),
    st.sampled_from(["a", "b", "1", "-1"]).map(Constant),
    st.sampled_from(["a", "n", "1"]).map(Null),
)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(_terms, _terms, _terms), min_size=0, max_size=25
    )
)
def test_encode_decode_round_trip(rows):
    encoder = TermEncoder()
    for row in rows:
        assert encoder.decode_row(encoder.encode_row(row)) == row

    schema = (Variable("u"), Variable("v"), Variable("w"))
    relation = Relation(schema, rows)
    encoded = relation.encoded(encoder)
    assert len(encoded) == len(rows)
    # Row order survives the column store round trip.
    assert list(encoded.decoded_rows()) == relation.rows
    assert encoded.to_relation().rows == relation.rows
    # answer_tuples handles projection with repetition at the decode
    # boundary (the repeated-head case).
    u, w = Variable("u"), Variable("w")
    assert encoded.answer_tuples((u, u, w)) == {
        (row[0], row[0], row[2]) for row in rows
    }


def test_encoder_is_a_dense_bijection():
    encoder = TermEncoder()
    terms = [Constant("a"), Constant(1), Constant("1"), Null("a")]
    codes = [encoder.encode(term) for term in terms]
    assert codes == [0, 1, 2, 3]  # dense, first-come
    assert [encoder.encode(term) for term in terms] == codes  # stable
    assert [encoder.decode(code) for code in codes] == terms
    assert len(encoder) == 4


# ----------------------------------------------------------------------
# Probe accounting on the batch face
# ----------------------------------------------------------------------
def _encoded_pair():
    encoder = TermEncoder()
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    left = Relation(
        (x, y),
        [(Constant(i), Constant(i % 3)) for i in range(30)],
    ).encoded(encoder)
    right = Relation(
        (y, z),
        [(Constant(i % 3), Constant(-i)) for i in range(12)],
    ).encoded(encoder)
    return left, right


def _point_pair(left_rows=2000, right_keys=(3, 7, 11)):
    """A cached (long-lived) left store and a small one-shot right side:
    the shape on which ``semijoin`` takes the probe path."""
    encoder = TermEncoder()
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    left = Relation(
        (x, y),
        [(Constant(i), Constant(i % 500)) for i in range(left_rows)],
    ).encoded(encoder)
    right = EncodedRelation.from_rows(
        (y, z),
        [(encoder.encode(Constant(key)), encoder.encode(Constant(-1))) for key in right_keys],
        encoder,
    )
    return left, right


def test_semijoin_membership_is_uncounted():
    left, right = _encoded_pair()
    result, probes = _probes(lambda: left.semijoin(right))
    assert probes == 0
    assert len(result) == 30  # every y ∈ {0,1,2} matches

    # Large left, small right: the probe path, still uncounted.
    left, right = _point_pair()
    result, probes = _probes(lambda: left.semijoin(right))
    assert ("index", (1,)) in left.store.caches  # the probe path ran
    assert probes == 0
    assert len(result) == 3 * 4  # each right key has 4 left rows


# ----------------------------------------------------------------------
# Semi-join kernels: probing the left key index vs scanning the left rows
# ----------------------------------------------------------------------
def _storage_env(use_numpy):
    if use_numpy:
        pytest.importorskip("numpy")
    return mock.patch.dict(os.environ, {NUMPY_ENV: "1" if use_numpy else "0"})


def _assert_probe_matches_scan(left_rows, right_rows, width, use_numpy):
    """Both kernels, and ``semijoin``, return the oracle semi-join's rows in
    the same order (``left_rows`` over x, y, w; the key is the first
    ``width`` of x, y)."""
    x, y, w, z = Variable("x"), Variable("y"), Variable("w"), Variable("z")
    key = (x, y)[:width]
    with _storage_env(use_numpy):
        encoder = TermEncoder()
        left_tuples = Relation((x, y, w), [tuple(map(Constant, row)) for row in left_rows])
        right_tuples = Relation(
            key + (z,), [tuple(map(Constant, row[:width])) + (Constant(-1),) for row in right_rows]
        )
        left = left_tuples.encoded(encoder)
        right = right_tuples.encoded(encoder)
        assert left.store.use_numpy == use_numpy
        index = right.key_index(tuple(range(width)))
        positions = tuple(range(width))
        scanned = left.semijoin_index(positions, index)
        probed = left.semijoin_probe(positions, index)
        assert probed.rows == scanned.rows
        assert left.semijoin(right).rows == scanned.rows
        expected = oracle.semijoin(left_tuples, right_tuples).rows
        assert list(scanned.decoded_rows()) == expected


_LEFT_ROWS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=50),
    ),
    max_size=60,
)
#: Right keys drawn past the left domain too, so some are absent.
_RIGHT_ROWS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=5)),
    max_size=8,
)


@pytest.mark.parametrize("use_numpy", [False, True], ids=["array", "numpy"])
@pytest.mark.parametrize("width", [1, 2])
@settings(max_examples=60, deadline=None)
@given(left_rows=_LEFT_ROWS, right_rows=_RIGHT_ROWS)
def test_semijoin_probe_agrees_with_scan(use_numpy, width, left_rows, right_rows):
    _assert_probe_matches_scan(left_rows, right_rows, width, use_numpy)


@pytest.mark.parametrize("use_numpy", [False, True], ids=["array", "numpy"])
@pytest.mark.parametrize(
    "left_rows, right_rows",
    [
        # duplicate left keys, interleaved so buckets cross each other
        ([(i % 4, i % 2, i) for i in range(40)], [(1, 1), (3, 1)]),
        # right keys absent from the left, beside one present
        ([(i, 0, i) for i in range(30)], [(100, 0), (7, 0), (200, 9)]),
        # empty right side
        ([(i, 0, i) for i in range(30)], []),
        # empty left side
        ([], [(1, 0)]),
    ],
    ids=["duplicate-keys", "absent-keys", "empty-right", "empty-left"],
)
@pytest.mark.parametrize("width", [1, 2])
def test_semijoin_probe_agrees_with_scan_corners(use_numpy, left_rows, right_rows, width):
    _assert_probe_matches_scan(left_rows, right_rows, width, use_numpy)


def test_semijoin_probes_only_long_lived_stores():
    left, right = _point_pair()
    assert left.store.long_lived  # cached on its Relation
    one_shot = left.fresh_copy()  # an operator output
    assert not one_shot.store.long_lived
    assert one_shot.semijoin(right).rows == left.semijoin(right).rows
    assert ("index", (1,)) in left.store.caches
    assert not one_shot.store.caches  # no index built on a one-shot store
    # A right side with many keys keeps the scan on a long-lived store too.
    left, _ = _point_pair()
    wide = EncodedRelation.from_rows(
        right.schema,
        [(left.encoder.encode(Constant(key)), 0) for key in range(600)],
        left.encoder,
    )
    assert len(left.semijoin(wide)) == len(left)
    assert ("index", (1,)) not in left.store.caches


def test_point_semijoin_on_a_cached_store_does_not_scan_the_left_keys(monkeypatch):
    """Bounded work: once a cached store's key index exists, a point
    semi-join costs its answer, not the relation — the left key column is
    never read again."""
    left, right = _point_pair(left_rows=20_000)
    reads = []
    original = EncodedRelation._key_column

    def counting(self, positions):
        if self.store is left.store:
            reads.append(positions)
        return original(self, positions)

    monkeypatch.setattr(EncodedRelation, "_key_column", counting)
    first = left.semijoin(right)
    reads.clear()
    second = left.semijoin(right)
    assert reads == []
    assert second.rows == first.rows
    assert len(second) == 3 * 40


def test_join_counts_one_probe_per_left_row():
    left, right = _encoded_pair()
    result, probes = _probes(lambda: left.join(right))
    assert probes == len(left)
    assert len(result) == 30 * 4  # each of the 3 keys has 4 right rows


def test_cross_product_counts_no_probes():
    encoder = TermEncoder()
    x, z = Variable("x"), Variable("z")
    left = Relation((x,), [(Constant(i),) for i in range(5)]).encoded(encoder)
    right = Relation((z,), [(Constant(-i),) for i in range(4)]).encoded(encoder)
    result, probes = _probes(lambda: left.join(right))
    assert probes == 0
    assert len(result) == 20


def test_columnar_iter_with_plan_does_bounded_work_per_batch():
    """The per-batch pipelining bound (tests/test_operators.py checks the
    same bound at one row per batch): a ``limit=`` consumer of the plan
    route pulls O(chain · BATCH_ROWS) probes, not the full pipeline."""
    # Large enough that every base scan spans several BATCH_ROWS batches —
    # below that the single-batch pipeline legitimately does all its work
    # for the first pull.
    query, database = yannakakis_scaling_workload(12000, seed=2)
    plan = plan_greedy(query, database)
    _, probes_limited = _probes(
        lambda: list(iter_with_plan(query, database, limit=3))
    )
    _, probes_full = _probes(lambda: list(iter_with_plan(query, database)))
    # One pulled batch per chain step, with slack for join fan-out growing
    # an intermediate batch past BATCH_ROWS.
    assert probes_limited <= 4 * (len(plan) + 1) * BATCH_ROWS
    assert 2 * probes_limited <= probes_full


def test_columnar_first_streamed_answer_is_cheap():
    query, database = yannakakis_scaling_workload(800, seed=1)
    evaluator = YannakakisEvaluator(query)
    _, full_probes = _probes(lambda: evaluator.evaluate(database))
    stream = evaluator.iter_answers(database)
    first, first_probes = _probes(lambda: next(stream))
    assert first in evaluator.evaluate(database)
    assert 10 * first_probes <= full_probes


# ----------------------------------------------------------------------
# Cache and aliasing discipline (satellite: statistics/encoding caches)
# ----------------------------------------------------------------------
def test_encoded_store_cached_per_encoder_and_shared_across_views():
    x, y = Variable("x"), Variable("y")
    relation = Relation(
        (x, y), [(Constant(i), Constant(i % 2)) for i in range(8)]
    )
    encoder = TermEncoder()
    first = relation.encoded(encoder)
    assert relation.encoded(encoder).store is first.store  # built once

    # Scans of one predicate under any variable names are views of its
    # base relation's one encoded store.
    E = Predicate("E", 2)
    cache = ScanCache(Database([Atom(E, row) for row in relation.rows]))
    view = cache.scan(Atom(E, (x, y)))
    assert cache.scan(Atom(E, (Variable("u"), Variable("v")))).store is view.store

    # A different encoder invalidates the single-slot cache...
    other = TermEncoder()
    rebuilt = relation.encoded(other)
    assert rebuilt.store is not first.store
    assert list(rebuilt.decoded_rows()) == relation.rows
    # ...and switching back rebuilds again, still correct.
    again = relation.encoded(encoder)
    assert again.store is not first.store
    assert list(again.decoded_rows()) == relation.rows


def test_relation_operator_outputs_never_alias_stats_caches():
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    left = Relation((x, y), [(Constant(1), Constant(2))])
    right = Relation((y, z), [(Constant(2), Constant(3))])
    left.column_distinct_counts()  # populate the stats cache
    joined = oracle.join(left, right)
    assert joined._stats is not left._stats
    assert joined._stats is not right._stats
    projected = joined.project((x,))
    assert projected._stats is not joined._stats


def test_encoded_operator_outputs_get_fresh_caches():
    left, right = _encoded_pair()
    left.key_index((0,))  # populate a store cache
    out = left.semijoin(right)
    assert out.store is not left.store
    assert out.store.caches is not left.store.caches

    # Schema views share the store (and so all caches)...
    view = left.with_schema((Variable("p"), Variable("q")))
    assert view.store is left.store
    # ...while fresh_copy shares the immutable columns but never the caches.
    fresh = left.fresh_copy()
    assert fresh.store is not left.store
    assert fresh.store.caches is not left.store.caches
    assert fresh.store.columns[0] is left.store.columns[0]


# ----------------------------------------------------------------------
# The numpy storage path
# ----------------------------------------------------------------------
def test_numpy_path_agrees_with_tuple_oracle(monkeypatch):
    pytest.importorskip("numpy")
    monkeypatch.setenv(NUMPY_ENV, "1")

    # Fresh relations (no cached pure-python stores) under the numpy flag.
    encoder = TermEncoder()
    x, y = Variable("x"), Variable("y")
    relation = Relation(
        (x, y), [(Constant(i % 7), Constant(i % 3)) for i in range(40)]
    )
    encoded = relation.encoded(encoder)
    assert encoded.store.use_numpy
    assert list(encoded.decoded_rows()) == relation.rows

    query, database = yannakakis_scaling_workload(150, seed=4)
    evaluator = YannakakisEvaluator(query)
    expected = oracle.evaluate(evaluator, database)
    assert evaluator.evaluate(database, scans=ScanCache(database)) == expected

    # The same workload through the plan executor's numpy batch face.
    cyclic_query, cyclic_db = randomized_cyclic_workload(11)
    assert evaluate_with_plan(cyclic_query, cyclic_db) == oracle.evaluate_with_plan(
        cyclic_query, cyclic_db
    )
