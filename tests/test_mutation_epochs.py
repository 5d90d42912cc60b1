"""Epoch-aware caches under in-place mutation: the stale-answer bugfix.

The seed's ``ScanCache`` guarded staleness with an O(1) *size snapshot*, so
any size-preserving mutation (delete one fact, insert another) silently
served pre-mutation partitions and answers.  These tests pin the fix:

* ``Instance`` mutation epochs, the bounded journal, and content tokens;
* the regression itself — a same-size delete+insert must be answered from
  post-mutation facts (this test fails on the seed);
* incremental maintenance — a predicate's cached base rows, partitions
  and encoding are patched by :meth:`Relation.apply_delta`
  (``delta_merges``), not rebuilt, and partitions taken before the merge
  observe it (the aliasing audit); the encoded store is carried forward as
  a new store equal to a fresh encoding, whose carried key indexes are new
  objects equal to fresh builds, leaving the pre-merge store untouched;
* journal replay by predicate — a write queues only its own predicate's
  delta, and its sync work does not grow with the anchors ever read;
* the distinct :class:`CacheBindingError` for foreign databases, with
  fact-identical copies accepted;
* epoch-aware :class:`Statistics` and the PLAN016 verifier check.
"""

import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Severity, verify_plan
from repro.datamodel import Atom, Constant, Database, Instance, Predicate, Variable
from repro.evaluation import (
    CacheBindingError,
    ExecutionContext,
    Relation,
    Scan,
    ScanCache,
    Statistics,
    YannakakisEvaluator,
)
from repro.evaluation.encoding import NUMPY_ENV, EncodedRelation, IntIndex
from repro.evaluation.relation import swap_moves
from repro.queries.cq import ConjunctiveQuery
from repro.service import QueryService

from helpers.tuple_engine import scan_atom

E = Predicate("E", 2)
F = Predicate("F", 1)
x, y, z = Variable("x"), Variable("y"), Variable("z")


def _edge(a, b):
    return Atom(E, (Constant(a), Constant(b)))


def _chain_db(*pairs):
    database = Database()
    for a, b in pairs:
        database.add(_edge(a, b))
    return database


# ----------------------------------------------------------------------
# Instance: epochs, journal, content tokens
# ----------------------------------------------------------------------
class TestInstanceEpochs:
    def test_epoch_counts_effective_mutations_only(self):
        database = Database()
        assert database.mutation_epoch == 0
        assert database.add(_edge(1, 2))
        assert database.mutation_epoch == 1
        assert not database.add(_edge(1, 2))  # already present: no epoch
        assert database.mutation_epoch == 1
        assert database.discard(_edge(1, 2))
        assert database.mutation_epoch == 2
        assert not database.discard(_edge(1, 2))  # absent: no epoch
        assert database.mutation_epoch == 2

    def test_journal_since_replays_effective_mutations(self):
        database = _chain_db((1, 2))
        epoch = database.mutation_epoch
        database.add(_edge(2, 3))
        database.discard(_edge(1, 2))
        journal = database.journal_since(epoch)
        assert journal == [(True, _edge(2, 3)), (False, _edge(1, 2))]
        assert database.journal_since(database.mutation_epoch) == []

    def test_journal_since_is_none_beyond_the_window(self):
        database = Database()
        assert database.journal_since(database.mutation_epoch + 1) is None

    def test_journal_trims_in_chunks(self, monkeypatch):
        monkeypatch.setattr(Instance, "JOURNAL_LIMIT", 4)
        database = Database()
        for i in range(2 * 4 + 1):  # one past the 2*limit trim trigger
            database.add(Atom(F, (Constant(i),)))
        assert database.journal_since(0) is None  # oldest entries dropped
        recent = database.journal_since(database.mutation_epoch - 2)
        assert recent is not None and len(recent) == 2

    def test_copy_shares_content_token_until_either_mutates(self):
        database = _chain_db((1, 2))
        clone = database.copy()
        assert database.content_token() is clone.content_token()
        assert clone.mutation_epoch == database.mutation_epoch
        clone.add(_edge(9, 9))
        assert database.content_token() is not clone.content_token()
        other = database.copy()
        database.add(_edge(8, 8))
        assert database.content_token() is not other.content_token()


# ----------------------------------------------------------------------
# The regression: same-size mutation must not be served stale
# ----------------------------------------------------------------------
class TestStaleAnswerRegression:
    def test_same_size_delete_insert_serves_fresh_rows(self):
        """The seed's size snapshot cannot see this mutation; epochs can."""
        database = _chain_db((1, 2), (2, 3))
        cache = ScanCache(database)
        atom = Atom(E, (x, y))
        assert set(cache.scan(atom).decoded_rows()) == {
            (Constant(1), Constant(2)),
            (Constant(2), Constant(3)),
        }
        database.discard(_edge(1, 2))
        database.add(_edge(7, 8))  # |D| unchanged
        assert set(cache.scan(atom).decoded_rows()) == {
            (Constant(2), Constant(3)),
            (Constant(7), Constant(8)),
        }
        assert cache.delta_merges == 1
        assert cache.full_rebuilds == 0

    def test_same_size_mutation_end_to_end_through_an_evaluator(self):
        """Whole-query answers over a shared cache follow the mutation."""
        database = _chain_db((1, 2), (2, 3))
        cache = ScanCache(database)
        query = ConjunctiveQuery((x, z), [Atom(E, (x, y)), Atom(E, (y, z))])
        evaluator = YannakakisEvaluator(query)
        assert evaluator.evaluate(database, scans=cache) == {
            (Constant(1), Constant(3))
        }
        database.discard(_edge(1, 2))
        database.add(_edge(3, 4))  # |D| unchanged, answers entirely different
        assert evaluator.evaluate(database, scans=cache) == {
            (Constant(2), Constant(4))
        }

    def test_constant_anchored_signatures_absorb_their_delta(self):
        database = _chain_db((1, 2), (1, 3), (2, 4))
        cache = ScanCache(database)
        anchored = Atom(E, (Constant(1), y))
        assert len(cache.scan(anchored)) == 2
        database.add(_edge(1, 9))
        database.add(_edge(5, 6))  # does not match the anchored signature
        scanned = cache.scan(anchored)
        assert set(scanned.decoded_rows()) == {(Constant(2),), (Constant(3),), (Constant(9),)}

    def test_journal_overflow_falls_back_to_full_rebuild(self, monkeypatch):
        monkeypatch.setattr(Instance, "JOURNAL_LIMIT", 2)
        database = _chain_db((1, 2))
        cache = ScanCache(database)
        atom = Atom(E, (x, y))
        cache.scan(atom)
        for i in range(10, 16):  # blow past the retained journal window
            database.add(_edge(i, i + 1))
        assert len(cache.scan(atom)) == 7
        assert cache.full_rebuilds == 1


# ----------------------------------------------------------------------
# Incremental maintenance: partitions, views, encodings
# ----------------------------------------------------------------------
#: One write: insert (True) or delete (False) the edge (a, b) over a tiny
#: domain, so deletes often hit present facts and inserts collide.
_DELTA_STEPS = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=6),
    ),
    min_size=1,
    max_size=15,
)


def _int_rows(store):
    columns = [list(column) for column in store.columns]
    return list(zip(*columns)) if columns else [()] * store.length


def _snapshot(store):
    """Everything a reader of ``store`` can observe: its rows, storage kind
    and the identity of every cache entry."""
    return (
        store.length,
        store.use_numpy,
        _int_rows(store),
        {key: id(value) for key, value in store.caches.items()},
    )


def _assert_carried_caches(old, store, schema, encoder):
    """Every cache entry of the merged ``store`` is a new object, and every
    carried key index equals one built fresh on the merged rows."""
    old_values = list(old.caches.values())
    for value in store.caches.values():
        assert all(value is not stale for stale in old_values)
        if isinstance(value, IntIndex):
            fresh = EncodedRelation(schema, store, encoder).fresh_copy()
            assert value.buckets == fresh.key_index(value.positions).buckets


class TestDeltaMerge:
    def test_cached_partitions_are_patched_in_place(self):
        database = _chain_db((1, 2), (1, 3), (2, 4))
        cache = ScanCache(database)
        relation = cache.base_relation(E)
        key = relation.schema[:1]
        partition = relation.partition(key)
        database.discard(_edge(1, 2))
        database.add(_edge(2, 5))
        merged = cache.base_relation(E)
        # Same partition object, post-mutation buckets.
        assert merged.partition(key) is partition
        assert set(partition.get((Constant(1),))) == {(Constant(1), Constant(3))}
        assert set(partition.get((Constant(2),))) == {
            (Constant(2), Constant(4)),
            (Constant(2), Constant(5)),
        }

    def test_pre_mutation_view_observes_the_merge(self):
        """The aliasing audit: a pre-merge reader of the base relation must
        not pin pre-mutation buckets."""
        database = _chain_db((1, 2), (2, 3))
        cache = ScanCache(database)
        old = cache.base_relation(E)
        old_partition = old.partition(old.schema[:1])
        database.discard(_edge(1, 2))
        database.add(_edge(4, 5))
        new_view = cache.scan(Atom(E, (z, y)))  # triggers the delta merge
        assert set(old.rows) == set(new_view.decoded_rows())
        assert (Constant(1),) not in old_partition.buckets
        assert set(old_partition.get((Constant(4),))) == {(Constant(4), Constant(5))}
        assert old.stamped_epoch() == new_view.store.epoch == database.mutation_epoch

    def test_stats_and_encoded_store_are_refreshed_after_merge(self):
        database = _chain_db((1, 2), (2, 3))
        cache = ScanCache(database)
        relation = cache.base_relation(E)
        assert relation.column_distinct_counts() == (2, 2)
        stale_store = cache.scan(Atom(E, (x, y)))
        database.add(_edge(3, 1))
        merged = cache.base_relation(E)
        assert merged.column_distinct_counts() == (3, 3)
        fresh_store = cache.scan(Atom(E, (x, y)))
        assert len(fresh_store) == 3
        assert len(stale_store.store.columns[0]) == 2  # old store untouched

    def test_merge_carries_the_encoded_store_forward(self):
        database = _chain_db(*((i, i + 1) for i in range(20)))
        cache = ScanCache(database)
        old = cache.scan(Atom(E, (x, y)))
        old.key_index((0,))
        database.discard(_edge(2, 3))
        database.add(_edge(50, 51))
        new = cache.scan(Atom(E, (x, y)))
        assert new.store is not old.store
        assert ("index", (0,)) in new.store.caches
        _assert_carried_caches(old.store, new.store, new.schema, cache.encoder)
        assert new.store.long_lived
        assert list(new.decoded_rows()) == cache.base_relation(E).rows
        # A point semi-join on the merged store probes its own key index,
        # which sees the merge, not the pre-merge one.
        key = new.schema[:1]
        for source, present in ((2, False), (50, True)):
            point = EncodedRelation.from_rows(
                key, [(cache.encoder.encode(Constant(source)),)], cache.encoder
            )
            assert bool(new.semijoin(point)) is present
        assert new.store.caches[("index", (0,))] is not old.store.caches[("index", (0,))]

    @pytest.mark.parametrize("use_numpy", [False, True], ids=["array", "numpy"])
    @settings(max_examples=40, deadline=None)
    @given(steps=_DELTA_STEPS)
    def test_carried_forward_store_matches_a_fresh_encoding(self, use_numpy, steps):
        """The stale-cache class of bug: after every merge the carried
        store equals a fresh encoding of the rows, its caches are new
        objects and its carried key indexes equal fresh builds (no
        pre-merge key index is served: an anchored scan reads the carried
        one), and the pre-merge store is untouched."""
        if use_numpy:
            pytest.importorskip("numpy")
        with mock.patch.dict(os.environ, {NUMPY_ENV: "1" if use_numpy else "0"}):
            database = _chain_db(*((i, i + 1) for i in range(6)))
            cache = ScanCache(database)
            whole, anchored = Atom(E, (x, y)), Atom(E, (Constant(0), y))
            cache.scan(whole).key_index((0,))
            for added, a, b in steps:
                old = cache.scan(whole).store
                snapshot = _snapshot(old)
                if added:
                    database.add(_edge(a, b))
                else:
                    database.discard(_edge(a, b))
                encoded = cache.scan(whole)
                store = encoded.store
                assert _snapshot(old) == snapshot
                if store is not old:
                    _assert_carried_caches(old, store, encoded.schema, cache.encoder)
                    assert store.use_numpy == use_numpy
                rows = cache.base_relation(E).rows
                fresh = EncodedRelation.build_store(rows, 2, cache.encoder)
                assert _int_rows(store) == fresh.caches["rows"]
                point = cache.scan(anchored)
                assert list(point.decoded_rows()) == [
                    (target,) for source, target in rows if source == Constant(0)
                ]
                assert point.store.epoch == store.epoch == database.mutation_epoch
                encoded.key_index((0,))

    def test_apply_delta_noop_keeps_caches(self):
        relation = Relation((x, y), [(Constant(1), Constant(2))])
        partition = relation.partition((x,))
        relation.apply_delta([], [])
        assert relation.partition((x,)) is partition
        assert relation.rows == [(Constant(1), Constant(2))]


# ----------------------------------------------------------------------
# Carried key indexes under interleaved writes
# ----------------------------------------------------------------------
#: Key columns indexed on the base store (the anchored scan reads (0,)).
_INDEXED = ((0,), (1,), (0, 1))

_EDGE_VALUES = st.integers(min_value=0, max_value=5)

#: One write pattern, applied between two reads:
#: ("add"/"delete", a, b), ("flip", a, b) deletes (a, b) and re-inserts it,
#: ("delete_last",) deletes the binary scan's last row, and ("delete_all",)
#: deletes every edge.
_WRITE = st.one_of(
    st.tuples(st.sampled_from(["add", "delete", "flip"]), _EDGE_VALUES, _EDGE_VALUES),
    st.just(("delete_last",)),
    st.just(("delete_all",)),
)

#: Rounds of writes; each round is one multi-row delta per merge.
_ROUNDS = st.lists(st.lists(_WRITE, min_size=1, max_size=6), min_size=1, max_size=8)


def _apply_write(database, base, write):
    kind = write[0]
    if kind == "add":
        database.add(_edge(write[1], write[2]))
    elif kind == "delete":
        database.discard(_edge(write[1], write[2]))
    elif kind == "flip":
        if database.discard(_edge(write[1], write[2])):
            database.add(_edge(write[1], write[2]))
    elif kind == "delete_last":
        if base.rows:
            database.discard(Atom(E, base.rows[-1]))
    else:
        for row in list(base.rows):
            database.discard(Atom(E, row))


def _probe_keys(store, positions):
    """Keys present in ``store`` plus one that is not, for the probe check."""
    keys = {
        row[positions[0]] if len(positions) == 1 else tuple(row[p] for p in positions)
        for row in _int_rows(store)[::2]
    }
    keys.add(-1 if len(positions) == 1 else (-1,) * len(positions))
    return sorted(keys)


class TestCarriedIndexes:
    @pytest.mark.parametrize("use_numpy", [False, True], ids=["array", "numpy"])
    @settings(max_examples=40, deadline=None)
    @given(rounds=_ROUNDS)
    def test_interleaved_writes_keep_every_index_equal_to_a_fresh_build(
        self, use_numpy, rounds
    ):
        if use_numpy:
            pytest.importorskip("numpy")
        with mock.patch.dict(os.environ, {NUMPY_ENV: "1" if use_numpy else "0"}):
            database = _chain_db(*((i, i + 1) for i in range(5)), (0, 3), (2, 3))
            cache = ScanCache(database)
            whole, anchored = Atom(E, (x, y)), Atom(E, (Constant(0), y))
            for positions in _INDEXED:
                cache.scan(whole).key_index(positions)
            builds = IntIndex.long_lived_builds  # warm-up done
            for writes in rounds:
                base = cache.base_relation(E)
                for write in writes:
                    _apply_write(database, base, write)
                encoded = cache.scan(whole)
                store = encoded.store
                rows = cache.base_relation(E).rows
                fresh = EncodedRelation.build_store(rows, 2, cache.encoder)
                assert _int_rows(store) == fresh.caches["rows"]
                assert store.use_numpy == use_numpy
                assert list(cache.scan(anchored).decoded_rows()) == [
                    (target,) for source, target in rows if source == Constant(0)
                ]
                for positions in _INDEXED:
                    carried = store.caches[("index", positions)]
                    rebuilt = encoded.fresh_copy().key_index(positions)
                    assert carried.buckets == rebuilt.buckets
                    schema = tuple(encoded.schema[p] for p in positions)
                    point = EncodedRelation.from_rows(
                        schema,
                        [k if isinstance(k, tuple) else (k,) for k in _probe_keys(store, positions)],
                        cache.encoder,
                    ).key_index(tuple(range(len(positions))))
                    probed = encoded.semijoin_probe(positions, point)
                    scanned = encoded.semijoin_index(positions, point)
                    assert probed.rows == scanned.rows
                assert IntIndex.long_lived_builds == builds

    def test_delete_moves_the_last_row_into_the_hole(self):
        database = _chain_db((1, 2), (2, 3), (3, 4), (4, 5))
        cache = ScanCache(database)
        cache.scan(Atom(E, (x, y))).key_index((0,))
        rows = list(cache.base_relation(E).rows)
        database.discard(Atom(E, rows[1]))
        merged = cache.base_relation(E)
        assert merged.rows == [rows[0], rows[3], rows[2]]
        assert list(cache.scan(Atom(E, (x, y))).decoded_rows()) == merged.rows

    def test_swap_moves_pair_holes_with_surviving_tail_rows(self):
        assert swap_moves([1, 4], 4) == [(1, 5)]
        assert swap_moves([5, 4], 4) == []
        assert swap_moves([3, 0, 1], 3) == [(0, 4), (1, 5)]


# ----------------------------------------------------------------------
# Journal replay: a written fact reaches only the scans it can match
# ----------------------------------------------------------------------
class TestIndexedReplay:
    def test_a_write_queues_only_its_own_predicate(self):
        database = _chain_db((1, 2), (2, 3), (3, 3))
        database.add(Atom(F, (Constant(1),)))
        cache = ScanCache(database)
        atoms = [
            Atom(E, (x, y)),
            Atom(E, (x, x)),
            Atom(E, (Constant(1), y)),
            Atom(E, (x, Constant(3))),
            Atom(F, (x,)),
        ]
        for atom in atoms:
            cache.scan(atom)
        database.add(_edge(2, 2))
        cache.sync()
        assert list(cache._pending) == [E]
        assert len(cache._pending[E]) == 1
        # E keeps its pre-write stamp until it merges; F is re-stamped at
        # the synced epoch.
        assert cache.base_relation(F).stamped_epoch() == cache.current_epoch()
        assert cache._bases[E].stamped_epoch() < cache.current_epoch()
        database.add(_edge(1, 4))
        cache.sync()
        assert len(cache._pending[E]) == 2
        assert cache.verify_epochs() == []
        for atom in atoms:
            assert cache.scan(atom).to_relation() == scan_atom(atom, database), atom
        assert cache._pending == {}
        assert cache.verify_epochs() == []

    def test_sync_work_per_write_does_not_grow_with_warm_anchors(self, monkeypatch):
        """10 and 5,000 warm anchors cost the same stamps per write."""
        calls = []
        stamp = Relation.stamp_epoch

        def counted(relation, epoch):
            calls.append(epoch)
            stamp(relation, epoch)

        def stamps_per_write(anchors):
            database = _chain_db(*((i, i + 1) for i in range(anchors)))
            database.add(Atom(F, (Constant(0),)))
            service = QueryService(database)
            for anchor in range(anchors):
                service.submit(ConjunctiveQuery((z,), [Atom(E, (Constant(anchor), z))]))
            service.submit(ConjunctiveQuery((x,), [Atom(F, (x,))]))
            assert service.counters()["cached_scans"] == 2
            calls.clear()
            monkeypatch.setattr(Relation, "stamp_epoch", counted)
            service.insert(_edge(-1, -2))
            service.submit(ConjunctiveQuery((z,), [Atom(E, (Constant(0), z))]))
            monkeypatch.setattr(Relation, "stamp_epoch", stamp)
            return len(calls)

        assert stamps_per_write(10) == stamps_per_write(5000) == 2

    @settings(max_examples=30, deadline=None)
    @given(
        writes=st.lists(st.tuples(st.booleans(), _EDGE_VALUES, _EDGE_VALUES), max_size=25),
        anchors=st.lists(_EDGE_VALUES, min_size=1, max_size=4),
    )
    def test_random_writes_keep_the_service_consistent(self, writes, anchors):
        database = _chain_db(*((i, i + 1) for i in range(5)))
        service = QueryService(database)
        queries = [
            ConjunctiveQuery((z,), [Atom(E, (Constant(a), y)), Atom(E, (y, z))])
            for a in anchors
        ] + [ConjunctiveQuery((x, z), [Atom(E, (x, y)), Atom(E, (y, z))])]
        for query in queries:
            service.submit(query)
        # One cached base relation: every anchor is a bucket of E's store.
        assert service.counters()["cached_scans"] == 1
        for step, (added, a, b) in enumerate(writes):
            if added:
                service.insert(_edge(a, b))
            else:
                service.delete(_edge(a, b))
            if step % 3 == 0:
                query = queries[step % len(queries)]
                assert service.submit(query) == YannakakisEvaluator(query).evaluate(database)
        assert service.scans.verify_epochs() == []
        assert "SVC001" not in [d.code for d in service.verify()]
        for query in queries:
            expected = YannakakisEvaluator(query).evaluate(database, scans=ScanCache(database))
            assert service.submit(query) == expected
        assert service.scans.verify_epochs() == []


# ----------------------------------------------------------------------
# Cache binding: copies accepted, foreign databases rejected distinctly
# ----------------------------------------------------------------------
class TestCacheBinding:
    def test_fact_identical_copy_is_accepted(self):
        database = _chain_db((1, 2), (2, 3))
        cache = ScanCache(database)
        copy = database.copy()
        scanned = cache.scan(Atom(E, (x, y)), database=copy)
        assert len(scanned) == 2

    def test_mutated_copy_is_rejected(self):
        database = _chain_db((1, 2))
        cache = ScanCache(database)
        copy = database.copy()
        copy.add(_edge(9, 9))
        with pytest.raises(CacheBindingError):
            cache.scan(Atom(E, (x, y)), database=copy)

    def test_mutated_original_rejects_an_old_copy(self):
        database = _chain_db((1, 2))
        cache = ScanCache(database)
        copy = database.copy()
        database.add(_edge(9, 9))
        with pytest.raises(CacheBindingError):
            cache.scan(Atom(E, (x, y)), database=copy)

    def test_independent_equal_database_is_rejected(self):
        cache = ScanCache(_chain_db((1, 2)))
        other = _chain_db((1, 2))  # equal facts, unrelated instance
        with pytest.raises(CacheBindingError):
            cache.scan(Atom(E, (x, y)), database=other)

    def test_binding_error_is_a_value_error(self):
        # Pre-fix callers caught ValueError; the distinct type must not
        # break them.
        assert issubclass(CacheBindingError, ValueError)


# ----------------------------------------------------------------------
# Epoch-aware statistics, encoder audit, verifier integration
# ----------------------------------------------------------------------
class TestEpochSeams:
    def test_statistics_refresh_after_mutation(self):
        database = _chain_db((1, 2))
        cache = ScanCache(database)
        statistics = Statistics(database, cache)
        assert len(statistics.base_relation(E)) == 1
        database.add(_edge(2, 3))
        assert len(statistics.base_relation(E)) == 2

    def test_dead_code_audit_counts_stranded_terms(self):
        database = _chain_db((1, 2), (2, 3))
        cache = ScanCache(database)
        cache.scan(Atom(E, (x, y)))
        assert cache.dead_codes() == 0
        database.discard(_edge(1, 2))  # Constant(1) leaves the active domain
        cache.scan(Atom(E, (x, y)))
        assert cache.dead_codes() == 1
        assert cache.dead_code_sweeps == 2

    def test_verify_epochs_is_clean_and_catches_corruption(self):
        database = _chain_db((1, 2))
        cache = ScanCache(database)
        cache.scan(Atom(E, (x, y)))
        relation = cache.base_relation(E)
        assert cache.verify_epochs() == []
        relation.stamp_epoch(relation.stamped_epoch() + 5)  # corrupt
        issues = cache.verify_epochs()
        assert len(issues) == 1
        predicate, stamp, expected = issues[0]
        assert predicate == E and stamp == expected + 5

    def test_plan016_flags_a_stale_cached_scan(self):
        database = _chain_db((1, 2))
        cache = ScanCache(database)
        node = Scan(Atom(E, (x, y)))
        context = ExecutionContext(database, cache)
        node.materialize(context)

        def check():
            return verify_plan(
                node, expected_epoch=database.mutation_epoch, run=context.run
            )

        assert check() == []
        database.add(_edge(2, 3))
        diagnostics = check()
        assert [d.code for d in diagnostics] == ["PLAN016"]
        assert diagnostics[0].severity is Severity.ERROR
        # The plan holds no rows: a fresh run of it is current again.
        context = ExecutionContext(database, cache)
        node.materialize(context)
        assert check() == []
