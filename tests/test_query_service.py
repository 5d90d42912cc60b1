"""The long-lived :class:`repro.service.QueryService`.

Covers the three service contracts on top of the epoch machinery:

* the plan cache keyed by core-isomorphism class — canonicalisation via
  :func:`repro.service.canonical_form` over the query core, so renamed
  variants (and core-reducible supersets) of one query share a single
  cached route;
* the read/write surface — ``submit``/``stream`` (with ``limit=``
  backpressure and the :class:`ConcurrentMutationError` stream guard),
  ``insert``/``delete``, drift-triggered re-planning, ``verify()`` with
  the SVC001/SVC002 diagnostics;
* the ``REPRO_SERVICE`` seam and the ``repro serve`` CLI.
"""

import io

import pytest

from repro import cli
from repro.datamodel import Atom, Constant, Database, Predicate, Variable
from repro.evaluation import (
    YannakakisEvaluator,
    evaluate_batch,
    evaluate_generic,
    evaluate_iter,
)
from repro.queries.cq import ConjunctiveQuery
from repro.service import (
    RAW_MEMO_LIMIT,
    ConcurrentMutationError,
    QueryService,
    canonical_form,
    shared_service,
)

E = Predicate("E", 2)
x, y, z, u, v, w = (Variable(n) for n in "xyzuvw")


def _edge(a, b):
    return Atom(E, (Constant(a), Constant(b)))


def _db(*pairs):
    database = Database()
    for a, b in pairs:
        database.add(_edge(a, b))
    return database


def _path_query(a, b, c, name="q"):
    return ConjunctiveQuery((a, c), [Atom(E, (a, b)), Atom(E, (b, c))], name=name)


# ----------------------------------------------------------------------
# Canonicalisation
# ----------------------------------------------------------------------
class TestCanonicalForm:
    def test_renamed_variants_share_one_canonical_form(self):
        assert canonical_form(_path_query(x, y, z)) == canonical_form(
            _path_query(u, v, w)
        )

    def test_head_positions_are_preserved(self):
        canonical = canonical_form(_path_query(x, y, z))
        assert canonical.head == (Variable("_h0"), Variable("_h1"))
        # _h0 is the source of the path, _h1 the target: positional
        # answer-tuple semantics survive canonicalisation.
        first_atom_vars = {
            variable
            for atom in canonical.body
            for variable in atom.terms
            if variable == Variable("_h0")
        }
        assert first_atom_vars == {Variable("_h0")}

    def test_different_shapes_stay_distinct(self):
        path = _path_query(x, y, z)
        loop = ConjunctiveQuery((x,), [Atom(E, (x, x))])
        assert canonical_form(path) != canonical_form(loop)

    def test_existing_underscore_names_do_not_collide(self):
        clash = ConjunctiveQuery(
            (Variable("_e0"),),
            [Atom(E, (Variable("_e0"), Variable("_h0")))],
        )
        canonical = canonical_form(clash)
        assert len(canonical.variables()) == 2

    def test_beyond_permutation_limit_is_deterministic(self):
        chain = [Atom(E, (Variable(f"c{i}"), Variable(f"c{i+1}"))) for i in range(9)]
        query = ConjunctiveQuery((Variable("c0"),), chain)
        assert canonical_form(query) == canonical_form(query)


# ----------------------------------------------------------------------
# The plan cache
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_isomorphic_variants_hit_one_cached_plan(self):
        """The acceptance bar: >= 90% of 64 renamed variants are hits."""
        service = QueryService(_db((1, 2), (2, 3), (3, 4)))
        names = [f"n{i}" for i in range(20)]
        expected = service.submit(_path_query(x, y, z))
        for i in range(63):
            a, b, c = (Variable(f"{names[i % 20]}{j}_{i}") for j in range(3))
            assert service.submit(_path_query(a, b, c, name=f"v{i}")) == expected
        assert service.plan_misses == 1
        assert service.plan_hits == 63
        assert service.plan_hits / 64 >= 0.9

    def test_core_reducible_query_shares_the_minimal_plan(self):
        service = QueryService(_db((1, 2), (2, 3)))
        minimal = _path_query(x, y, z)
        redundant = ConjunctiveQuery(
            (x, z),
            # u duplicates y's role: the core folds it away.
            [Atom(E, (x, y)), Atom(E, (y, z)), Atom(E, (x, u))],
        )
        first = service.submit(minimal)
        assert service.submit(redundant) == first
        assert service.plan_misses == 1 and service.plan_hits == 1

    def test_repeat_submission_skips_canonicalisation(self):
        service = QueryService(_db((1, 2)))
        query = _path_query(x, y, z)
        service.submit(query)
        service.submit(query)  # memoised raw-request key
        assert (query, (), "auto") in service._keys

    def test_raw_request_memo_evicts_only_the_oldest_key(self):
        service = QueryService(_db((1, 2), (2, 3)))
        requests = [
            _path_query(*(Variable(f"{name}{i}") for name in "abc"))
            for i in range(RAW_MEMO_LIMIT + 1)
        ]
        for query in requests:
            service.submit(query)
        assert list(service._keys) == [
            (query, (), "auto") for query in requests[1:]
        ]
        assert service.plan_misses == 1

    def test_cached_evaluator_compiles_each_plan_once(self, monkeypatch):
        calls = []
        for name in ("_compile_answer_plan", "_compile_stream_plan"):
            original = getattr(YannakakisEvaluator, name)

            def counted(self, *args, _original=original, _name=name):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(YannakakisEvaluator, name, counted)
        database = _db((1, 2), (2, 3), (3, 4))
        service = QueryService(database, replan_drift=1.0)  # no drift replans
        writes = [
            lambda: service.insert(_edge(4, 5)),
            lambda: service.delete(_edge(2, 3)),
            lambda: service.insert(_edge(2, 6)),
            lambda: None,
        ]
        for i, write in enumerate(writes):
            query = _path_query(*(Variable(f"{name}{i}") for name in "xyz"))
            truth = evaluate_generic(query, database)
            assert service.submit(query) == truth
            assert service.submit(query) == truth
            assert set(service.stream(query)) == truth
            write()
        assert service.plan_misses == 1 and service.replans == 0
        assert sorted(calls) == ["_compile_answer_plan", "_compile_stream_plan"]

    def test_drift_triggers_a_replan(self):
        database = _db((1, 2), (2, 3))
        service = QueryService(database, replan_drift=0.5)
        query = _path_query(x, y, z)
        service.submit(query)
        for i in range(10, 16):  # grow |D| past 50%
            service.insert(_edge(i, i + 1))
        service.submit(query)
        assert service.replans == 1
        assert service.plan_misses == 2


# ----------------------------------------------------------------------
# Read/write surface
# ----------------------------------------------------------------------
class TestReadWrite:
    def test_submit_reflects_every_write(self):
        service = QueryService(_db((1, 2), (2, 3)))
        query = _path_query(x, y, z)
        assert service.submit(query) == {(Constant(1), Constant(3))}
        assert service.delete(_edge(1, 2))
        assert service.insert(_edge(3, 4))
        assert service.submit(query) == {(Constant(2), Constant(4))}
        assert service.writes == 2
        assert not service.insert(_edge(3, 4))  # ineffective: not counted
        assert service.writes == 2

    def test_stream_limit_backpressure(self):
        service = QueryService(_db((1, 2), (2, 3), (3, 4), (4, 5)))
        answers = list(service.stream(_path_query(x, y, z), limit=2))
        assert len(answers) == 2

    def test_stream_raises_on_concurrent_mutation(self):
        service = QueryService(_db((1, 2), (2, 3), (3, 4)))
        stream = service.stream(_path_query(x, y, z))
        assert next(stream) is not None
        service.insert(_edge(9, 10))
        with pytest.raises(ConcurrentMutationError, match="epoch"):
            next(stream)

    def test_stream_completes_without_mutation(self):
        service = QueryService(_db((1, 2), (2, 3), (3, 4)))
        assert set(service.stream(_path_query(x, y, z))) == {
            (Constant(1), Constant(3)),
            (Constant(2), Constant(4)),
        }

    def test_verify_clean_then_svc002_on_drift(self):
        service = QueryService(_db((1, 2), (2, 3)), replan_drift=0.5)
        service.submit(_path_query(x, y, z))
        assert service.verify() == []
        for i in range(10, 16):
            service.insert(_edge(i, i + 1))
        codes = [d.code for d in service.verify()]
        assert codes == ["SVC002"]

    def test_verify_svc001_on_a_corrupted_stamp(self):
        service = QueryService(_db((1, 2)))
        service.submit(_path_query(x, y, z))
        relation = next(iter(service.scans._scans.values()))
        relation.stamp_epoch(relation.stamped_epoch() + 7)
        codes = [d.code for d in service.verify()]
        assert "SVC001" in codes

    def test_write_barrier_is_a_real_reader_writer_lock(self):
        """A write waits for in-flight reads AND blocks new reads.

        The "readers never observe a half-applied write" guarantee needs
        real exclusion, not a check-then-act drain: a read entering after
        the drain returned must not scan concurrently with the mutation.
        """
        import threading
        import time

        service = QueryService(_db((1, 2), (2, 3)))
        reader_entered = threading.Event()
        release_reader = threading.Event()
        events = []

        def slow_reader():
            with service._tracked():
                reader_entered.set()
                assert release_reader.wait(5)
                events.append("read-finished")

        def late_reader():
            with service._tracked():
                # ``writes`` is bumped inside the barrier, so a reader that
                # slipped past a merely-pending write would record 0 here.
                events.append(("late-read", service.writes))

        def wait_until(condition):
            deadline = time.monotonic() + 5
            while not condition() and time.monotonic() < deadline:
                time.sleep(0.002)
            assert condition()

        threads = [threading.Thread(target=slow_reader)]
        threads[0].start()
        assert reader_entered.wait(5)
        threads.append(threading.Thread(target=lambda: service.insert(_edge(3, 4))))
        threads[1].start()
        # The write queues behind the in-flight read without mutating...
        wait_until(lambda: service._writers == 1)
        assert service.writes == 0
        # ...and a read arriving behind the pending write queues too.
        threads.append(threading.Thread(target=late_reader))
        threads[2].start()
        time.sleep(0.05)
        assert events == []
        release_reader.set()
        for thread in threads:
            thread.join(5)
        assert events == ["read-finished", ("late-read", 1)]
        assert service.writes == 1


# ----------------------------------------------------------------------
# The shared registry and the REPRO_SERVICE seam
# ----------------------------------------------------------------------
class TestServiceSeam:
    def test_shared_service_is_per_database_identity(self):
        first, second = _db((1, 2)), _db((1, 2))
        assert shared_service(first) is shared_service(first)
        assert shared_service(first) is not shared_service(second)

    def test_evaluate_iter_routes_through_the_service(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE", "1")
        database = _db((1, 2), (2, 3))
        service = shared_service(database)
        before = service.plan_hits + service.plan_misses
        assert set(evaluate_iter(_path_query(x, y, z), database)) == {
            (Constant(1), Constant(3))
        }
        assert service.plan_hits + service.plan_misses == before + 1
        # An open service stream fails loudly on a concurrent write.
        stream = evaluate_iter(_path_query(x, y, z), database)
        next(stream)
        database.add(_edge(7, 8))
        with pytest.raises(ConcurrentMutationError):
            next(stream)

    def test_evaluate_batch_uses_the_service_scan_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE", "1")
        database = _db((1, 2), (2, 3))
        service = shared_service(database)
        served_before = service.scans.served
        evaluate_batch([_path_query(x, y, z)], database)
        assert service.scans.served > served_before

    def test_explicit_scans_wins_over_the_seam(self, monkeypatch):
        from repro.evaluation import ScanCache

        monkeypatch.setenv("REPRO_SERVICE", "1")
        database = _db((1, 2), (2, 3))
        cache = ScanCache(database)
        assert set(evaluate_iter(_path_query(x, y, z), database, scans=cache)) == {
            (Constant(1), Constant(3))
        }
        assert cache.served > 0


# ----------------------------------------------------------------------
# The serve CLI
# ----------------------------------------------------------------------
def test_cli_serve_session(tmp_path):
    data = tmp_path / "facts.txt"
    data.write_text("E(1, 2)\nE(2, 3)\n", encoding="utf-8")
    session = tmp_path / "session.txt"
    session.write_text(
        "% read, write, read\n"
        "? q(a, c) :- E(a, b), E(b, c)\n"
        "- E(1, 2)\n"
        "+ E(3, 4)\n"
        "? q(a, c) :- E(a, b), E(b, c)\n",
        encoding="utf-8",
    )
    out = io.StringIO()
    status = cli.main(
        [
            "serve",
            "--data", str(data),
            "--session", str(session),
            "--verify",
        ],
        out=out,
    )
    text = out.getvalue()
    assert status == 0
    assert "(1, 3)" in text and "(2, 4)" in text
    assert "- E(1, 2): removed" in text
    assert "verification: clean" in text
    assert "delta_merges: 1" in text
    assert "plan_hits: 1" in text


def test_cli_serve_rejects_malformed_lines(tmp_path):
    data = tmp_path / "facts.txt"
    data.write_text("E(1, 2)\n", encoding="utf-8")
    session = tmp_path / "session.txt"
    session.write_text("! not an operation\n", encoding="utf-8")
    with pytest.raises(SystemExit, match="unknown session line"):
        cli.main(
            ["serve", "--data", str(data), "--session", str(session)],
            out=io.StringIO(),
        )
