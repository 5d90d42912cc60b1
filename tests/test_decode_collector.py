"""Large decodes build their answer sets with the cycle collector paused.

A decoded answer row is a tuple of interned terms.  Such tuples cannot form
a cycle, but they are GC-tracked, so building a large answer set would run
a young collection every ``gc.get_threshold()[0]`` rows.  The column-wise
decode adapters of :mod:`repro.evaluation.encoding` (``answer_tuples`` and
``to_relation``) pause the collector while they build, and only for a
decode of at least that many rows.  These tests count the collections that
start inside a call through ``gc.callbacks``, and check that the collector
ends in the state the caller left it in: after an exception, and when two
threads decode at once.
"""

import gc
import sys
import threading
from array import array
from contextlib import contextmanager

import pytest

from repro.datamodel import Constant, Variable
from repro.evaluation import encoding
from repro.evaluation.encoding import EncodedRelation, EncodedStore, TermEncoder

HEAD = (Variable("x"), Variable("y"))

STORAGES = ["array", pytest.param("numpy", marks=pytest.mark.skipif(
    encoding._numpy_module() is None, reason="numpy is not installed"
))]


def _relation(storage, rows, terms=None):
    """``rows`` encoded answer pairs over an encoder of ``terms`` terms (half
    the rows by default); codes at or past ``terms`` do not decode."""
    encoder = TermEncoder()
    encoder.encode_all(Constant(f"dc{index}") for index in range(terms or rows // 2))
    codes = [[(index * 7 + shift) % (rows // 2) for index in range(rows)] for shift in (0, 3)]
    if storage == "numpy":
        numpy = encoding._numpy_module()
        columns = [numpy.asarray(column, dtype=numpy.int64) for column in codes]
    else:
        columns = [array("q", column) for column in codes]
    store = EncodedStore(columns, rows, storage == "numpy")
    return EncodedRelation(HEAD, store, encoder)


def _large():
    """A row count that would run several young collections unpaused."""
    return 4 * gc.get_threshold()[0]


@contextmanager
def _collections():
    """Count the collections that start inside the block."""
    started = []

    def callback(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(callback)
    try:
        yield started
    finally:
        gc.callbacks.remove(callback)


@contextmanager
def _collector_off():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _expected(relation):
    terms = relation.encoder.terms
    return {
        tuple(terms[column[index]] for column in relation.store.columns)
        for index in range(len(relation))
    }


@pytest.mark.parametrize("storage", STORAGES)
def test_a_large_decode_runs_no_collection(storage):
    relation = _relation(storage, _large())
    assert gc.isenabled()
    gc.collect()
    with _collections() as started:
        answers = relation.answer_tuples(HEAD)
    assert started == []
    assert gc.isenabled()
    gc.collect()
    with _collections() as started:
        rows = relation.to_relation().rows
    assert started == []
    assert gc.isenabled()
    assert answers == _expected(relation)
    assert set(rows) == answers and len(rows) == len(relation)


@pytest.mark.parametrize("storage", STORAGES)
def test_a_small_decode_runs_unpaused(storage, monkeypatch):
    relation = _relation(storage, gc.get_threshold()[0] - 2)
    seen = []
    decode = EncodedRelation._decoded_columns

    def observed(self, positions):
        seen.append(gc.isenabled())
        return decode(self, positions)

    monkeypatch.setattr(EncodedRelation, "_decoded_columns", observed)
    assert relation.answer_tuples(HEAD) == _expected(relation)
    assert seen == [True]


@pytest.mark.parametrize("storage", STORAGES)
def test_a_collector_switched_off_stays_off(storage):
    relation = _relation(storage, _large())
    with _collector_off():
        assert relation.answer_tuples(HEAD) == _expected(relation)
        relation.to_relation()
        assert not gc.isenabled()
    assert gc.isenabled()


@pytest.mark.parametrize("storage", STORAGES)
def test_a_decode_that_raises_reenables_the_collector(storage):
    rows = _large()
    # The encoder holds half the codes the columns use: decoding fails on
    # the first code past its end, inside the pause.
    relation = _relation(storage, rows, terms=rows // 4)
    with pytest.raises(IndexError):
        relation.answer_tuples(HEAD)
    assert gc.isenabled()
    with pytest.raises(IndexError):
        relation.to_relation()
    assert gc.isenabled()


@pytest.mark.parametrize("storage", STORAGES)
def test_concurrent_decodes_share_one_pause(storage, monkeypatch):
    """Two threads inside the pause at once: the first one out leaves the
    collector off for the other, the last one out turns it back on."""
    relation = _relation(storage, _large())
    both_inside = threading.Barrier(2, timeout=30)
    release_late = threading.Event()
    seen = {}
    decode = EncodedRelation._decoded_columns

    def meeting(self, positions):
        both_inside.wait()
        name = threading.current_thread().name
        seen[name] = gc.isenabled()
        if name == "late":
            assert release_late.wait(timeout=30)
        return decode(self, positions)

    monkeypatch.setattr(EncodedRelation, "_decoded_columns", meeting)
    answers = {}

    def run():
        answers[threading.current_thread().name] = relation.answer_tuples(HEAD)

    threads = [threading.Thread(target=run, name=name) for name in ("early", "late")]
    for thread in threads:
        thread.start()
    threads[0].join(timeout=30)
    assert not threads[0].is_alive()
    still_paused = not gc.isenabled()
    release_late.set()
    threads[1].join(timeout=30)
    assert still_paused
    assert seen == {"early": False, "late": False}
    assert gc.isenabled()
    assert answers["early"] == answers["late"] == _expected(relation)


@pytest.mark.parametrize("storage", STORAGES)
def test_threads_decoding_together_end_with_the_collector_on(storage):
    """More threads than cores, switching every microsecond: a lost update
    of the pause count would leave the collector off at the end."""
    relation = _relation(storage, _large())
    single = relation.answer_tuples(HEAD)
    workers, rounds = 4, 5
    start = threading.Barrier(workers, timeout=30)
    results = []

    def run():
        for _ in range(rounds):
            start.wait()
            results.append(relation.answer_tuples(HEAD))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert gc.isenabled()
    assert len(results) == workers * rounds
    assert all(answers == single for answers in results)
