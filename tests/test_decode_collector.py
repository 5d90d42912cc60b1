"""Large decodes build their answer sets with the cycle collector paused.

A decoded answer row is a tuple of interned terms.  Such tuples cannot form
a cycle, but they are GC-tracked, so building a large answer set would run
a young collection every ``gc.get_threshold()[0]`` rows.  The column-wise
decode adapters of :mod:`repro.evaluation.encoding` (``answer_tuples`` and
``to_relation``) pause the collector while they build, and only for a
decode of at least that many rows.  When the pause ends, the gen-0
threshold is raised by the tracked objects the pause added (the credit),
so the caller can hold the set without a young collection walking it; the
caller's thresholds come back at the next collection.  These tests count
the collections that start inside a call or after it through
``gc.callbacks``, and check that the collector ends in the state the
caller left it in: after an exception, when two threads decode at once,
after the application changed its thresholds, and with no leaked cycles
or frozen objects.
"""

import gc
import sys
import threading
import weakref
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


#: Pairs CPython keeps on its tuple free list and reuses without counting
#: them as young allocations.
TUPLE_FREE_LIST = 2000


def _encoded(storage, codes, terms):
    """Two columns of ``codes`` over an encoder of ``terms`` terms."""
    encoder = TermEncoder()
    encoder.encode_all(Constant(f"dc{index}") for index in range(terms))
    if storage == "numpy":
        numpy = encoding._numpy_module()
        columns = [numpy.asarray(column, dtype=numpy.int64) for column in codes]
    else:
        columns = [array("q", column) for column in codes]
    store = EncodedStore(columns, len(codes[0]), storage == "numpy")
    return EncodedRelation(HEAD, store, encoder)


def _relation(storage, rows, terms=None):
    """``rows`` encoded answer pairs over an encoder of ``terms`` terms (half
    the rows by default); codes at or past ``terms`` do not decode."""
    codes = [[(index * 7 + shift) % (rows // 2) for index in range(rows)] for shift in (0, 3)]
    return _encoded(storage, codes, terms or rows // 2)


#: The collector thresholds the test process runs with, read on import,
#: before any decode.
THRESHOLDS = gc.get_threshold()


def _credited(storage):
    """Distinct answer pairs that outnumber the gen-0 threshold by more
    than the tuple free list, built once a collection has restored the
    process's thresholds."""
    gc.collect()
    assert gc.get_threshold() == THRESHOLDS
    rows = 4 * THRESHOLDS[0] + 2 * TUPLE_FREE_LIST
    return _encoded(storage, [range(rows), [(index * 7 + 3) % rows for index in range(rows)]], rows)


def _allocate(count, started=None):
    """Keep ``count`` fresh tracked objects alive, one at a time; stop
    early at the first collection counted in ``started``."""
    kept = []
    for _ in range(count):
        kept.append([])
        if started:
            break
    return kept


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
    # An earlier test's credit would read as a raised threshold: let it end.
    gc.collect()
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


#: Tracked objects the test and the call allocate around the decode (the
#: call's closure and positions, the counting callback, the loop): the
#: credit covers what the pause adds, the caller keeps the headroom it had.
OWN_ALLOCATIONS = 32


@pytest.mark.parametrize("storage", STORAGES)
def test_a_live_answer_set_starts_no_collection(storage):
    """The young collection that used to walk the live set right after the
    pause (in ``QueryService._end_read`` on ``serve_scan``) no longer runs
    within the caller's next threshold of allocations."""
    relation = _credited(storage)
    base = gc.get_threshold()
    with _collections() as started:
        for decode in (lambda: relation.answer_tuples(HEAD), lambda: relation.to_relation().rows):
            gc.collect()
            del started[:]
            answers = decode()
            kept = _allocate(base[0] - OWN_ALLOCATIONS)
            assert started == []
            assert len(answers) == len(relation)
            assert len(kept) == base[0] - OWN_ALLOCATIONS
    gc.collect()
    assert gc.get_threshold() == base


@pytest.mark.parametrize("storage", STORAGES)
def test_a_dropped_answer_set_is_collected_on_time(storage):
    """Once the set is dropped, a collection starts within the base plus
    credit allocations, and both it and ``gc.collect()`` restore the
    caller's thresholds."""
    relation = _credited(storage)
    base = gc.get_threshold()
    answers = relation.answer_tuples(HEAD)
    raised = gc.get_threshold()
    credit = raised[0] - base[0]
    assert raised[1:] == base[1:] and credit >= len(answers) - TUPLE_FREE_LIST
    del answers
    with _collections() as started:
        kept = _allocate(base[0] + credit, started)
    assert started and len(kept) <= base[0] + credit
    assert gc.get_threshold() == base
    relation.to_relation()
    assert gc.get_threshold() != base
    gc.collect()
    assert gc.get_threshold() == base


@pytest.mark.parametrize("storage", STORAGES)
def test_a_credit_covers_only_the_latest_answer_set(storage):
    """A large decode made while an earlier credited set is alive ends the
    earlier credit and takes its own, for the new set alone.  The young
    count still holds both sets, so one young collection starts within the
    call's own few allocations after the pause: the caller keeps its
    headroom only when no earlier credited set is alive."""
    relation = _credited(storage)
    base = gc.get_threshold()
    first = relation.answer_tuples(HEAD)
    assert gc.get_threshold() != base
    with _collections() as started:
        second = relation.answer_tuples(HEAD)
        _allocate(OWN_ALLOCATIONS, started)
    assert started == [0]
    assert gc.get_threshold() == base
    assert len(first) == len(second) == len(relation)


@pytest.mark.parametrize("storage", STORAGES)
def test_credits_leak_no_cycles_and_freeze_nothing(storage):
    """300 large decodes, each followed by a garbage cycle: the cycles
    still alive at the end are at most what one deferred young collection
    (base plus one credit) lets through."""

    class Sentinel:
        pass

    relation = _credited(storage)
    base = gc.get_threshold()[0]
    frozen = gc.get_freeze_count()
    cycle_size = 100
    sentinels = []
    credit = 0
    for _ in range(300):
        answers = relation.answer_tuples(HEAD)
        credit = max(credit, gc.get_threshold()[0] - base)
        del answers
        sentinel = Sentinel()
        cycle = [[] for _ in range(cycle_size - 2)] + [sentinel]
        cycle.append(cycle)
        sentinels.append(weakref.ref(sentinel))
        del sentinel, cycle
    alive = sum(ref() is not None for ref in sentinels)
    assert 0 < credit and alive * cycle_size <= base + credit < 300 * cycle_size
    assert gc.garbage == []
    assert gc.get_freeze_count() == frozen
    gc.collect()
    assert gc.get_threshold()[0] == base


@pytest.mark.parametrize("storage", STORAGES)
def test_an_application_freeze_survives_a_decode(storage):
    relation = _credited(storage)
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        answers = relation.answer_tuples(HEAD)
        relation.to_relation()
        assert gc.get_freeze_count() == frozen
        gc.collect()
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()
    assert len(answers) == len(relation)


@pytest.mark.parametrize("storage", STORAGES)
def test_an_application_threshold_set_under_a_credit_is_kept(storage):
    relation = _credited(storage)
    base = gc.get_threshold()
    own = (base[0] + 300, base[1] + 1, base[2] + 2)
    try:
        answers = relation.answer_tuples(HEAD)
        assert gc.get_threshold() != base
        gc.set_threshold(*own)
        gc.collect()
        assert gc.get_threshold() == own
        answers = relation.answer_tuples(HEAD)
        gc.set_threshold(*own)
        relation.answer_tuples(HEAD)
        assert gc.get_threshold()[1:] == own[1:]
        gc.collect()
        assert gc.get_threshold() == own
    finally:
        gc.set_threshold(*base)
    assert len(answers) == len(relation)


@pytest.mark.parametrize("storage", STORAGES)
def test_a_threshold_of_zero_gets_no_pause_and_no_credit(storage, monkeypatch):
    """``gc.set_threshold(0)`` turns automatic collection off: a decode
    neither pauses the collector nor switches automatic collection back on
    through a raised threshold."""
    relation = _credited(storage)
    base = gc.get_threshold()
    seen = []
    decode = EncodedRelation._decoded_columns

    def observed(self, positions):
        seen.append(gc.isenabled())
        return decode(self, positions)

    monkeypatch.setattr(EncodedRelation, "_decoded_columns", observed)
    gc.set_threshold(0, *base[1:])
    try:
        answers = relation.answer_tuples(HEAD)
        rows = relation.to_relation().rows
        assert gc.get_threshold() == (0,) + base[1:]
    finally:
        gc.set_threshold(*base)
    assert seen == [True, True]
    assert len(answers) == len(rows) == len(relation)


@pytest.mark.parametrize("storage", STORAGES)
def test_credits_raced_by_collections_end_with_the_callers_thresholds(storage):
    """More threads than cores, switching every microsecond, each one
    decoding and collecting: the hook that ends a credit races the pauses
    that end and set one, and a lost update would leave a raised threshold
    behind, or ratchet the base up."""
    relation = _credited(storage)
    base = gc.get_threshold()
    workers, rounds = 4, 5
    start = threading.Barrier(workers, timeout=30)
    sizes = []

    def run():
        for _ in range(rounds):
            start.wait()
            sizes.append(len(relation.answer_tuples(HEAD)))
            gc.collect(0)

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
    assert sizes == [len(relation)] * (workers * rounds)
    assert gc.isenabled()
    gc.collect()
    assert gc.get_threshold() == base
