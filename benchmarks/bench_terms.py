"""Term-layer benchmark: interned terms against value-hashed terms.

``Constant``, ``Null`` and ``Variable`` are interned (see
``repro.datamodel.terms``): one live object per key, so ``hash`` and ``==``
are ``object``'s own.  This measures what that buys and costs, layer by
layer, against a reference frozen dataclass that hashes and compares its
field (the shape the term classes had before interning):

* **Construction** — an interning hit (the key is alive) and a miss (a
  fresh key, whose term dies at once, so the miss also pays the removal of
  its table entry).  The reference pays neither lookup.
* **hash** — one ``hash(term)`` call.
* **Answer set** — ``set(pairs)`` over 40k answer pairs drawn from 12.5k
  terms, the shape of a ``serve_scan`` answer.
* **Decode** — ``EncodedRelation.answer_tuples`` over the same 40k rows on
  ``array('q')`` columns and on numpy columns, with the cyclic-collector
  runs that start inside one call (counted through ``gc.callbacks``; the
  decode pauses the collector, so this reads 0) and in a gen-0 threshold
  of allocations after it returns, while its answer set is alive (the
  pause credits the set to the threshold, so this reads 0 too; the few
  allocations the call makes outside the pause are left out, see
  ``CALL_ALLOCATIONS``), and the object array the numpy decode first
  builds from the encoder's term list (``numpy.fromiter``) against slice
  assignment.

Results land in ``BENCH_terms.json``.  ``BENCH_SMOKE=1`` shrinks sizes and
repeats to milliseconds and skips the timing assertions (tiny inputs are
noise-dominated).
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.datamodel import Constant, Null, Variable
from repro.evaluation.encoding import EncodedRelation, EncodedStore, TermEncoder
from repro.reporting import BenchSnapshot
from conftest import host_metadata, print_series, scaled_sizes, smoke_mode

#: Distinct terms, and answer pairs drawn from them (a ``serve_scan``
#: answer: ~40k pairs over the ~12.5k terms of its encoder).
TERMS, PAIRS = scaled_sizes((12_500, 40_000), (500, 1_600))

#: Timed repeats per measurement; the median is reported.
REPEATS = 2 if smoke_mode() else 9

#: Acceptance bars outside smoke mode (ratios reference / interned).
MIN_SET_SPEEDUP = 2.0
MIN_FROMITER_SPEEDUP = 2.0

#: Tracked objects a decode call allocates outside its pause (its closure,
#: the head positions, the threshold reads): they use up the caller's
#: gen-0 headroom as any allocation does, so the allocations counted after
#: a call are the gen-0 threshold less these.
CALL_ALLOCATIONS = 32

_CACHE: Dict[str, Dict[str, object]] = {}


@dataclass(frozen=True, order=True)
class ValueConstant:
    """Reference term: a frozen dataclass, hashed and compared by value."""

    name: object


def _numpy():
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def _time(run: Callable[[], object], per: int = 1) -> Dict[str, float]:
    """Median and quartiles over ``REPEATS`` runs, in seconds per ``per``.

    Each run starts right after a full collection, so a collection left
    over from the previous run does not land in it.
    """
    samples = []
    for _ in range(REPEATS):
        gc.collect()
        started = time.perf_counter()
        run()
        samples.append((time.perf_counter() - started) / per)
    quartiles = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": statistics.median(samples), "q1": quartiles[0], "q3": quartiles[-1]}


def _collections(run: Callable[[], object]) -> Tuple[float, float]:
    """Median counts of collector runs that start inside one call, and in
    the ``gc.get_threshold()[0] - CALL_ALLOCATIONS`` tracked allocations
    right after it with its result alive, over ``REPEATS`` calls each made
    right after a full collection."""
    started = []

    def count(phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            started.append(info["generation"])

    inside, after = [], []
    gc.callbacks.append(count)
    try:
        for _ in range(REPEATS):
            gc.collect()
            allocations = gc.get_threshold()[0] - CALL_ALLOCATIONS
            del started[:]
            result = run()
            inside.append(len(started))
            kept = [[] for _ in range(allocations)]
            after.append(len(started) - inside[-1])
            del result, kept
    finally:
        gc.callbacks.remove(count)
    return statistics.median(inside), statistics.median(after)


def _scaled(timing: Dict[str, float], factor: float) -> Dict[str, float]:
    return {key: value * factor for key, value in timing.items()}


def run_term_operations() -> Dict[str, object]:
    """Construction, hash and answer-set build: interned vs reference."""
    if "ops" in _CACHE:
        return _CACHE["ops"]
    rng = random.Random(1)
    names = [f"c{index}" for index in range(TERMS)]
    interned = [Constant(name) for name in names]
    reference = [ValueConstant(name) for name in names]
    draws = [(rng.randrange(TERMS), rng.randrange(TERMS)) for _ in range(PAIRS)]
    interned_pairs = [(interned[a], interned[b]) for a, b in draws]
    reference_pairs = [(reference[a], reference[b]) for a, b in draws]
    miss_round = iter(range(1 << 30))

    def misses() -> None:
        prefix = f"bench-miss-{next(miss_round)}-"
        for index in range(TERMS):
            Null(prefix + str(index))

    ns = 1e9
    row: Dict[str, object] = {
        "terms": TERMS,
        "pairs": PAIRS,
        "hit_ns": _scaled(_time(lambda: [Constant(name) for name in names], TERMS), ns),
        "miss_ns": _scaled(_time(misses, TERMS), ns),
        "reference_construct_ns": _scaled(
            _time(lambda: [ValueConstant(name) for name in names], TERMS), ns
        ),
        "hash_ns": _scaled(_time(lambda: [hash(term) for term in interned], TERMS), ns),
        "reference_hash_ns": _scaled(
            _time(lambda: [hash(term) for term in reference], TERMS), ns
        ),
        "set_ms": _scaled(_time(lambda: set(interned_pairs)), 1e3),
        "reference_set_ms": _scaled(_time(lambda: set(reference_pairs)), 1e3),
    }
    row["set_speedup"] = row["reference_set_ms"]["median"] / row["set_ms"]["median"]
    _CACHE["ops"] = row
    return row


def _answer_relation(use_numpy: bool) -> EncodedRelation:
    """40k encoded answer pairs over an encoder holding 12.5k terms."""
    rng = random.Random(2)
    encoder = TermEncoder()
    for index in range(TERMS):
        encoder.encode(Constant(f"c{index}"))
    codes = [[rng.randrange(TERMS) for _ in range(PAIRS)] for _ in range(2)]
    if use_numpy:
        numpy = _numpy()
        columns = [numpy.asarray(column, dtype=numpy.int64) for column in codes]
    else:
        columns = [array("q", column) for column in codes]
    store = EncodedStore(columns, PAIRS, use_numpy)
    return EncodedRelation((Variable("x"), Variable("y")), store, encoder)


def run_decode() -> Dict[str, object]:
    """``answer_tuples`` on both storages; the decode array's build."""
    if "decode" in _CACHE:
        return _CACHE["decode"]
    head = (Variable("x"), Variable("y"))
    array_relation = _answer_relation(use_numpy=False)
    row: Dict[str, object] = {
        "terms": TERMS,
        "rows": PAIRS,
        "answer_tuples_array_ms": _scaled(
            _time(lambda: array_relation.answer_tuples(head)), 1e3
        ),
    }
    (
        row["answer_tuples_array_collections"],
        row["answer_tuples_array_collections_after"],
    ) = _collections(lambda: array_relation.answer_tuples(head))
    numpy = _numpy()
    if numpy is not None:
        numpy_relation = _answer_relation(use_numpy=True)
        terms = numpy_relation.encoder.terms
        assert numpy_relation.answer_tuples(head) == array_relation.answer_tuples(head)

        def slice_assigned() -> object:
            built = numpy.empty(len(terms), dtype=object)
            built[:] = terms
            return built

        row["answer_tuples_numpy_ms"] = _scaled(
            _time(lambda: numpy_relation.answer_tuples(head)), 1e3
        )
        (
            row["answer_tuples_numpy_collections"],
            row["answer_tuples_numpy_collections_after"],
        ) = _collections(lambda: numpy_relation.answer_tuples(head))
        row["fromiter_ms"] = _scaled(
            _time(lambda: numpy.fromiter(terms, dtype=object, count=len(terms))), 1e3
        )
        row["slice_assign_ms"] = _scaled(_time(slice_assigned), 1e3)
        row["fromiter_speedup"] = (
            row["slice_assign_ms"]["median"] / row["fromiter_ms"]["median"]
        )
    _CACHE["decode"] = row
    return row


def _write_snapshot() -> None:
    snapshot = BenchSnapshot("terms")
    snapshot.record("host", host_metadata())
    snapshot.record("repeats", REPEATS)
    snapshot.record("term_operations", run_term_operations())
    snapshot.record("decode", run_decode())
    snapshot.write()


def _median(row: Dict[str, object], key: str, digits: int = 1) -> str:
    timing = row.get(key)
    return "-" if timing is None else f"{timing['median']:.{digits}f}"


def test_interned_terms_hash_and_build_answer_sets_faster():
    row = run_term_operations()
    print_series(
        f"term operations over {row['terms']} terms (median of {REPEATS})",
        [
            ("construct hit", _median(row, "hit_ns"), _median(row, "reference_construct_ns"), "ns"),
            ("construct miss", _median(row, "miss_ns"), "-", "ns"),
            ("hash", _median(row, "hash_ns"), _median(row, "reference_hash_ns"), "ns"),
            (
                f"set of {row['pairs']} pairs",
                _median(row, "set_ms", 2),
                _median(row, "reference_set_ms", 2),
                "ms",
            ),
        ],
        header=("operation", "interned", "value-hashed", "unit"),
    )
    _write_snapshot()
    if smoke_mode():
        return
    assert row["hash_ns"]["median"] < row["reference_hash_ns"]["median"]
    assert row["set_speedup"] >= MIN_SET_SPEEDUP, (
        f"an answer set of interned terms should build {MIN_SET_SPEEDUP}x faster "
        f"than one of value-hashed terms, got {row['set_speedup']:.2f}x"
    )


def test_decode_builds_its_term_array_with_fromiter():
    row = run_decode()
    print_series(
        f"decode of {row['rows']} answer pairs, encoder of {row['terms']} terms "
        f"(median of {REPEATS}, ms)",
        [
            (
                "answer_tuples, array('q')",
                _median(row, "answer_tuples_array_ms", 2),
                row["answer_tuples_array_collections"],
                row["answer_tuples_array_collections_after"],
            ),
            (
                "answer_tuples, numpy",
                _median(row, "answer_tuples_numpy_ms", 2),
                row.get("answer_tuples_numpy_collections", "-"),
                row.get("answer_tuples_numpy_collections_after", "-"),
            ),
            ("term array, numpy.fromiter", _median(row, "fromiter_ms", 3), "-", "-"),
            ("term array, slice assignment", _median(row, "slice_assign_ms", 3), "-", "-"),
        ],
        header=("step", "ms", "collections per call", "collections after"),
    )
    _write_snapshot()
    if smoke_mode() or "fromiter_speedup" not in row:
        return
    assert row["fromiter_speedup"] >= MIN_FROMITER_SPEEDUP, (
        f"numpy.fromiter should build the decode array {MIN_FROMITER_SPEEDUP}x "
        f"faster than slice assignment, got {row['fromiter_speedup']:.2f}x"
    )
