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
* **Ingest** — µs per ``Instance.add`` while loading the facts of the
  repository benchmark (``bench/workloads.py``): the ``serve_*`` chain
  database and the ``cold_tgds`` database, into a ``Database``, whose
  per-term index is built on first read, and into the eagerly indexed
  reference (``helpers.instance_reference``); and the ``tracemalloc`` peak
  of loading the chain database into each.  The index must be unbuilt
  after loading: this count is all the panel asserts in smoke mode.

Each panel takes the runs it compares in turn (``interleaved`` of
``benchmarks/conftest.py``), and its speedups are medians of the
per-repeat ratios, so a drift of the host's speed lands on both sides.
Results land in ``BENCH_terms.json``.  ``BENCH_SMOKE=1`` shrinks sizes and
repeats to milliseconds and skips the timing assertions (tiny inputs are
noise-dominated).
"""

from __future__ import annotations

import functools
import gc
import importlib.util
import random
import statistics
import sys
import tracemalloc
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from helpers import instance_reference
from repro.datamodel import Atom, Constant, Database, Null, Variable
from repro.evaluation.encoding import EncodedRelation, EncodedStore, TermEncoder
from conftest import (
    BenchSnapshot,
    fmt,
    interleaved,
    median_ratio,
    print_series,
    scaled_sizes,
    smoke_mode,
    summary,
)

#: Distinct terms, and answer pairs drawn from them (a ``serve_scan``
#: answer: ~40k pairs over the ~12.5k terms of its encoder).
TERMS, PAIRS = scaled_sizes((12_500, 40_000), (500, 1_600))

#: Timed repeats per measurement; the median is reported.
REPEATS = 2 if smoke_mode() else 9

#: Acceptance bars outside smoke mode (ratios reference / interned).
MIN_SET_SPEEDUP = 2.0
MIN_FROMITER_SPEEDUP = 2.0
MIN_INGEST_SPEEDUP = 1.2

#: The repository benchmark's workload module, which draws its facts.
BENCH_WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"

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

    per_term = interleaved(
        {
            "hit_ns": lambda: [Constant(name) for name in names],
            "reference_construct_ns": lambda: [ValueConstant(name) for name in names],
            "miss_ns": misses,
            "hash_ns": lambda: [hash(term) for term in interned],
            "reference_hash_ns": lambda: [hash(term) for term in reference],
        },
        REPEATS,
        per=TERMS * 1e-9,
    )
    sets = interleaved(
        {"set_ms": lambda: set(interned_pairs), "reference_set_ms": lambda: set(reference_pairs)},
        REPEATS,
        per=1e-3,
    )
    row: Dict[str, object] = {"terms": TERMS, "pairs": PAIRS}
    for samples in (per_term, sets):
        row.update((name, summary(taken)) for name, taken in samples.items())
    row["set_speedup"] = median_ratio(sets["reference_set_ms"], sets["set_ms"])
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
    runs = {"answer_tuples_array_ms": lambda: array_relation.answer_tuples(head)}
    row: Dict[str, object] = {"terms": TERMS, "rows": PAIRS}
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

        runs["answer_tuples_numpy_ms"] = lambda: numpy_relation.answer_tuples(head)
        runs["fromiter_ms"] = lambda: numpy.fromiter(terms, dtype=object, count=len(terms))
        runs["slice_assign_ms"] = slice_assigned
        (
            row["answer_tuples_numpy_collections"],
            row["answer_tuples_numpy_collections_after"],
        ) = _collections(lambda: numpy_relation.answer_tuples(head))
    samples = interleaved(runs, REPEATS, per=1e-3)
    row.update((name, summary(taken)) for name, taken in samples.items())
    if numpy is not None:
        row["fromiter_speedup"] = median_ratio(samples["slice_assign_ms"], samples["fromiter_ms"])
    _CACHE["decode"] = row
    return row


def _workload_facts() -> Dict[str, List[Atom]]:
    """The facts ``serve_scan`` and ``cold_tgds`` load, seed 1 (smoke sizes
    under ``BENCH_SMOKE=1``)."""
    workloads = sys.modules.get("_bench_workloads")
    if workloads is None:
        spec = importlib.util.spec_from_file_location("_bench_workloads", BENCH_WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        # Registered first: its dataclasses look their module up by name.
        sys.modules[spec.name] = workloads
        spec.loader.exec_module(workloads)
    sizes = workloads.SMOKE if smoke_mode() else workloads.FULL
    return {
        "chain": workloads.ChainSession(1, sizes).atoms,
        "cold_tgds": workloads.ColdTgds(1, sizes).atoms,
    }


def _load(make: Callable[[], object], atoms: List[Atom]) -> object:
    database = make()
    add = database.add
    for atom in atoms:
        add(atom)
    return database


def _traced_peak_mb(run: Callable[[], object]) -> float:
    """The ``tracemalloc`` peak of one call, its result alive, in MB."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del kept
    return peak / 1e6


def run_ingest() -> Dict[str, object]:
    """``Instance.add`` while loading, lazy term index vs the eager one."""
    if "ingest" in _CACHE:
        return _CACHE["ingest"]
    makers = {"lazy": Database, "eager": instance_reference.Instance}
    row: Dict[str, object] = {}
    for name, atoms in _workload_facts().items():
        loaded = _load(Database, atoms)
        row[f"{name}_facts"] = len(loaded)
        row[f"{name}_index_built_after_load"] = loaded._by_term is not None
        samples = interleaved(
            {kind: functools.partial(_load, make, atoms) for kind, make in makers.items()},
            REPEATS,
            per=len(atoms) * 1e-6,
        )
        for kind, taken in samples.items():
            row[f"{name}_{kind}_us_per_add"] = summary(taken)
        row[f"{name}_speedup"] = median_ratio(samples["eager"], samples["lazy"])
        if name == "chain":
            for kind, make in makers.items():
                row[f"chain_{kind}_peak_mb"] = _traced_peak_mb(lambda: _load(make, atoms))

            def built() -> object:
                database = _load(Database, atoms)
                database.atoms_with_term(atoms[0].terms[0])
                return database

            row["chain_lazy_indexed_peak_mb"] = _traced_peak_mb(built)
    _CACHE["ingest"] = row
    return row


def _write_snapshot() -> None:
    snapshot = BenchSnapshot("terms")
    snapshot.record("repeats", REPEATS)
    snapshot.record("term_operations", run_term_operations())
    snapshot.record("decode", run_decode())
    snapshot.record("ingest", run_ingest())
    snapshot.write()


def test_interned_terms_hash_and_build_answer_sets_faster():
    row = run_term_operations()
    print_series(
        f"term operations over {row['terms']} terms (median of {REPEATS})",
        [
            (
                operation,
                fmt(row[interned]["median"], digits=digits),
                "-" if reference is None else fmt(row[reference]["median"], digits=digits),
                unit,
            )
            for operation, interned, reference, digits, unit in (
                ("construct hit", "hit_ns", "reference_construct_ns", 1, "ns"),
                ("construct miss", "miss_ns", None, 1, "ns"),
                ("hash", "hash_ns", "reference_hash_ns", 1, "ns"),
                (f"set of {row['pairs']} pairs", "set_ms", "reference_set_ms", 2, "ms"),
            )
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
                fmt(row["answer_tuples_array_ms"]["median"], digits=2),
                row["answer_tuples_array_collections"],
                row["answer_tuples_array_collections_after"],
            ),
            (
                "answer_tuples, numpy",
                fmt(row.get("answer_tuples_numpy_ms", {}).get("median"), digits=2),
                row.get("answer_tuples_numpy_collections", "-"),
                row.get("answer_tuples_numpy_collections_after", "-"),
            ),
            (
                "term array, numpy.fromiter",
                fmt(row.get("fromiter_ms", {}).get("median"), digits=3),
                "-",
                "-",
            ),
            (
                "term array, slice assignment",
                fmt(row.get("slice_assign_ms", {}).get("median"), digits=3),
                "-",
                "-",
            ),
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


def test_loading_leaves_the_term_index_unbuilt():
    row = run_ingest()
    print_series(
        f"ingest, µs per Instance.add (median of {REPEATS}) and tracemalloc peak",
        [
            (
                f"{name}, {row[f'{name}_facts']} facts",
                fmt(row[f"{name}_lazy_us_per_add"]["median"], digits=2),
                fmt(row[f"{name}_eager_us_per_add"]["median"], digits=2),
                "µs",
            )
            for name in ("chain", "cold_tgds")
        ]
        + [
            (
                "chain, loaded",
                fmt(row["chain_lazy_peak_mb"], digits=1),
                fmt(row["chain_eager_peak_mb"], digits=1),
                "MB",
            ),
            (
                "chain, loaded and indexed",
                fmt(row["chain_lazy_indexed_peak_mb"], digits=1),
                "-",
                "MB",
            ),
        ],
        header=("load", "lazy term index", "eager term index", "unit"),
    )
    _write_snapshot()
    assert not row["chain_index_built_after_load"]
    assert not row["cold_tgds_index_built_after_load"]
    if smoke_mode():
        return
    for name in ("chain", "cold_tgds"):
        assert row[f"{name}_speedup"] >= MIN_INGEST_SPEEDUP, (
            f"loading {name} facts without the term index should be "
            f"{MIN_INGEST_SPEEDUP}x faster per add, got {row[f'{name}_speedup']:.2f}x"
        )
    assert row["chain_lazy_peak_mb"] < row["chain_eager_peak_mb"]
