"""Dictionary encoding and the columnar storage every operator runs on.

The scan cache (:class:`repro.evaluation.batch.ScanCache`) keeps one base
:class:`~repro.evaluation.relation.Relation` of
:class:`~repro.datamodel.Term` tuples per predicate.  Joining those tuples
directly would build and hash a tuple of term objects per probe — a large
constant factor on top of the linear-time bounds the operators meet.  This
module removes that constant without touching the algorithms:

* a :class:`TermEncoder` maps each distinct term to a dense ``int`` code,
  once, and decodes by list indexing;
* an :class:`EncodedStore` keeps a relation's rows column-wise as
  ``array('q')`` buffers (optionally numpy ``int64`` arrays, see
  :func:`numpy_enabled`) plus the caches shared by schema views.  A base
  relation's store is encoded once and long-lived; every scan of its
  predicate is a view of it, or a one-shot gather of one bucket of its
  cached key index (an anchored atom);
* an :class:`EncodedRelation` is the schema-carrying view over a store and
  offers the relational operators
  (``semijoin``/``join``/``project``/``select_codes``/``slice_rows``) over
  int keys, so the operator IR executes on int columns and decodes only
  at the output boundary.

The tuple-at-a-time engine under ``tests/helpers/tuple_engine.py`` is the
differential oracle: the operators must agree with it bit-for-bit on
answer sets (see ``tests/test_columnar_backend.py``).

Probe accounting: a hash join adds one probe per left row to the
process-wide ``Partition.total_probes`` counter, once per call, while
membership checks (the semi-join path) are deliberately uncounted — the
accounting the bounded-work assertions in the streaming tests read.
"""

from __future__ import annotations

import gc
import os
import threading
from array import array
from itertools import chain
from typing import (
    Callable,
    Collection,
    Container,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from ..datamodel import Term, Variable
from .relation import Partition, Relation, Row, SchemaError

#: Environment variable gating the optional numpy column storage.
NUMPY_ENV = "REPRO_NUMPY"

#: A row of dictionary codes, positionally aligned with a schema.
IntRow = Tuple[int, ...]

_UNSET = object()
_NUMPY: object = _UNSET

_EMPTY_BUCKET: Tuple[int, ...] = ()

_Built = TypeVar("_Built")

#: :meth:`EncodedRelation.semijoin_on` probes a long-lived left store's key
#: index instead of scanning it when the right side has at most one distinct
#: key per this many left keys.  On the warm ``array('q')`` kernels the
#: probe wins by 1.6–2× at that ratio for left bucket sizes 2 to 250, and
#: loses (0.7–1.0×) only once the right side hits most left keys
#: (docs/ARCHITECTURE.md, "Semi-join: probe or scan").
SEMIJOIN_PROBE_FACTOR = 4


def _numpy_module() -> object:
    global _NUMPY
    if _NUMPY is _UNSET:
        try:
            import numpy  # noqa: F401  (optional, never a hard dependency)

            _NUMPY = numpy
        except Exception:  # pragma: no cover - exercised on numpy-free installs
            _NUMPY = None
    return _NUMPY


def numpy_enabled() -> bool:
    """Whether columns should be stored as numpy ``int64`` arrays.

    Off by default even when numpy is importable: the flag
    (``REPRO_NUMPY=1``) makes the accelerated storage an explicit opt-in, so
    the pure-python ``array('q')`` path — the one CI exercises on
    numpy-free installs — stays the default columnar implementation.
    """
    value = os.environ.get(NUMPY_ENV, "").strip().lower()
    if value in ("", "0", "false", "no", "off"):
        return False
    return _numpy_module() is not None


_pause_lock = threading.Lock()
_pausing = 0
_paused = False
#: The young count when the current pause began, and the live credit: the
#: tracked objects the last pause added to generation 0, by which the
#: caller's thresholds ``_base`` were raised to ``_raised``.
_count_at_pause = 0
_credit = 0
_base: Tuple[int, ...] = ()
_raised: Tuple[int, ...] = ()


def _collector_paused(rows: int, build: Callable[[], _Built]) -> _Built:
    """``build()``, run with the cyclic garbage collector paused when it
    decodes at least the caller's gen-0 threshold of rows.

    A decode builds one tuple of interned terms per row.  Such tuples can
    never form a cycle, but they are GC-tracked (terms are), so a large
    decode would trigger a young collection every threshold rows and
    repeated full ones.  A smaller decode triggers at most one, and runs
    unpaused; so does every decode under a threshold of 0, which is the
    application's way of turning automatic collection off.  Threads that
    overlap share one pause: the first one in disables the collector if it
    is enabled, and the last one out re-enables it only if the pause
    disabled it, also when ``build`` raises.  A caller that switched the
    collector off keeps it off.  The collector is process-wide, so the
    pause count is module state.  Streams are never paused: a suspended
    generator would hold the pause.

    The answer set is still alive when the pause ends, and still counted
    in generation 0, so the first allocation after ``gc.enable()`` would
    run a young collection that walks all of it.  The last thread out
    therefore raises the gen-0 threshold by a credit: the tracked objects
    the pause added.  The caller's thresholds come back at the next pause
    or at the start of the next collection (:func:`_clear_credit`),
    unless the application has set its own meanwhile.  A credit covers the
    latest pause's set only: while an earlier credited set is still alive,
    the next large decode ends its credit, and a young collection walks
    both sets soon after that decode.
    """
    global _pausing, _paused, _count_at_pause, _credit, _base, _raised
    threshold = gc.get_threshold()
    base = _base if _credit and threshold == _raised else threshold
    if not 0 < base[0] <= rows:
        return build()
    with _pause_lock:
        if _pausing == 0 and gc.isenabled():
            gc.disable()
            _paused = True
            if _credit and gc.get_threshold() == _raised:
                gc.set_threshold(*_base)
            _credit = 0
            _count_at_pause = gc.get_count()[0]
        _pausing += 1
    try:
        return build()
    finally:
        with _pause_lock:
            _pausing -= 1
            if _pausing == 0 and _paused:
                _paused = False
                credit = gc.get_count()[0] - _count_at_pause
                if credit > 0:
                    _base = gc.get_threshold()
                    _raised = (_base[0] + credit,) + _base[1:]
                    gc.set_threshold(*_raised)
                    _credit = credit
                    if _clear_credit not in gc.callbacks:
                        gc.callbacks.append(_clear_credit)
                gc.enable()


def _clear_credit(phase: str, info: Dict[str, int]) -> None:
    """The collector hook that ends a live credit when a collection starts.

    It restores the caller's thresholds only if they still read the raised
    ones, so an application's own ``gc.set_threshold`` wins.  A collection
    can start in any thread, so the hook only tries ``_pause_lock``: a
    thread that holds it is about to end the credit at a pause's start or
    replace it at a pause's end.
    """
    global _credit
    if not _credit or phase != "start" or not _pause_lock.acquire(blocking=False):
        return
    try:
        if _credit and gc.get_threshold() == _raised:
            gc.set_threshold(*_base)
        _credit = 0
    finally:
        _pause_lock.release()


def _make_column(values: Iterable[int], use_numpy: bool) -> Sequence[int]:
    if use_numpy:
        numpy = _numpy_module()
        return numpy.fromiter(values, dtype=numpy.int64)  # type: ignore[union-attr]
    return array("q", values)


def _take_column(
    column: Sequence[int], indices: Sequence[int], use_numpy: bool
) -> Sequence[int]:
    if use_numpy:
        return column[indices]  # type: ignore[index]  # fancy indexing
    # Base columns are compact array('q') storage; gathered intermediates
    # stay plain lists — list(map(...)) is markedly faster to build than an
    # array and every downstream consumer is indexing/slicing either way.
    return list(map(column.__getitem__, indices))


class TermEncoder:
    """An append-only bijection between terms and dense int codes.

    Encoding is one dict lookup per cell; decoding is one list index.  The
    encoder is owned by the scan layer (one per
    :class:`~repro.evaluation.batch.ScanCache`; an
    :class:`~repro.evaluation.operators.ExecutionContext` without an
    injected cache builds one for its run), so relations encoded under the
    same encoder share a code space and can be joined without translation.

    Encoding is thread-safe: client threads sharing a scan cache or a
    service may encode under one shared encoder at once, so the append path
    takes a lock — the same discipline as
    ``TermFactory`` in :mod:`repro.datamodel.terms`.  The fast path (term
    already assigned) stays a single lock-free dict read: codes are never
    retracted, so a hit is stable the moment it is visible.
    """

    __slots__ = ("codes", "terms", "_lock", "_term_array")

    def __init__(self) -> None:
        self.codes: Dict[Term, int] = {}
        self.terms: List[Term] = []
        self._lock = threading.Lock()
        self._term_array: object = None

    def __len__(self) -> int:
        return len(self.terms)

    def encode(self, term: Term) -> int:
        code = self.codes.get(term)
        if code is None:
            with self._lock:
                code = self.codes.get(term)
                if code is None:
                    code = len(self.terms)
                    self.terms.append(term)
                    self.codes[term] = code
        return code

    def encode_all(self, terms: Iterable[Term]) -> None:
        """Assign codes to the terms of ``terms`` not encoded yet, in their
        order of first occurrence (the codes :meth:`encode` would give them
        one by one), under one lock.

        The new terms are appended to :attr:`terms` before they enter
        :attr:`codes`, so a lock-free reader that finds a code can decode it.
        """
        codes = self.codes
        new = [term for term in dict.fromkeys(terms) if term not in codes]
        if not new:
            return
        with self._lock:
            new = [term for term in new if term not in codes]
            start = len(self.terms)
            self.terms.extend(new)
            codes.update(zip(new, range(start, start + len(new))))

    def encode_row(self, row: Row) -> IntRow:
        return tuple(map(self.encode, row))

    def decode(self, code: int) -> Term:
        return self.terms[code]

    def decode_row(self, row: Sequence[int]) -> Row:
        terms = self.terms
        return tuple(terms[code] for code in row)

    def term_array(self) -> object:
        """The terms as a numpy object array covering every code assigned
        so far (numpy storage's column decode gathers from it).

        Cached and extended by the new terms when the encoder has grown
        (it is append-only), so a decode costs the answer, not the encoder.
        Each reader checks the cached array's length against the code count
        it sampled, and a longer array is published by one reference swap,
        so a concurrent reader never decodes through a short array.  Built
        with ``numpy.fromiter`` (object dtype needs numpy 1.23+): slice
        assignment probes every term as a possible sequence and is several
        times slower (``BENCH_terms.json``).
        """
        count = len(self.terms)
        cached = self._term_array
        have = 0 if cached is None else len(cached)  # type: ignore[arg-type]
        if have >= count:
            return cached
        numpy = _numpy_module()
        grown = numpy.fromiter(self.terms[have:count], dtype=object, count=count - have)  # type: ignore[union-attr]
        if cached is not None:
            grown = numpy.concatenate((cached, grown))  # type: ignore[union-attr]
        self._term_array = grown
        return grown

    def dead_codes(self, live: Container[Term]) -> int:
        """Count assigned codes whose term is not in ``live``.

        The encoder never retracts codes (append-only keeps every cached
        encoded store valid), so deletions strand codes over time.  This
        audit — typically called with the database's active domain — makes
        the drift observable; ``O(len(self))``.
        """
        return sum(1 for term in self.terms if term not in live)


class IntIndex:
    """A hash index from int join keys to row indices of one store.

    The encoded analogue of :class:`~repro.evaluation.relation.Partition`:
    built once per (store, key columns) and cached on the store.  Every
    bucket lists its row indices in ascending order.  The index counts
    nothing itself: the join kernel that probes ``buckets`` adds its probes
    to ``Partition.total_probes`` once per call, which the bounded-work
    assertions read; membership checks (``key in index``, the semi-join
    path) are deliberately uncounted, mirroring ``Partition.__contains__``.

    An index is never mutated once built.  A delta merge derives the
    successor store's index with :meth:`patched` instead of rebuilding it.
    """

    __slots__ = ("positions", "buckets")

    #: Process-wide count of indexes built over long-lived stores (see
    #: :meth:`EncodedRelation.key_index`): the deterministic witness that a
    #: delta merge carries the indexes forward instead of rebuilding them.
    long_lived_builds: int = 0

    _build_lock = threading.Lock()

    def __init__(self, positions: Tuple[int, ...], buckets: Dict[object, List[int]]) -> None:
        self.positions = positions
        self.buckets = buckets

    @classmethod
    def build(cls, positions: Tuple[int, ...], keys: Iterable[object]) -> "IntIndex":
        """Index ``keys`` (one per row, in row order) — one ``O(rows)`` pass."""
        buckets: Dict[object, List[int]] = {}
        for index, key in enumerate(keys):
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [index]
            else:
                bucket.append(index)
        return cls(positions, buckets)

    @classmethod
    def count_long_lived_build(cls) -> None:
        with cls._build_lock:
            cls.long_lived_builds += 1

    def __contains__(self, key: object) -> bool:
        return key in self.buckets

    def __iter__(self) -> Iterator[object]:
        return iter(self.buckets)

    def __len__(self) -> int:
        return len(self.buckets)

    def _key_of(self, columns: Sequence[Sequence[int]], row: int) -> object:
        """The key of row ``row`` of ``columns`` as this index spells it."""
        positions = self.positions
        if len(positions) == 1:
            return int(columns[positions[0]][row])
        return tuple(int(columns[p][row]) for p in positions)

    def patched(
        self,
        columns: Sequence[Sequence[int]],
        gone: Sequence[int],
        moves: Sequence[Tuple[int, int]],
        inserted: Sequence[IntRow],
        cut: int,
    ) -> "IntIndex":
        """This index carried through one delta merge, ``O(touched buckets)``.

        ``columns`` are the pre-merge store's; ``gone`` lists the deleted
        row ids, ``moves`` the ``(hole, source)`` pairs that fill the holes
        below ``cut`` with rows from above it, and ``inserted`` the encoded
        rows appended from ``cut`` on (see
        :func:`~repro.evaluation.relation.swap_moves`).  The buckets dict is
        copied at C speed; only touched buckets are rebuilt, as new sorted
        lists, so ``self`` and its lists stay untouched.
        """
        positions = self.positions
        vacated = set(gone)
        vacated.update(source for _, source in moves)
        added: Dict[object, List[int]] = {}
        for hole, source in moves:
            added.setdefault(self._key_of(columns, source), []).append(hole)
        for offset, row in enumerate(inserted, cut):
            key = row[positions[0]] if len(positions) == 1 else tuple(row[p] for p in positions)
            added.setdefault(key, []).append(offset)
        touched = {self._key_of(columns, row) for row in vacated}
        touched.update(added)
        buckets = dict(self.buckets)
        for key in touched:
            bucket = [row for row in buckets.get(key, _EMPTY_BUCKET) if row not in vacated]
            extra = added.get(key)
            if extra:
                bucket.extend(extra)
                bucket.sort()
            if bucket:
                buckets[key] = bucket
            else:
                buckets.pop(key, None)
        return IntIndex(positions, buckets)


class EncodedStore:
    """The shared, schema-free storage of one encoded relation.

    Mirrors the role row storage plays for :class:`Relation`: a store is
    shared by reference across :meth:`EncodedRelation.with_schema` views,
    and all caches (row tuples, int indexes) live here so every
    view reuses them — caches are positional, never name-dependent.  The
    usual immutability discipline applies: columns are never mutated after
    construction.

    ``long_lived`` marks a store cached on its :class:`Relation` (see
    :meth:`Relation.encoded`): it serves every later read of that relation,
    so an index built on it pays off across calls.  Anchored scans,
    operator outputs, batch chunks and enumeration stores are one-shot
    (``False``).  ``epoch`` mirrors the owning relation's stamped database
    epoch (:meth:`Relation.stamp_epoch`; ``None`` when unstamped), and an
    anchored scan copies it from the base store it was read from, so a run
    that holds a store superseded by a delta merge can be told apart
    (PLAN016).
    """

    __slots__ = ("columns", "length", "use_numpy", "caches", "long_lived", "epoch")

    def __init__(
        self,
        columns: Sequence[Sequence[int]],
        length: int,
        use_numpy: bool,
        long_lived: bool = False,
    ) -> None:
        self.columns: Tuple[Sequence[int], ...] = tuple(columns)
        self.length = length
        self.use_numpy = use_numpy
        self.long_lived = long_lived
        self.caches: Dict[object, object] = {}
        self.epoch: Optional[int] = None


class EncodedRelation:
    """A schema-carrying view over an :class:`EncodedStore`.

    Mirrors the :class:`Relation` API
    (``schema``/``rows``/``position``/``variables``) and adds the columnar
    operators over int keys, with decoding deferred to the output
    boundary.
    """

    __slots__ = ("schema", "store", "encoder", "_positions")

    def __init__(
        self,
        schema: Sequence[Variable],
        store: EncodedStore,
        encoder: TermEncoder,
    ) -> None:
        if schema.__class__ is not tuple:
            schema = tuple(schema)
        width = len(schema)
        self._positions: Dict[Variable, int] = dict(zip(schema, range(width)))
        if len(self._positions) != width:
            raise SchemaError(f"duplicate variable in schema {schema}")
        if width != len(store.columns):
            raise SchemaError(
                f"schema {schema} has arity {width}, store has {len(store.columns)} columns"
            )
        self.schema: Tuple[Variable, ...] = schema  # type: ignore[assignment]
        self.store = store
        self.encoder = encoder

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def build_store(rows: Sequence[Row], arity: int, encoder: TermEncoder) -> EncodedStore:
        """Encode term rows into a fresh column store, a column at a time:
        the new terms are encoded in one step, in row order (the codes a
        row-by-row pass gives, :meth:`TermEncoder.encode_all`), then each
        column is mapped through ``encoder.codes`` at C speed."""
        use_numpy = numpy_enabled()
        encoder.encode_all(chain.from_iterable(rows))
        lookup = encoder.codes.__getitem__
        codes = [
            list(map(lookup, column))
            for column in (zip(*rows) if rows else [() for _ in range(arity)])
        ]
        store = EncodedStore([_make_column(c, use_numpy) for c in codes], len(rows), use_numpy)
        store.caches["rows"] = list(zip(*codes)) if codes else [()] * len(rows)
        return store

    @staticmethod
    def merge_store(
        store: EncodedStore,
        encoder: TermEncoder,
        inserted: Sequence[Row],
        gone: Sequence[int] = (),
        moves: Sequence[Tuple[int, int]] = (),
    ) -> EncodedStore:
        """The successor of ``store`` after a delta merge, ``O(delta)`` in python.

        ``gone`` lists the row ids of ``store`` that the merge deletes and
        ``moves`` the ``(hole, source)`` pairs that fill the holes below the
        new cut with surviving rows from above it (swap-on-delete, see
        :func:`~repro.evaluation.relation.swap_moves`).  The new store holds
        ``store``'s rows with those moves applied and the tail cut off, then
        the encoded ``inserted`` rows — exactly the row order
        :meth:`Relation.apply_delta` leaves behind — in ``store``'s storage
        kind.  Only the delta is encoded: old codes stay valid because the
        encoder is append-only.

        Every key index of ``store`` is carried forward
        (:meth:`IntIndex.patched`), so a point read after a write probes an
        index without rebuilding it.  The other caches (int rows, packed
        and sorted keys) start empty.  ``store`` itself
        is not touched, so readers still holding it keep a consistent
        snapshot; its caches are read from a snapshot because such readers
        may add entries concurrently.
        """
        codes = [encoder.encode_row(row) for row in inserted]
        cut = store.length - len(gone)
        length = cut + len(codes)
        use_numpy = store.use_numpy
        numpy = _numpy_module() if use_numpy else None
        holes = [hole for hole, _ in moves]
        sources = [source for _, source in moves]
        columns: List[Sequence[int]] = []
        for position, column in enumerate(store.columns):
            added = [row[position] for row in codes]
            if use_numpy:
                merged = numpy.empty(length, dtype=numpy.int64)  # type: ignore[union-attr]
                merged[:cut] = column[:cut]  # type: ignore[index]
                merged[holes] = column[sources]  # type: ignore[index]
                merged[cut:] = added
            else:
                merged = column[:cut]  # type: ignore[assignment]  # an array slice is a copy
                for hole, source in moves:
                    merged[hole] = column[source]  # type: ignore[index]
                merged.extend(added)  # type: ignore[attr-defined]
            columns.append(merged)
        successor = EncodedStore(columns, length, use_numpy, store.long_lived)
        for key, value in dict(store.caches).items():
            if isinstance(value, IntIndex):
                successor.caches[key] = value.patched(store.columns, gone, moves, codes, cut)
        return successor

    @staticmethod
    def locate_rows(
        store: EncodedStore,
        encoder: TermEncoder,
        rows: Sequence[Row],
        wanted: Iterable[Row],
    ) -> Optional[List[int]]:
        """The ids of the ``wanted`` rows of ``store`` via a cached key index.

        ``rows`` are the term rows ``store`` encodes, in store order.  Each
        wanted row costs one bucket of the widest cached :class:`IntIndex`;
        rows not present are skipped.  ``None`` when ``store`` has no key
        index yet, so the caller falls back to a pass over ``rows``.
        """
        indexes = [value for value in dict(store.caches).values() if isinstance(value, IntIndex)]
        if not indexes:
            return None
        index = max(indexes, key=lambda candidate: len(candidate.positions))
        positions = index.positions
        codes = encoder.codes
        found: List[int] = []
        for row in wanted:
            try:
                key = (
                    codes[row[positions[0]]]
                    if len(positions) == 1
                    else tuple(codes[row[p]] for p in positions)
                )
            except KeyError:  # a term never encoded: the row is not stored
                continue
            for candidate in index.buckets.get(key, _EMPTY_BUCKET):
                if rows[candidate] == row:
                    found.append(candidate)
                    break
        return found

    @classmethod
    def from_rows(
        cls,
        schema: Sequence[Variable],
        rows: Sequence[IntRow],
        encoder: TermEncoder,
    ) -> "EncodedRelation":
        """Build from already-encoded int rows (the enumeration boundary)."""
        use_numpy = numpy_enabled()
        arity = len(tuple(schema))
        columns = [
            _make_column(column, use_numpy)
            for column in (zip(*rows) if rows else [() for _ in range(arity)])
        ]
        store = EncodedStore(columns, len(rows), use_numpy)
        store.caches["rows"] = list(rows)
        return cls(schema, store, encoder)

    @classmethod
    def empty(
        cls, schema: Sequence[Variable], encoder: TermEncoder
    ) -> "EncodedRelation":
        return cls.from_rows(schema, [], encoder)

    def _derive(
        self, schema: Sequence[Variable], columns: Sequence[Sequence[int]], length: int
    ) -> "EncodedRelation":
        return EncodedRelation(
            schema, EncodedStore(columns, length, self.store.use_numpy), self.encoder
        )

    def fresh_copy(self) -> "EncodedRelation":
        """A fresh relation over the same (immutable) columns, fresh caches.

        Operator outputs never alias their inputs' caches: columns may be
        shared because they are immutable, but
        caches never are.
        """
        return self._derive(self.schema, self.store.columns, self.store.length)

    # ------------------------------------------------------------------
    # Introspection (Relation-compatible surface)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.store.length

    def __bool__(self) -> bool:
        return self.store.length > 0

    def is_empty(self) -> bool:
        return self.store.length == 0

    def __iter__(self) -> Iterator[IntRow]:
        return iter(self.rows)

    def variables(self) -> Set[Variable]:
        return set(self.schema)

    def position(self, variable: Variable) -> int:
        try:
            return self._positions[variable]
        except KeyError:
            raise SchemaError(f"{variable} is not in schema {self.schema}") from None

    def __str__(self) -> str:
        header = ", ".join(str(v) for v in self.schema)
        return f"EncodedRelation[{header}]({self.store.length} rows)"

    __repr__ = __str__

    @property
    def rows(self) -> List[IntRow]:
        """The rows as int tuples, built once per store and cached."""
        cached = self.store.caches.get("rows")
        if cached is None:
            columns = self.store.columns
            if not columns:
                cached = [()] * self.store.length
            elif self.store.use_numpy:
                cached = list(zip(*(column.tolist() for column in columns)))  # type: ignore[union-attr]
            else:
                cached = list(zip(*columns))
            self.store.caches["rows"] = cached
        return cached  # type: ignore[return-value]

    def with_schema(self, schema: Sequence[Variable]) -> "EncodedRelation":
        """An ``O(1)`` renamed view sharing this relation's store and caches."""
        return EncodedRelation(schema, self.store, self.encoder)

    # ------------------------------------------------------------------
    # Key access and caches
    # ------------------------------------------------------------------
    def _key_column(self, positions: Tuple[int, ...]) -> Sequence[object]:
        """The join-key sequence for ``positions`` — raw ints for one column,
        int tuples otherwise (python ints either way, so hashing is cheap)."""
        columns = self.store.columns
        if not positions:
            return [()] * self.store.length
        if len(positions) == 1:
            column = columns[positions[0]]
            return column.tolist() if self.store.use_numpy else column  # type: ignore[union-attr]
        selected = [columns[p] for p in positions]
        if self.store.use_numpy:
            selected = [column.tolist() for column in selected]  # type: ignore[union-attr]
        return list(zip(*selected))

    def key_index(self, positions: Sequence[int]) -> IntIndex:
        """The cached :class:`IntIndex` of row indices by key columns."""
        positions = tuple(positions)
        key = ("index", positions)
        cached = self.store.caches.get(key)
        if cached is None:
            cached = IntIndex.build(positions, self._key_column(positions))
            if self.store.long_lived:
                IntIndex.count_long_lived_build()
            self.store.caches[key] = cached
        return cached  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Columnar operators
    # ------------------------------------------------------------------
    def take(
        self,
        indices: Sequence[int],
        schema: Optional[Sequence[Variable]] = None,
        positions: Optional[Sequence[int]] = None,
    ) -> "EncodedRelation":
        """Gather the rows at ``indices`` into a fresh relation, keeping the
        columns at ``positions`` (all of them by default)."""
        use_numpy = self.store.use_numpy
        source = self.store.columns
        if positions is not None:
            source = tuple(source[p] for p in positions)
        columns = [_take_column(column, indices, use_numpy) for column in source]
        return self._derive(
            self.schema if schema is None else schema, columns, len(indices)
        )

    def select_codes(
        self, checks: Sequence[Tuple[int, int]]
    ) -> "EncodedRelation":
        """Keep the rows whose column at each position equals the given code.

        One bulk compare per checked column (a numpy mask when enabled, a
        C-speed comprehension otherwise).
        """
        if not checks:
            return self.fresh_copy()
        columns = self.store.columns
        if self.store.use_numpy:
            numpy = _numpy_module()
            mask = None
            for position, code in checks:
                this = columns[position] == code
                mask = this if mask is None else (mask & this)
            indices = numpy.nonzero(mask)[0]  # type: ignore[union-attr]
            return self.take(indices)
        if len(checks) == 1:
            position, code = checks[0]
            column = columns[position]
            indices: Sequence[int] = [
                index for index, value in enumerate(column) if value == code
            ]
            return self.take(indices)
        indices = [
            index
            for index in range(self.store.length)
            if all(columns[position][index] == code for position, code in checks)
        ]
        return self.take(indices)

    def project(
        self,
        variables: Sequence[Variable],
        seen: Optional[Set[object]] = None,
    ) -> "EncodedRelation":
        """Project onto ``variables``, deduplicating by int keys.

        ``seen`` lets a stream carry the dedup set across batches of one
        logical projection (the head of
        :func:`repro.evaluation.join_plans.iter_plan_answers`); when omitted
        a fresh set is used.
        """
        schema = tuple(variables)
        positions = tuple(self.position(variable) for variable in schema)
        keys = self._key_column(positions)
        if seen is None and not self.store.use_numpy:
            # Fast path: dict.fromkeys deduplicates at C speed preserving
            # first-occurrence order, and the kept keys *are* the projected
            # rows — no index gather needed.
            kept = dict.fromkeys(keys)
            if len(positions) == 1:
                return self._derive(schema, [list(kept)], len(kept))
            columns = [list(column) for column in zip(*kept)] or [
                [] for _ in positions
            ]
            return self._derive(schema, columns, len(kept))
        if seen is None:
            seen = set()
        add = seen.add
        indices: List[int] = []
        append = indices.append
        for index, key in enumerate(keys):
            if key not in seen:
                add(key)
                append(index)
        use_numpy = self.store.use_numpy
        columns = [
            _take_column(self.store.columns[p], indices, use_numpy) for p in positions
        ]
        return self._derive(schema, columns, len(indices))

    def distinct_keys(self, positions: Tuple[int, ...]) -> Collection[object]:
        """The distinct join keys on ``positions``, as a collection that
        answers ``in`` at C speed.

        The buckets of the cached :meth:`key_index` when the store is
        long-lived or already has one; otherwise one ``dict.fromkeys`` pass
        over the key column, which builds no row lists: a one-shot store's
        keys are read once, so an index would be thrown away.
        """
        cached = self.store.caches.get(("index", positions))
        if cached is None and self.store.long_lived:
            cached = self.key_index(positions)
        if cached is not None:
            return cached.buckets  # type: ignore[attr-defined,no-any-return]
        return dict.fromkeys(self._key_column(positions))

    def semijoin_index(
        self, key_positions: Sequence[int], keys: Collection[object]
    ) -> "EncodedRelation":
        """Bulk membership: keep the rows whose key is in ``keys``.

        The scan kernel: one membership check per row of ``self``.
        Membership checks are uncounted (see :class:`IntIndex`).
        """
        key_positions = tuple(key_positions)
        if self.store.use_numpy and len(key_positions) == 1:
            numpy = _numpy_module()
            wanted = numpy.fromiter(keys, dtype=numpy.int64, count=len(keys))  # type: ignore[union-attr]
            column = self.store.columns[key_positions[0]]
            mask = numpy.isin(column, wanted)  # type: ignore[union-attr]
            return self.take(numpy.nonzero(mask)[0])  # type: ignore[union-attr]
        column = self._key_column(key_positions)
        return self.take([i for i, key in enumerate(column) if key in keys])

    def semijoin_probe(
        self, key_positions: Sequence[int], keys: Iterable[object]
    ) -> "EncodedRelation":
        """The probe kernel: the rows of :meth:`semijoin_index`, found by
        looking each of ``keys`` up in this store's cached
        :meth:`key_index` instead of scanning every row.

        ``O(keys + output)`` once the key index exists.  The gathered row
        indices are sorted, so the output is row for row the scan kernel's.
        Membership stays uncounted.
        """
        own = self.key_index(key_positions).buckets
        indices: List[int] = []
        extend = indices.extend
        for key in keys:
            bucket = own.get(key)
            if bucket is not None:
                extend(bucket)
        indices.sort()
        return self.take(indices)

    def semijoin(self, other: "EncodedRelation") -> "EncodedRelation":
        """``self ⋉ other`` by variable name (see :meth:`semijoin_on`)."""
        shared = tuple(v for v in self.schema if v in other._positions)
        return self.semijoin_on(
            tuple(self._positions[v] for v in shared),
            other,
            tuple(other._positions[v] for v in shared),
        )

    def semijoin_on(
        self,
        key_positions: Tuple[int, ...],
        other: "EncodedRelation",
        other_positions: Tuple[int, ...],
    ) -> "EncodedRelation":
        """``self ⋉ other`` on the given key columns of each side.

        Probes (:meth:`semijoin_probe`) when this store is long-lived and
        ``other``'s distinct keys, times :data:`SEMIJOIN_PROBE_FACTOR`, are
        at most this relation's row count (the gate for building the key
        index) and its distinct key count (read off that index: the output
        is then a small share of the rows).  Scans (:meth:`semijoin_index`)
        otherwise, so one-shot stores never pay for an index they would use
        once.  No shared key: the relation itself when ``other`` has a row.
        """
        if not key_positions:
            if other.is_empty():
                return EncodedRelation.empty(self.schema, self.encoder)
            return self.fresh_copy()
        keys = other.distinct_keys(other_positions)
        wanted = len(keys) * SEMIJOIN_PROBE_FACTOR
        if (
            self.store.long_lived
            and wanted <= self.store.length
            and wanted <= len(self.key_index(key_positions))
        ):
            return self.semijoin_probe(key_positions, keys)
        return self.semijoin_index(key_positions, keys)

    def join_index(
        self,
        key_positions: Sequence[int],
        other: "EncodedRelation",
        index: IntIndex,
        residual_positions: Sequence[int],
        schema: Sequence[Variable],
    ) -> "EncodedRelation":
        """Probe ``index`` with this relation's keys and gather matches.

        One probe per row of ``self``, counted once after the loop, then
        bulk column gathers for both sides — the loop hash-join kernel.
        """
        keys = self._key_column(tuple(key_positions))
        get = index.buckets.get
        left_indices: List[int] = []
        right_indices: List[int] = []
        left_extend = left_indices.extend
        right_extend = right_indices.extend
        for row_index, key in enumerate(keys):
            bucket = get(key)
            if bucket:
                left_extend([row_index] * len(bucket))
                right_extend(bucket)
        Partition.add_probes(len(keys))
        use_numpy = self.store.use_numpy
        columns = [
            _take_column(column, left_indices, use_numpy)
            for column in self.store.columns
        ]
        columns.extend(
            _take_column(other.store.columns[p], right_indices, use_numpy)
            for p in residual_positions
        )
        return self._derive(schema, columns, len(left_indices))

    def join(self, other: "EncodedRelation") -> "EncodedRelation":
        """Natural hash join by variable name."""
        shared = tuple(v for v in self.schema if v in other._positions)
        residual_positions = tuple(
            index
            for index, variable in enumerate(other.schema)
            if variable not in self._positions
        )
        schema = self.schema + tuple(
            other.schema[index] for index in residual_positions
        )
        if not shared:
            # Cross product: no index to probe (and no probes counted).
            left_indices = [
                i for i in range(self.store.length) for _ in range(other.store.length)
            ]
            right_indices = list(range(other.store.length)) * self.store.length
            use_numpy = self.store.use_numpy
            columns = [
                _take_column(column, left_indices, use_numpy)
                for column in self.store.columns
            ]
            columns.extend(
                _take_column(other.store.columns[p], right_indices, use_numpy)
                for p in residual_positions
            )
            return self._derive(schema, columns, len(left_indices))
        index = other.key_index(tuple(other.position(v) for v in shared))
        return self.join_index(
            tuple(self.position(v) for v in shared),
            other,
            index,
            residual_positions,
            schema,
        )

    def slice_rows(self, start: int, stop: int) -> "EncodedRelation":
        """Rows ``start`` to ``stop`` (column slices, O(1) per column for
        numpy views, one copy for ``array`` slices); the relation itself
        when the range covers it."""
        length = self.store.length
        stop = min(stop, length)
        if start == 0 and stop == length:
            return self
        columns = [column[start:stop] for column in self.store.columns]
        return self._derive(self.schema, columns, stop - start)

    # ------------------------------------------------------------------
    # The decode boundary
    # ------------------------------------------------------------------
    def _decoded_columns(
        self, positions: Sequence[int]
    ) -> List[List[Term]]:
        """Decode whole columns at once (one cached list per position).

        Column-wise decoding replaces the per-row ``tuple(terms[c] ...)``
        inner loop with one C-speed list comprehension per output column —
        the dominant cost at the decode boundary — and repeated positions
        (repeated head variables) are decoded once.

        On numpy storage each column is one gather from the encoder's cached
        term object array (:meth:`TermEncoder.term_array`), so the decode
        costs the answer, not the encoder.
        """
        terms = self.encoder.terms
        columns = self.store.columns
        terms_array = None
        if self.store.use_numpy and self.store.length:
            terms_array = self.encoder.term_array()
        cache: Dict[int, List[Term]] = {}
        decoded = []
        for position in positions:
            column_terms = cache.get(position)
            if column_terms is None:
                column = columns[position]
                if terms_array is not None:
                    # Fancy indexing on an object array decodes the whole
                    # column in one C call.
                    column_terms = terms_array[column].tolist()
                else:
                    column_terms = [terms[code] for code in column]
                cache[position] = column_terms
            decoded.append(column_terms)
        return decoded

    def decoded_rows(self) -> Iterator[Row]:
        if not self.schema:
            return iter([()] * self.store.length)
        return zip(*self._decoded_columns(range(len(self.schema))))

    def to_relation(self) -> Relation:
        """Decode into a tuple-engine :class:`Relation` (the output boundary),
        with the collector paused for a large decode."""
        return _collector_paused(
            self.store.length, lambda: Relation(self.schema, self.decoded_rows())
        )

    def answer_tuples(self, head: Sequence[Variable]) -> Set[Row]:
        """The decoded answer set over ``head`` (repeated variables allowed),
        built with the collector paused for a large decode."""
        positions = tuple(self.position(variable) for variable in head)
        if not positions:
            return {()} if self.store.length else set()
        return _collector_paused(
            self.store.length, lambda: set(zip(*self._decoded_columns(positions)))
        )
