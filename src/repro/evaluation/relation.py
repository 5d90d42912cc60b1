"""Term relations: the base scans of the scan cache, with cached partitions.

* a :class:`Relation` is an ordered variable schema plus a list of term
  tuples (one position per schema variable).  The scan cache
  (:class:`repro.evaluation.batch.ScanCache`) keeps one per predicate —
  the predicate's *base* relation, every position a distinct variable —
  and the cost model reads its statistics from it;
* :meth:`Relation.encoded` dictionary-encodes a relation into the column
  store the operators of :mod:`repro.evaluation.operators` run on, once
  per encoder; the scan cache serves every atom over the predicate from
  that store.  :meth:`Relation.answer_tuples` and :meth:`Relation.project`
  serve decoded outputs.

Rows are kept *set-free on purpose*: a base relation holds distinct facts,
so a list keeps iteration cheap and deterministic.  ``project`` is the one
operation that can merge rows and therefore deduplicates explicitly.

Partitions are first-class and reusable: :meth:`Relation.partition` builds
the hash partition of the rows by a tuple of variables *once* and caches it
on the relation (keyed by column positions).  The cost model's statistics
(distinct counts, bucket-size histograms) read these cached
:class:`Partition` objects, so queries sharing a scan cache pay each build
pass once.  The cache assumes the usual immutability discipline: ``rows``
is never mutated after the first partition is built.  The single
sanctioned exception is :meth:`Relation.apply_delta`, which the scan cache
uses to absorb database mutations *incrementally*: it edits ``rows`` in
place (a deleted row's slot is refilled from the tail), patches every
cached :class:`Partition` bucket-by-bucket, carries the encoded store and
its key indexes forward, and drops the derived statistics — so a base
relation stays correct across inserts and deletes without a rebuild.
"""

from __future__ import annotations

import threading
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from ..datamodel import Atom, Constant, Instance, Predicate, Term, Variable

if TYPE_CHECKING:  # the encoding module imports this one
    from .encoding import EncodedRelation, TermEncoder


#: One row of a relation: ground terms, positionally aligned with the schema.
Row = Tuple[Term, ...]


class ScanProvider(Protocol):
    """Anything that can serve base-atom scans and base relations.

    The canonical implementation is :class:`repro.evaluation.batch.ScanCache`,
    which serves every atom over a predicate from one cached base relation;
    ``repro.service.BoundScans`` wraps one to bind a request's anchors.
    """

    encoder: "TermEncoder"

    def scan(self, atom: Atom, database: Optional[Instance] = None) -> "EncodedRelation":
        ...

    def base_relation(self, predicate: Predicate) -> "Relation":
        ...


class ScanPattern:
    """The compiled selection/projection plan of one atom scan.

    Shared by the scan cache (:meth:`repro.evaluation.batch.ScanCache.scan`),
    the ``Scan`` operator's schema and the cost model, so atom-matching
    semantics live in exactly one place.  All positions index into the
    *fact* tuple.
    """

    __slots__ = ("variables", "output_positions", "constant_checks", "equality_checks")

    def __init__(
        self,
        variables: Tuple[object, ...],
        output_positions: Tuple[int, ...],
        constant_checks: Tuple[Tuple[int, Constant], ...],
        equality_checks: Tuple[Tuple[int, int], ...],
    ) -> None:
        self.variables = variables
        self.output_positions = output_positions
        self.constant_checks = constant_checks
        self.equality_checks = equality_checks


def compile_scan_pattern(slots: Sequence[object]) -> ScanPattern:
    """Compile the scan plan for one atom-shaped position sequence.

    Each slot is either a :class:`Constant` (a selection) or any other
    hashable value standing for a variable; equal non-constant slots induce
    repeated-variable equality checks, and the first occurrence of each
    distinct slot becomes an output column.  ``O(arity)``.
    """
    variables: List[object] = []
    first_position: Dict[object, int] = {}
    output_positions: List[int] = []
    constant_checks: List[Tuple[int, Constant]] = []
    equality_checks: List[Tuple[int, int]] = []
    for position, slot in enumerate(slots):
        if isinstance(slot, Constant):
            constant_checks.append((position, slot))
        elif slot in first_position:
            equality_checks.append((position, first_position[slot]))
        else:
            first_position[slot] = position
            output_positions.append(position)
            variables.append(slot)
    return ScanPattern(
        tuple(variables),
        tuple(output_positions),
        tuple(constant_checks),
        tuple(equality_checks),
    )


def swap_moves(gone: Sequence[int], cut: int) -> List[Tuple[int, int]]:
    """The row moves of a swap-on-delete: ``(hole, source)`` pairs.

    ``gone`` are the distinct ids of the rows being deleted from a sequence
    of ``cut + len(gone)`` rows.  Every deleted id below ``cut`` is a hole;
    every surviving id at or above ``cut`` is a source, moved into a hole
    so the survivors fill ``[0, cut)``.  Both sides are paired in ascending
    order, so the result does not depend on the order of ``gone``.
    ``O(len(gone) log len(gone))``.
    """
    vacated = set(gone)
    holes = sorted(row for row in vacated if row < cut)
    sources = [row for row in range(cut, cut + len(vacated)) if row not in vacated]
    return list(zip(holes, sources))


class SchemaError(ValueError):
    """Raised when an operator is applied to incompatible schemas."""


class Partition:
    """An immutable hash partition of a relation's rows by column positions.

    ``buckets`` maps each key (the tuple of the row's terms at ``positions``)
    to the list of full rows carrying that key.  Building a partition is one
    ``O(rows)`` pass; afterwards a semi-join membership probe is ``O(1)`` and
    a join probe is ``O(bucket)``.  Partitions are built by
    :meth:`Relation.partition` and cached there, so they must never be
    mutated after construction — except through the owning relation's
    :meth:`Relation.apply_delta`, which patches the buckets in place to keep
    cached partitions synchronised with database mutations: a deleted row
    leaves its bucket, an inserted row is appended to its bucket.  A row
    that the merge moves to another slot (swap-on-delete) keeps its place
    in its bucket, so after a merge bucket order need not follow row order.

    Bucket probes (:meth:`get` calls) are counted process-wide
    (``Partition.total_probes``).  The counter exists so the
    streaming-enumeration tests and ``benchmarks/bench_enumeration.py``
    can *prove* bounded work — e.g. that the first answer of
    :meth:`repro.evaluation.yannakakis.YannakakisEvaluator.iter_answers`
    costs O(join-tree) probes while the materialising phase 4 pays one probe
    per intermediate row — without resorting to wall-clock timing.
    Membership checks (``key in partition``, the semi-join path) are
    deliberately *not* counted: the counter isolates enumeration/join work
    from the reduction passes.

    The counter is updated under a lock (client threads sharing a cache or
    a service probe from several threads at once; an unguarded ``+= 1``
    loses updates).
    Partitions are shared across runs, so they count nothing per instance:
    each operator records its own probes in its run's record (see
    :class:`repro.evaluation.operators.NodeRun`).
    """

    __slots__ = ("positions", "buckets")

    #: Process-wide count of :meth:`get` probes across all partitions.
    total_probes: int = 0

    #: Guards every ``total_probes`` update (per-probe and bulk aggregation).
    _probe_lock = threading.Lock()

    @classmethod
    def add_probes(cls, count: int) -> None:
        """Add ``count`` probes to the counter, exactly.

        The probe paths add one each; the vectorised join kernel
        (:mod:`repro.evaluation.parallel`) adds one aggregate per operator,
        so the bounded-work assertions see the same totals either way.
        """
        with cls._probe_lock:
            cls.total_probes += count

    def __init__(self, positions: Tuple[int, ...], rows: Iterable[Row]) -> None:
        self.positions = positions
        buckets: Dict[Row, List[Row]] = {}
        for row in rows:
            buckets.setdefault(tuple(row[p] for p in positions), []).append(row)
        self.buckets = buckets

    def __contains__(self, key: object) -> bool:
        return key in self.buckets

    def get(self, key: Row) -> Sequence[Row]:
        """The rows carrying ``key`` (empty when none do)."""
        Partition.add_probes(1)
        return self.buckets.get(key, ())

    def __len__(self) -> int:
        return len(self.buckets)

    def histogram(self) -> Dict[int, int]:
        """The bucket-size histogram: ``{bucket size: number of keys}``.

        The histogram summarises the value distribution of the partition's
        key columns — ``len(partition)`` distinct keys, skew visible as
        large bucket sizes — and feeds the cost model of
        :mod:`repro.evaluation.operators` (expected rows per probed key,
        join-output estimates).  ``O(keys)``; not cached (callers cache the
        partition itself).
        """
        histogram: Dict[int, int] = {}
        for rows in self.buckets.values():
            histogram[len(rows)] = histogram.get(len(rows), 0) + 1
        return histogram


class Relation:
    """An ordered variable schema together with a list of term tuples.

    The schema is a tuple of *distinct* variables; every row has exactly one
    term per schema position.  Equality aligns the operands by variable
    name, never by position.
    """

    __slots__ = ("schema", "rows", "_positions", "_partitions", "_stats")

    def __init__(self, schema: Sequence[Variable], rows: Iterable[Row] = ()) -> None:
        self.schema: Tuple[Variable, ...] = tuple(schema)
        if len(set(self.schema)) != len(self.schema):
            raise SchemaError(f"duplicate variable in schema {self.schema}")
        self.rows: List[Row] = list(rows)
        self._positions: Dict[Variable, int] = {
            variable: index for index, variable in enumerate(self.schema)
        }
        self._partitions: Dict[Tuple[int, ...], Partition] = {}
        # Cached, position-keyed statistics (column distinct counts, the
        # epoch stamp, the encoded store) — like partitions, they depend on
        # column positions only, never on names.
        self._stats: Dict[object, object] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def unit(cls) -> "Relation":
        """The nullary relation with one empty row (join identity)."""
        return cls((), [()])

    @classmethod
    def empty(cls, schema: Sequence[Variable] = ()) -> "Relation":
        """The relation over ``schema`` with no rows."""
        return cls(schema, [])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def is_empty(self) -> bool:
        return not self.rows

    def variables(self) -> Set[Variable]:
        return set(self.schema)

    def position(self, variable: Variable) -> int:
        """Return the column index of ``variable``.

        Raises:
            SchemaError: if the variable is not part of the schema.
        """
        try:
            return self._positions[variable]
        except KeyError:
            raise SchemaError(f"{variable} is not in schema {self.schema}") from None

    def __str__(self) -> str:
        header = ", ".join(str(v) for v in self.schema)
        return f"Relation[{header}]({len(self.rows)} rows)"

    def __repr__(self) -> str:
        return f"Relation(schema={self.schema!r}, rows={len(self.rows)})"

    def __eq__(self, other: object) -> bool:
        """Schema-aware set equality (row order and column order ignored)."""
        if not isinstance(other, Relation):
            return NotImplemented
        if set(self.schema) != set(other.schema):
            return False
        reordered = other.project(self.schema)
        return set(self.rows) == set(reordered.rows)

    __hash__ = None  # type: ignore[assignment]  # mutable rows

    # ------------------------------------------------------------------
    # Hash partitions
    # ------------------------------------------------------------------
    def partition(self, variables: Sequence[Variable]) -> Partition:
        """The hash partition of the rows by ``variables`` (built once).

        Partitions are cached per column-position tuple, so repeated
        probes of this relation on the same columns reuse one ``O(rows)``
        build pass.
        """
        positions = tuple(self.position(variable) for variable in variables)
        part = self._partitions.get(positions)
        if part is None:
            part = Partition(positions, self.rows)
            self._partitions[positions] = part
        return part

    # ------------------------------------------------------------------
    # Incremental maintenance (the scan cache's delta-merge path)
    # ------------------------------------------------------------------
    def stamp_epoch(self, epoch: int) -> None:
        """Record the database mutation epoch this relation reflects.

        Stored in ``_stats`` beside the positional statistics.  The cached
        encoded store carries the stamp too, and so does every scan the
        scan cache serves from that store.
        """
        self._stats["epoch"] = epoch
        encoded = self._stats.get("encoded")
        if encoded is not None:
            encoded[1].epoch = epoch  # type: ignore[index]

    def stamped_epoch(self) -> Optional[int]:
        """The stamped mutation epoch, or ``None`` if never stamped."""
        epoch = self._stats.get("epoch")
        return epoch if isinstance(epoch, int) else None

    def apply_delta(self, inserted: Iterable[Row], deleted: Iterable[Row]) -> None:
        """Absorb row insertions and deletions *in place* (delta merge).

        This is the one sanctioned mutation of a relation's row storage: the
        scan cache calls it to bring a base relation up to date with
        database mutations without rebuilding.  Rows are edited in place:

        * a deleted row's slot is filled by moving a surviving row from the
          tail into it (swap-on-delete, :func:`swap_moves`), so only
          ``O(delta)`` rows change position; inserted rows are appended;
        * every cached :class:`Partition` is patched bucket by bucket;
        * the derived statistics (distinct counts, pair sketches) are
          dropped for lazy recomputation on next use;
        * the encoded column store is carried forward: a **new** store
          (:meth:`EncodedRelation.merge_store`) applies the same moves to
          copies of the old columns, appends the encoded inserted rows and
          patches every cached key index, so store row order stays
          :attr:`rows` order.  The old store is left untouched for readers
          still holding it.

        Deleted rows are located through the store's key index when one is
        cached (``O(bucket)`` each), otherwise by one pass over the rows.
        Callers guarantee ``inserted`` rows are not already present and
        ``deleted`` rows are (the scan cache's journal replay normalises
        deltas to this form).
        """
        inserted = list(inserted)
        dead = set(deleted)
        if not inserted and not dead:
            return
        rows = self.rows
        encoded = self._stats.get("encoded")
        gone: List[int] = []
        moves: List[Tuple[int, int]] = []
        if dead:
            gone = self._locate(dead, encoded)
            cut = len(rows) - len(gone)
            moves = swap_moves(gone, cut)
            for hole, source in moves:
                rows[hole] = rows[source]
            del rows[cut:]
        rows.extend(inserted)
        for partition in self._partitions.values():
            positions = partition.positions
            buckets = partition.buckets
            for row in dead:
                key = tuple(row[p] for p in positions)
                bucket = buckets.get(key)
                if bucket is None:
                    continue
                try:
                    bucket.remove(row)
                except ValueError:
                    continue
                if not bucket:
                    del buckets[key]
            for row in inserted:
                key = tuple(row[p] for p in positions)
                buckets.setdefault(key, []).append(row)
        epoch = self._stats.get("epoch")
        self._stats.clear()
        if epoch is not None:
            self._stats["epoch"] = epoch
        if encoded is not None:
            from .encoding import EncodedRelation  # local: avoid an import cycle

            encoder, store = encoded  # type: ignore[misc]
            self._stats["encoded"] = (
                encoder,
                EncodedRelation.merge_store(store, encoder, inserted, gone, moves),
            )

    def _locate(self, dead: Set[Row], encoded: object) -> List[int]:
        """The row ids of the ``dead`` rows that are present."""
        if encoded is not None:
            from .encoding import EncodedRelation  # local: avoid an import cycle

            encoder, store = encoded  # type: ignore[misc]
            found = EncodedRelation.locate_rows(store, encoder, self.rows, dead)
            if found is not None:
                return found
        return [index for index, row in enumerate(self.rows) if row in dead]

    # ------------------------------------------------------------------
    # Cached statistics (the substrate of the operator-IR cost model)
    # ------------------------------------------------------------------
    def column_distinct_counts(self) -> Tuple[int, ...]:
        """Per-column distinct term counts, computed once and cached.

        One ``O(rows · arity)`` pass.  Like the partition cache, the statistics assume the rows are never
        mutated after the first call.
        """
        cached = self._stats.get("column_distincts")
        if cached is None:
            seen: List[Set[Term]] = [set() for _ in self.schema]
            for row in self.rows:
                for column, term in zip(seen, row):
                    column.add(term)
            cached = tuple(len(column) for column in seen)
            self._stats["column_distincts"] = cached
        return cached  # type: ignore[return-value]

    def distinct_count(self, variable: Variable) -> int:
        """The number of distinct terms in ``variable``'s column."""
        return self.column_distinct_counts()[self.position(variable)]

    def key_distinct_count(self, variables: Sequence[Variable]) -> int:
        """The number of distinct value *tuples* over ``variables``.

        Served by the cached partition on those columns, so the count is
        free whenever a semi-join/join already partitioned the relation the
        same way (and conversely: a count requested by the planner warms the
        partition the executor will probe).
        """
        if not variables:
            return 1 if self.rows else 0
        return len(self.partition(variables))

    def bucket_histogram(self, variables: Sequence[Variable]) -> Dict[int, int]:
        """Bucket-size histogram of the partition by ``variables``.

        See :meth:`Partition.histogram`; the partition itself is cached.
        """
        return self.partition(variables).histogram()

    #: Row cap for the sampled key-pair sketch: above this many rows the
    #: sketch reads an evenly strided sample and scales the observed pair
    #: count up by the sampling ratio.
    PAIR_SKETCH_SAMPLE = 4096

    def key_pair_distinct_counts(self) -> Dict[Tuple[int, int], float]:
        """Sampled distinct counts of column-*pair* value combinations.

        For every position pair ``(i, j)`` with ``i < j``, an estimate of the
        number of distinct ``(row[i], row[j])`` combinations.  Together with
        :meth:`column_distinct_counts` this is what lets the cost model see
        *correlated* join keys: on a column pair where ``j`` is functionally
        determined by ``i`` the pair count equals the ``i`` count, while the
        independence assumption would multiply the two.

        Relations up to :data:`PAIR_SKETCH_SAMPLE` rows are counted exactly;
        larger ones are sketched from an evenly strided sample and the
        observed count is scaled by the sampling ratio (then clamped between
        the single-column counts and the row count, the information-theoretic
        bounds).  Cached positionally in ``_stats`` like
        :meth:`column_distinct_counts`.
        """
        cached = self._stats.get("pair_distincts")
        if cached is None:
            arity = len(self.schema)
            pairs: Dict[Tuple[int, int], float] = {}
            if arity >= 2 and self.rows:
                total = len(self.rows)
                stride = max(1, total // self.PAIR_SKETCH_SAMPLE)
                sample = self.rows[::stride]
                seen: Dict[Tuple[int, int], Set[Tuple[Term, Term]]] = {
                    (i, j): set()
                    for i in range(arity)
                    for j in range(i + 1, arity)
                }
                for row in sample:
                    for (i, j), combos in seen.items():
                        combos.add((row[i], row[j]))
                scale = total / len(sample)
                columns = self.column_distinct_counts()
                for (i, j), combos in seen.items():
                    estimate = len(combos) * scale
                    floor = float(max(columns[i], columns[j]))
                    pairs[(i, j)] = min(float(total), max(floor, estimate))
            cached = pairs
            self._stats["pair_distincts"] = cached
        return cached  # type: ignore[return-value]

    def pair_distinct_count(self, left: Variable, right: Variable) -> float:
        """The sketched distinct count of the ``(left, right)`` value pairs."""
        i, j = self.position(left), self.position(right)
        if i == j:
            return float(self.distinct_count(left))
        key = (i, j) if i < j else (j, i)
        counts = self.key_pair_distinct_counts()
        if key not in counts:  # empty relation / unary schema
            return float(self.key_distinct_count((left, right)))
        return counts[key]

    def encoded(self, encoder: "TermEncoder") -> "EncodedRelation":  # noqa: F821
        """This relation dictionary-encoded under ``encoder``, built once.

        The encoded column store is cached in ``_stats`` (keyed by encoder
        identity, single slot), so — exactly like partitions and distinct
        counts — it is carried forward by :meth:`apply_delta` and rebuilt
        only on fresh row storage or a different encoder.  Being cached, the store is
        marked ``long_lived`` (it may earn a semi-join key index).  The
        returned :class:`~repro.evaluation.encoding.EncodedRelation` is a
        cheap schema view over the cached store.
        """
        from .encoding import EncodedRelation  # local: avoid an import cycle

        cached = self._stats.get("encoded")
        if cached is None or cached[0] is not encoder:  # type: ignore[index]
            store = EncodedRelation.build_store(self.rows, len(self.schema), encoder)
            store.long_lived = True
            store.epoch = self.stamped_epoch()
            cached = (encoder, store)
            self._stats["encoded"] = cached
        return EncodedRelation(self.schema, cached[1], encoder)  # type: ignore[index]

    def project(self, variables: Sequence[Variable]) -> "Relation":
        """Project onto ``variables`` (deduplicating, order preserved).

        ``variables`` must be distinct and part of the schema.
        """
        positions = tuple(self.position(variable) for variable in variables)
        seen: Set[Row] = set()
        rows: List[Row] = []
        for row in self.rows:
            projected = tuple(row[p] for p in positions)
            if projected not in seen:
                seen.add(projected)
                rows.append(projected)
        return Relation(tuple(variables), rows)

    # ------------------------------------------------------------------
    # Answers
    # ------------------------------------------------------------------
    def answer_tuples(self, head: Sequence[Variable]) -> Set[Tuple[Term, ...]]:
        """The answer set over ``head`` (repeated head variables allowed)."""
        positions = tuple(self.position(variable) for variable in head)
        return {tuple(row[p] for p in positions) for row in self.rows}
