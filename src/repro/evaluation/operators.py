"""The physical-operator IR shared by every set-at-a-time engine.

The evaluators in this package used to be three bespoke code paths —
Yannakakis' four phases, the greedy join-plan executor and their streaming
variants — each re-implementing scans, semi-joins, joins and projection on
top of :class:`~repro.evaluation.relation.Relation`.  Durand–Grandjean's
complexity analysis of acyclic CQ evaluation and Brault-Baron's acyclicity
hierarchy both phrase evaluation as a small algebra of bounded-work
operators; this module reifies that algebra so the engines can share one
execution substrate, one accounting scheme and one cost model:

* an :class:`Operator` is a node of a physical plan (a DAG — reduction
  plans share sub-operators between the semi-join passes).  Every operator
  supports **both** execution faces:

  - :meth:`Operator.materialize` — produce the full output
    :class:`Relation` (memoised per run, so DAG-shared work is paid once);
  - :meth:`Operator.iter_rows` — *stream* the output rows.  Pipelining
    operators (:class:`HashJoin`, :class:`SemiJoin`, :class:`Project`,
    :class:`Select`, :class:`Distinct`) stream their left/only input and
    never materialise their own output; :class:`CursorEnumerate` streams a
    whole join tree through nested memoised cursors.

* a plan is a **value**: operators hold only their schema, children and
  compile-time fields, so one compiled plan serves any number of runs,
  concurrently too.  Everything a run produces lives in its
  :class:`ExecutionContext` — the *run map*, one :class:`NodeRun` per
  executed node holding the memoised results, the **observed** cardinality
  (``rows``), the bucket-probe count (``probes``) where the node probes
  hash partitions, and the face it ran on — the raw material of
  ``EXPLAIN`` output and of the bounded-work tests;

* :class:`Statistics` + :class:`CostModel` supply the **estimated**
  cardinalities (:meth:`CostModel.row_estimates`) from cached per-column
  distinct counts and bucket-size histograms
  (:meth:`Relation.column_distinct_counts`,
  :meth:`Relation.bucket_histogram`) with the textbook selection/join
  selectivities;

* :func:`render_plan` pretty-prints a plan with estimated vs. observed
  cardinalities per operator, read from a cost model's estimates and a
  run map — the body of the public ``explain`` API in
  :mod:`repro.evaluation.semacyclic_eval`.

Compilation happens in the engines: ``yannakakis.py`` emits a
semi-join-reducer DAG topped by either a hash-join/projection tree
(materialising phase 4) or a :class:`CursorEnumerate` (streaming phase 4),
and ``join_plans.py`` emits left-deep :class:`HashJoin` chains whose
streaming face pipelines the whole prefix.
"""

from __future__ import annotations

import os
import warnings
from collections import defaultdict
from typing import (
    DefaultDict,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..datamodel import Atom, Instance, Predicate, Term, Variable
from ..hypergraph import JoinTree
from .encoding import EncodedRelation, IntRow, TermEncoder, resolve_backend
from .parallel import (
    parallel_join,
    parallel_project,
    parallel_select,  # noqa: F401  (unused; the layer trace wraps it here)
    parallel_semijoin,
)
from .relation import (
    Relation,
    Row,
    ScanProvider,
    SchemaError,
    compile_scan_pattern,
)

#: Environment variable overriding :data:`BATCH_ROWS` (the batch size).
BATCH_ROWS_ENV = "REPRO_BATCH_ROWS"

#: The default batch-face row budget when ``REPRO_BATCH_ROWS`` is unset.
DEFAULT_BATCH_ROWS = 1024


def _resolve_batch_rows() -> int:
    """Resolve ``REPRO_BATCH_ROWS`` to a positive int, warning on junk.

    Unlike ``REPRO_BACKEND`` (which raises on typos), a
    bad batch size degrades gracefully: batch execution is correct at any
    size, so a non-positive or non-numeric value warns and falls back to
    :data:`DEFAULT_BATCH_ROWS` rather than making every entry point
    unusable.  Read once at import time — the batch tests monkeypatch the
    module constant, not the environment.
    """
    raw = os.environ.get(BATCH_ROWS_ENV, "").strip()
    if not raw:
        return DEFAULT_BATCH_ROWS
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        warnings.warn(
            f"ignoring {BATCH_ROWS_ENV}={raw!r}: expected a positive integer,"
            f" using the default of {DEFAULT_BATCH_ROWS}",
            RuntimeWarning,
            stacklevel=2,
        )
        return DEFAULT_BATCH_ROWS
    return value


#: Row budget of one batch on the batch face (:meth:`Operator.iter_batches`).
#: Large enough to amortise per-batch dispatch, small enough that ``limit=``
#: consumers stop a pipelined chain after O(batch) extra work.  Tunable per
#: machine through ``REPRO_BATCH_ROWS`` (positive int; junk warns and keeps
#: the default).
BATCH_ROWS = _resolve_batch_rows()


def first_occurrence_schema(variables: Sequence[Variable]) -> Tuple[Variable, ...]:
    """The distinct variables of a (possibly repeating) head, in first-
    occurrence order — the schema a head projection operator carries.
    Repeated head variables are re-introduced outside the IR by the
    engines' answer adapters."""
    schema: List[Variable] = []
    for variable in variables:
        if variable not in schema:
            schema.append(variable)
    return tuple(schema)


class NodeRun:
    """What one run observed at one plan node.

    ``result``/``encoded`` memoise the node's tuple and encoded outputs,
    ``rows`` is the observed cardinality (rows pulled, on a streaming
    face), ``probes`` the bucket probes the node issued (``None`` when it
    probed nothing) and ``face`` is ``"batch"`` once the columnar face ran
    the node.
    """

    __slots__ = ("result", "encoded", "rows", "probes", "face")

    def __init__(self) -> None:
        self.result: Optional[Relation] = None
        self.encoded: Optional[EncodedRelation] = None
        self.rows: Optional[int] = None
        self.probes: Optional[int] = None
        self.face: Optional[str] = None


class ExecutionContext:
    """One run of a plan: what it runs against and what it observed.

    ``scans`` is threaded into every :class:`Scan` exactly like the
    ``scans=`` parameter of the evaluator entry points (the canonical
    provider is :class:`repro.evaluation.batch.ScanCache`).

    ``backend`` selects the execution face the engines route through
    (``"tuple"`` or ``"columnar"``, resolved per
    :func:`repro.evaluation.encoding.resolve_backend`), and ``encoder`` is
    the dictionary encoder the batch face encodes under.  When the scan
    provider owns an encoder (``ScanCache.encoder``) it is reused, so
    encodings — like scans and partitions — amortise across every
    evaluation sharing the cache.

    ``run`` is the run map: one :class:`NodeRun` per executed node, keyed
    by the node itself and created on first use.  It is the only place
    execution writes to, so runs of one shared plan never see each other's
    state.
    """

    __slots__ = ("database", "scans", "backend", "encoder", "run")

    def __init__(
        self,
        database: Instance,
        scans: Optional[ScanProvider] = None,
        *,
        backend: Optional[str] = None,
        encoder: Optional[TermEncoder] = None,
    ) -> None:
        self.database = database
        self.scans = scans
        self.backend = resolve_backend(backend)
        if encoder is None:
            encoder = getattr(scans, "encoder", None)
            if encoder is None:
                encoder = TermEncoder()
        self.encoder = encoder
        self.run: DefaultDict["Operator", NodeRun] = defaultdict(NodeRun)


# ----------------------------------------------------------------------
# Operator base
# ----------------------------------------------------------------------
class Operator:
    """One node of a physical plan — an immutable value.

    Subclasses fix the static output ``schema`` at construction time (no
    database access) and implement ``_materialize``; streaming operators
    additionally override :meth:`iter_rows`.  Nodes hold no run state:
    every face writes what it computes and observes into the context's
    :class:`NodeRun` for the node, so one compiled plan can run against
    any number of contexts.
    """

    __slots__ = ("schema", "children")

    def __init__(
        self, schema: Tuple[Variable, ...], children: Tuple["Operator", ...]
    ) -> None:
        self.schema = schema
        self.children = children

    # -- execution ------------------------------------------------------
    def materialize(self, context: ExecutionContext) -> Relation:
        """The full output relation (computed once per run)."""
        record = context.run[self]
        if record.result is None:
            record.result = self._materialize(context)
            record.rows = len(record.result)
        return record.result

    def _materialize(self, context: ExecutionContext) -> Relation:
        raise NotImplementedError

    def iter_rows(self, context: ExecutionContext) -> Iterator[Row]:
        """Stream the output rows.

        The base implementation materialises and iterates; pipelining
        subclasses override it to stream without materialising their own
        output (their recorded ``rows`` then counts the rows actually
        pulled).
        """
        yield from self.materialize(context).rows

    def materialize_encoded(self, context: ExecutionContext) -> EncodedRelation:
        """The full output as a dictionary-encoded column store (per run).

        The batch-face analogue of :meth:`materialize`: computed once per
        node and run, so DAG-shared sub-operators pay once.  The base
        implementation encodes the tuple materialisation — the encode
        boundary of :class:`Scan` and of any operator without a native
        columnar kernel; the vectorized operators override
        :meth:`_materialize_encoded` instead and never touch term tuples.
        """
        record = context.run[self]
        if record.encoded is None:
            record.encoded = self._materialize_encoded(context)
            record.rows = len(record.encoded)
            record.face = "batch"
        return record.encoded

    def _materialize_encoded(self, context: ExecutionContext) -> EncodedRelation:
        return self.materialize(context).encoded(context.encoder)

    def iter_batches(self, context: ExecutionContext) -> Iterator[EncodedRelation]:
        """Stream the output as encoded column batches (the third face).

        Batches are small :class:`EncodedRelation` slices of at most
        ``BATCH_ROWS`` rows.  Pipelining operators override this to stream
        their left/only input batch-at-a-time; the base implementation
        chunks the encoded materialisation.  Decoding happens only at the
        consumer (the engines' answer adapters).
        """
        encoded = self.materialize_encoded(context)
        if len(encoded):
            yield from encoded.chunks(BATCH_ROWS)

    def _stream_record(
        self, context: ExecutionContext, face: Optional[str] = None
    ) -> NodeRun:
        """The record a streaming face counts into, its ``rows`` reset."""
        record = context.run[self]
        record.rows = 0
        if face is not None:
            record.face = face
        return record

    # -- traversal ------------------------------------------------------
    def walk(self) -> Iterator["Operator"]:
        """Yield this operator and every distinct descendant exactly once.

        DAG-safe (shared sub-operators appear once) and — unlike a naive
        recursion — terminating even on malformed cyclic graphs, which is
        what lets the static verifier (:mod:`repro.analysis.verify_plan`)
        and ad-hoc plan inspection share one traversal.
        """
        seen: Set[int] = set()
        stack: List["Operator"] = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            yield node
            stack.extend(node.children)

    # -- presentation ---------------------------------------------------
    def label(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.label()


def _shared_schema(
    left: Operator, right: Operator
) -> Tuple[Tuple[Variable, ...], Tuple[int, ...], Tuple[int, ...]]:
    """(shared variables in left order, left key positions, right residual)."""
    right_positions = {variable: i for i, variable in enumerate(right.schema)}
    shared = tuple(v for v in left.schema if v in right_positions)
    left_key = tuple(left.schema.index(v) for v in shared)
    residual = tuple(
        i for i, variable in enumerate(right.schema) if variable not in set(left.schema)
    )
    return shared, left_key, residual


# ----------------------------------------------------------------------
# Leaf and unary operators
# ----------------------------------------------------------------------
class Scan(Operator):
    """Materialise the matches of one query atom (constants and repeated
    variables applied as selections during the single pass).

    Delegates to :meth:`Relation.from_atom`, so the context's scan provider
    (e.g. a shared :class:`~repro.evaluation.batch.ScanCache`) serves the
    relation when one is injected.
    """

    __slots__ = ("atom",)

    def __init__(self, atom: Atom) -> None:
        pattern = compile_scan_pattern(atom.terms)
        super().__init__(tuple(pattern.variables), ())  # type: ignore[arg-type]
        self.atom = atom

    def _materialize(self, context: ExecutionContext) -> Relation:
        return Relation.from_atom(self.atom, context.database, context.scans)

    def label(self) -> str:
        return f"Scan[{self.atom}]"


class Select(Operator):
    """Keep the rows agreeing with a partial assignment (binding-seeded
    evaluation; variables outside the child schema are ignored)."""

    __slots__ = ("binding", "_checks")

    def __init__(self, child: Operator, binding: Mapping[Variable, Term]) -> None:
        super().__init__(child.schema, (child,))
        self.binding = dict(binding)
        self._checks = tuple(
            (child.schema.index(variable), term)
            for variable, term in self.binding.items()
            if variable in child.schema
        )

    def _materialize(self, context: ExecutionContext) -> Relation:
        return self.children[0].materialize(context).select(self.binding)

    def iter_rows(self, context: ExecutionContext) -> Iterator[Row]:
        record = self._stream_record(context)
        checks = self._checks
        for row in self.children[0].iter_rows(context):
            if all(row[position] == term for position, term in checks):
                record.rows += 1
                yield row

    def _encoded_checks(self, context: ExecutionContext) -> Tuple[Tuple[int, int], ...]:
        encode = context.encoder.encode
        return tuple((position, encode(term)) for position, term in self._checks)

    def _materialize_encoded(self, context: ExecutionContext) -> EncodedRelation:
        child = self.children[0].materialize_encoded(context)
        return child.select_codes(self._encoded_checks(context))

    def iter_batches(self, context: ExecutionContext) -> Iterator[EncodedRelation]:
        record = self._stream_record(context, "batch")
        checks = self._encoded_checks(context)
        for batch in self.children[0].iter_batches(context):
            out = batch.select_codes(checks)
            if len(out):
                record.rows += len(out)
                yield out

    def label(self) -> str:
        conditions = ", ".join(
            f"{variable}={term}" for variable, term in sorted(self.binding.items(), key=str)
        )
        return f"Select[{conditions}]"


class Project(Operator):
    """Project onto distinct variables, deduplicating (both faces)."""

    __slots__ = ("_positions",)

    def __init__(self, child: Operator, variables: Sequence[Variable]) -> None:
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise SchemaError(f"duplicate variable in projection {variables}")
        super().__init__(variables, (child,))
        self._positions = tuple(child.schema.index(v) for v in variables)

    def _materialize(self, context: ExecutionContext) -> Relation:
        return self.children[0].materialize(context).project(self.schema)

    def iter_rows(self, context: ExecutionContext) -> Iterator[Row]:
        record = self._stream_record(context)
        positions = self._positions
        seen: Set[Row] = set()
        for row in self.children[0].iter_rows(context):
            projected = tuple(row[p] for p in positions)
            if projected not in seen:
                seen.add(projected)
                record.rows += 1
                yield projected

    def _materialize_encoded(self, context: ExecutionContext) -> EncodedRelation:
        child = self.children[0].materialize_encoded(context)
        result = parallel_project(child, self.schema, self._positions)
        return child.project(self.schema) if result is None else result

    def iter_batches(self, context: ExecutionContext) -> Iterator[EncodedRelation]:
        record = self._stream_record(context, "batch")
        seen: Set[object] = set()  # int keys, carried across batches
        for batch in self.children[0].iter_batches(context):
            out = batch.project(self.schema, seen)
            if len(out):
                record.rows += len(out)
                yield out

    def label(self) -> str:
        return f"Project[{', '.join(str(v) for v in self.schema)}]"


class Distinct(Operator):
    """Remove duplicate rows (a no-op after operators that already
    guarantee distinctness; kept explicit for plans built from raw
    streams)."""

    __slots__ = ()

    def __init__(self, child: Operator) -> None:
        super().__init__(child.schema, (child,))

    def _materialize(self, context: ExecutionContext) -> Relation:
        return self.children[0].materialize(context).distinct()

    def iter_rows(self, context: ExecutionContext) -> Iterator[Row]:
        record = self._stream_record(context)
        seen: Set[Row] = set()
        for row in self.children[0].iter_rows(context):
            if row not in seen:
                seen.add(row)
                record.rows += 1
                yield row

    def _materialize_encoded(self, context: ExecutionContext) -> EncodedRelation:
        child = self.children[0].materialize_encoded(context)
        result = parallel_project(child, self.schema, tuple(range(len(self.schema))))
        return child.distinct() if result is None else result

    def iter_batches(self, context: ExecutionContext) -> Iterator[EncodedRelation]:
        record = self._stream_record(context, "batch")
        seen: Set[object] = set()
        for batch in self.children[0].iter_batches(context):
            out = batch.distinct(seen)
            if len(out):
                record.rows += len(out)
                yield out

    def label(self) -> str:
        return "Distinct"


# ----------------------------------------------------------------------
# Binary operators
# ----------------------------------------------------------------------
class SemiJoin(Operator):
    """``left ⋉ right``: keep the left rows with a join partner in right.

    Materialising face: :meth:`Relation.semijoin` (hash partition of the
    right side, one filtering pass over the left — membership checks are
    deliberately not probe-counted, matching the reduction-pass accounting
    of the bounded-work tests).  Streaming face: the left input streams,
    the right side is materialised into its cached partition.

    Batch face: the vectorised kernel on numpy storage, else
    :meth:`EncodedRelation.semijoin`, which probes the left store's cached
    key index with each right key when the left store is long-lived (a
    cached scan) and the right side has few keys — a point query then
    costs its answer, not the left relation — and scans the left rows
    otherwise.  ``iter_batches`` always scans: its chunks are one-shot.
    """

    __slots__ = ("_shared", "_left_key")

    def __init__(self, left: Operator, right: Operator) -> None:
        super().__init__(left.schema, (left, right))
        self._shared, self._left_key, _ = _shared_schema(left, right)

    def _materialize(self, context: ExecutionContext) -> Relation:
        left = self.children[0].materialize(context)
        if left.is_empty():
            return Relation(self.schema, [])
        return left.semijoin(self.children[1].materialize(context))

    def iter_rows(self, context: ExecutionContext) -> Iterator[Row]:
        record = self._stream_record(context)
        right = self.children[1].materialize(context)
        if right.is_empty():
            return
        if not self._shared:
            for row in self.children[0].iter_rows(context):
                record.rows += 1
                yield row
            return
        partition = right.partition(self._shared)
        left_key = self._left_key
        for row in self.children[0].iter_rows(context):
            if tuple(row[p] for p in left_key) in partition:
                record.rows += 1
                yield row

    def _materialize_encoded(self, context: ExecutionContext) -> EncodedRelation:
        left = self.children[0].materialize_encoded(context)
        if left.is_empty():
            return EncodedRelation.empty(self.schema, context.encoder)
        right = self.children[1].materialize_encoded(context)
        result = parallel_semijoin(
            left,
            right,
            self._left_key,
            tuple(right.position(v) for v in self._shared),
        )
        return left.semijoin(right) if result is None else result

    def iter_batches(self, context: ExecutionContext) -> Iterator[EncodedRelation]:
        record = self._stream_record(context, "batch")
        right = self.children[1].materialize_encoded(context)
        if right.is_empty():
            return
        if not self._shared:
            for batch in self.children[0].iter_batches(context):
                record.rows += len(batch)
                yield batch
            return
        # One shared int index over the right side; each left batch is a
        # bulk bucket intersection (membership only — never probe-counted,
        # matching the tuple semi-join accounting).
        index = right.key_index(tuple(right.position(v) for v in self._shared))
        left_key = self._left_key
        for batch in self.children[0].iter_batches(context):
            out = batch.semijoin_index(left_key, index)
            if len(out):
                record.rows += len(out)
                yield out

    def label(self) -> str:
        return f"SemiJoin[{', '.join(str(v) for v in self._shared)}]"


class HashJoin(Operator):
    """Natural hash join — ``left ⋈ right`` (cross product when no variable
    is shared).

    Materialising face: :meth:`Relation.join` (linear in the operands plus
    the output).  Streaming face: the left input streams and each row
    probes the right side's cached partition, so a left-deep chain of
    streaming hash joins pipelines end to end — nothing but the base scans
    is ever materialised, and ``limit``-style consumers stop the whole
    chain early.  Either way the run record counts one bucket probe per
    left row on a shared key.
    """

    __slots__ = ("_shared", "_left_key", "_right_residual")

    def __init__(self, left: Operator, right: Operator) -> None:
        shared, left_key, residual = _shared_schema(left, right)
        schema = left.schema + tuple(right.schema[i] for i in residual)
        super().__init__(schema, (left, right))
        self._shared = shared
        self._left_key = left_key
        self._right_residual = residual

    def _record_probes(self, record: NodeRun, left_rows: int) -> None:
        """Every kernel probes the build side once per left row on a shared
        key and never on a cross product, so the count is known up front."""
        record.probes = (record.probes or 0) + (left_rows if self._shared else 0)

    def _materialize(self, context: ExecutionContext) -> Relation:
        left = self.children[0].materialize(context)
        if left.is_empty():
            return Relation(self.schema, [])
        right = self.children[1].materialize(context)
        self._record_probes(context.run[self], len(left))
        return left.join(right)

    def iter_rows(self, context: ExecutionContext) -> Iterator[Row]:
        record = self._stream_record(context)
        right = self.children[1].materialize(context)
        residual = self._right_residual
        if right.is_empty():
            return
        if not self._shared:
            for row in self.children[0].iter_rows(context):
                for match in right.rows:
                    record.rows += 1
                    yield row + tuple(match[i] for i in residual)
            return
        partition = right.partition(self._shared)
        left_key = self._left_key
        record.probes = record.probes or 0
        for row in self.children[0].iter_rows(context):
            record.probes += 1
            for match in partition.get(tuple(row[p] for p in left_key)):
                record.rows += 1
                yield row + tuple(match[i] for i in residual)

    def _materialize_encoded(self, context: ExecutionContext) -> EncodedRelation:
        left = self.children[0].materialize_encoded(context)
        if left.is_empty():
            return EncodedRelation.empty(self.schema, context.encoder)
        right = self.children[1].materialize_encoded(context)
        self._record_probes(context.run[self], len(left))
        result = parallel_join(
            left,
            right,
            self._left_key,
            tuple(right.position(v) for v in self._shared),
            self._right_residual,
            self.schema,
        )
        return left.join(right) if result is None else result

    def iter_batches(self, context: ExecutionContext) -> Iterator[EncodedRelation]:
        record = self._stream_record(context, "batch")
        right = self.children[1].materialize_encoded(context)
        if right.is_empty():
            return
        for batch in self.children[0].iter_batches(context):
            if self._shared:
                self._record_probes(record, len(batch))
            out = batch.join(right)
            if len(out):
                record.rows += len(out)
                yield out

    def label(self) -> str:
        joined = ", ".join(str(v) for v in self._shared)
        return f"HashJoin[{joined or '×'}]"


# ----------------------------------------------------------------------
# Streaming enumeration of a whole join tree
# ----------------------------------------------------------------------
class _MemoCursor:
    """A lazily-filled, shareable sequence of one node cursor's rows.

    Wraps the generator producing a node's distinct partial tuples for one
    probe key.  Consumers iterate by index into the shared ``rows`` list and
    only the front-most consumer advances the underlying generator, so a
    cursor that is probed with the same key by many parent rows (or resumed
    across ``next()`` calls on the answer generator) pays for each distinct
    tuple exactly once.  Exhaustion — including immediate exhaustion, i.e. a
    dead end — is memoised too (``_source`` becomes ``None``).
    """

    __slots__ = ("rows", "_source")

    def __init__(self, source: Iterator[Row]) -> None:
        self.rows: List[Row] = []
        self._source: Optional[Iterator[Row]] = source

    def _pull(self) -> bool:
        """Advance the source by one tuple; return whether one was added."""
        if self._source is None:
            return False
        try:
            row = next(self._source)
        except StopIteration:
            self._source = None
            return False
        self.rows.append(row)
        return True

    def has_any(self) -> bool:
        """Whether the cursor yields at least one tuple (pulls at most one)."""
        return bool(self.rows) or self._pull()

    def __iter__(self) -> Iterator[Row]:
        index = 0
        while index < len(self.rows) or self._pull():
            yield self.rows[index]
            index += 1


class _NodePlan:
    """The compiled enumeration plan of one join-tree node (per execution).

    All positions are resolved against the node's (already materialised)
    relation schema once, so the inner enumeration loop runs on tuples and
    integer indexes only:

    * ``probe_variables`` — the variables this node is keyed by (shared with
      the parent atom), in this relation's schema order; the node's
      partition on them is what the parent probes;
    * ``children`` — per child, ``(identifier, key_positions)`` where
      ``key_positions`` index *this* node's rows and produce the child's
      probe key (aligned with the child's ``probe_variables`` order);
    * ``carry`` — the projection instructions producing this node's output
      tuple: ``(source, position)`` pairs where source ``-1`` reads the
      node's own row and source ``j ≥ 0`` reads child ``j``'s output tuple.
    """

    __slots__ = ("relation", "probe_variables", "children", "carry")

    def __init__(
        self,
        relation: Relation,
        probe_variables: Tuple[Variable, ...],
        children: Tuple[Tuple[int, Tuple[int, ...]], ...],
        carry: Tuple[Tuple[int, int], ...],
    ) -> None:
        self.relation = relation
        self.probe_variables = probe_variables
        self.children = children
        self.carry = carry


class _Enumeration:
    """One run of :meth:`CursorEnumerate._enumerate`: the per-node plans,
    the cursors memoised per (node, probe key) and the operator's record."""

    __slots__ = ("record", "plans", "memos")

    def __init__(self, record: NodeRun, plans: Dict[int, _NodePlan]) -> None:
        self.record = record
        self.plans = plans
        self.memos: Dict[Tuple[int, Row], _MemoCursor] = {}

    def cursor(self, identifier: int, key: Row) -> _MemoCursor:
        memo = self.memos.get((identifier, key))
        if memo is None:
            memo = _MemoCursor(self.source(identifier, key))
            self.memos[(identifier, key)] = memo
        return memo

    def source(self, identifier: int, key: Row) -> Iterator[Row]:
        plan = self.plans[identifier]
        if plan.probe_variables:
            self.record.probes = (self.record.probes or 0) + 1
            rows: Sequence[Row] = plan.relation.partition(plan.probe_variables).get(key)
        else:
            rows = plan.relation.rows
        seen: Set[Row] = set()
        assembled: List[Row] = [()] * len(plan.children)
        for row in rows:
            # Peek every child before combining: a dead child (possible
            # only on unreduced relations) must not cost a scan of its
            # siblings' cursors.
            if all(
                self.cursor(child_id, tuple(row[p] for p in key_positions)).has_any()
                for child_id, key_positions in plan.children
            ):
                yield from self.expand(plan, row, 0, assembled, seen)

    def expand(
        self,
        plan: _NodePlan,
        row: Row,
        depth: int,
        assembled: List[Row],
        seen: Set[Row],
    ) -> Iterator[Row]:
        if depth == len(plan.children):
            out = tuple(
                row[position] if source_index < 0 else assembled[source_index][position]
                for source_index, position in plan.carry
            )
            if out not in seen:
                seen.add(out)
                yield out
            return
        child_id, key_positions = plan.children[depth]
        for child_row in self.cursor(child_id, tuple(row[p] for p in key_positions)):
            assembled[depth] = child_row
            yield from self.expand(plan, row, depth + 1, assembled, seen)


class CursorEnumerate(Operator):
    """Streaming phase 4: a join tree compiled into nested memoised cursors.

    The node inputs (one operator per join-tree node — reduced semi-join
    DAGs for the enumeration mode, raw scans for the Boolean short-circuit
    mode) are materialised bottom-up on the first pull; every join-tree
    node then becomes a family of cursors, one per probe key (the values of
    the variables shared with the parent).  A cursor iterates its bucket of
    the node relation's cached :class:`~repro.evaluation.relation
    .Partition`, depth-first-combines each row with the matching child
    cursors (consistency across children needs no checks: any variable
    shared between two subtrees occurs in this node's atom and is therefore
    fixed by the row), and yields the *distinct* projections onto the
    node's carry schema.  Cursors are memoised per (node, key) — including
    dead ends — so repeated probes share one traversal.

    On globally consistent inputs (after the semi-join passes) every probed
    bucket and every child cursor is non-empty, so no work is ever
    discarded and the first output row costs O(join-tree) bucket probes; on
    raw scans dead ends are possible but each is explored at most once.
    """

    __slots__ = ("tree", "node_ops", "node_carry", "_bottom_up")

    def __init__(
        self,
        tree: JoinTree,
        node_ops: Dict[int, Operator],
        node_carry: Dict[int, Tuple[Variable, ...]],
    ) -> None:
        bottom_up = tree.bottom_up_order()
        super().__init__(
            node_carry[tree.root], tuple(node_ops[i] for i in bottom_up)
        )
        self.tree = tree
        self.node_ops = dict(node_ops)
        self.node_carry = dict(node_carry)
        self._bottom_up = bottom_up

    def _materialize(self, context: ExecutionContext) -> Relation:
        # The streamed carry tuples are distinct by construction.
        return Relation(self.schema, list(self.iter_rows(context)))

    def _node_plans(
        self, relations: Dict[int, Relation]
    ) -> Dict[int, _NodePlan]:
        """Compile the per-node enumeration plans against concrete schemas.

        Pure position arithmetic — O(query); no database work happens here.
        """
        tree = self.tree
        carry = self.node_carry
        plans: Dict[int, _NodePlan] = {}
        for identifier in self._bottom_up:
            relation = relations[identifier]
            shared = tree.shared_with_parent(identifier)
            probe_variables = tuple(v for v in relation.schema if v in shared)
            children: List[Tuple[int, Tuple[int, ...]]] = []
            child_ids = tree.children(identifier)
            for child in child_ids:
                # The child was compiled first (bottom-up order); its probe
                # variables fix the key layout both sides agree on.
                key_positions = tuple(
                    relation.position(v) for v in plans[child].probe_variables
                )
                children.append((child, key_positions))
            instructions: List[Tuple[int, int]] = []
            for variable in carry[identifier]:
                if variable in relation.variables():
                    instructions.append((-1, relation.position(variable)))
                    continue
                # A carry variable outside the node's own atom lives in
                # exactly one child subtree (two subtrees would force it
                # into this atom by join-tree connectedness).
                for index, child in enumerate(child_ids):
                    child_carry = carry[child]
                    if variable in child_carry:
                        instructions.append((index, child_carry.index(variable)))
                        break
                else:  # pragma: no cover — impossible by connectedness
                    raise AssertionError(
                        f"carry variable {variable} unreachable at node {identifier}"
                    )
            plans[identifier] = _NodePlan(
                relation, probe_variables, tuple(children), tuple(instructions)
            )
        return plans

    def _materialize_encoded(self, context: ExecutionContext) -> EncodedRelation:
        return EncodedRelation.from_rows(
            self.schema, list(self.iter_rows_encoded(context)), context.encoder
        )

    def iter_rows(self, context: ExecutionContext) -> Iterator[Row]:
        return self._enumerate(context, encoded=False)

    def iter_rows_encoded(self, context: ExecutionContext) -> Iterator[IntRow]:
        """Stream the carry tuples as dictionary codes (the batch face).

        The node inputs are materialised *encoded* and the cursor machinery
        below runs on them verbatim — an :class:`EncodedRelation` serves the
        same ``schema``/``rows``/``partition`` surface as a
        :class:`Relation`, with int tuples for rows — so decoding is
        deferred entirely to the consumer.
        """
        return self._enumerate(context, encoded=True)

    def iter_batches(self, context: ExecutionContext) -> Iterator[EncodedRelation]:
        buffer: List[IntRow] = []
        for row in self.iter_rows_encoded(context):
            buffer.append(row)
            if len(buffer) >= BATCH_ROWS:
                yield EncodedRelation.from_rows(self.schema, buffer, context.encoder)
                buffer = []
        if buffer:
            yield EncodedRelation.from_rows(self.schema, buffer, context.encoder)

    def _enumerate(self, context: ExecutionContext, encoded: bool) -> Iterator[Row]:
        """The cursor enumeration itself, over materialised node relations.

        Generic over the row representation: the node relations are tuple
        :class:`Relation` or (``encoded``) :class:`EncodedRelation` objects,
        and the cursors only ever touch ``rows``, cached ``partition``
        probes and positional indexing — identical on both.
        """
        record = self._stream_record(context, "batch" if encoded else None)
        relations: Dict[int, Relation] = {}
        for identifier in self._bottom_up:
            op = self.node_ops[identifier]
            face = op.materialize_encoded if encoded else op.materialize
            relation = face(context)
            if relation.is_empty():
                return
            relations[identifier] = relation  # type: ignore[assignment]
        enumeration = _Enumeration(record, self._node_plans(relations))
        try:
            for row in enumeration.cursor(self.tree.root, ()):
                record.rows += 1
                yield row
        finally:
            # The memo table and the cursors' suspended generators reference
            # each other through the enumeration; emptying it on exhaustion
            # or close leaves no cycle for the garbage collector to find.
            enumeration.memos.clear()

    def label(self) -> str:
        return f"CursorEnumerate[{', '.join(str(v) for v in self.schema)}]"


class BagNode(Operator):
    """The boundary of one materialised decomposition bag (pass-through).

    The decomposition route for cyclic queries materialises each bag of a
    tree decomposition as a ``HashJoin``/``Project`` sub-DAG and then runs
    Yannakakis over the bag tree.  ``BagNode`` wraps each bag's sub-DAG: it
    forwards every execution face to its child unchanged, but (a) renders
    the bag boundary in ``EXPLAIN`` and (b) declares the bag's variable set
    so the static verifier can cross-check the compiled schema against the
    decomposition tree (PLAN015).  ``node_id`` names the bag-tree node this
    operator materialises.
    """

    __slots__ = ("bag", "node_id")

    def __init__(
        self, child: Operator, bag: Iterable[Variable], node_id: int
    ) -> None:
        super().__init__(tuple(child.schema), (child,))
        self.bag: FrozenSet[Variable] = frozenset(bag)
        self.node_id = node_id

    def _materialize(self, context: ExecutionContext) -> Relation:
        return self.children[0].materialize(context)

    def iter_rows(self, context: ExecutionContext) -> Iterator[Row]:
        return self.children[0].iter_rows(context)

    def _materialize_encoded(self, context: ExecutionContext) -> EncodedRelation:
        return self.children[0].materialize_encoded(context)

    def iter_batches(self, context: ExecutionContext) -> Iterator[EncodedRelation]:
        return self.children[0].iter_batches(context)

    def label(self) -> str:
        inner = ", ".join(sorted(str(v) for v in self.bag))
        return f"Bag[{self.node_id}: {inner}]"


# ----------------------------------------------------------------------
# Statistics and the cost model
# ----------------------------------------------------------------------
class Statistics:
    """Per-database cardinality statistics, computed lazily and cached.

    One instance is bound to one database and tracks its mutation epoch:
    when the database mutates, the per-predicate relation cache here is
    dropped on next access and re-requested through the scan provider — so a
    long-lived :class:`~repro.evaluation.batch.ScanCache` serves the delta-
    merged relations and planning always sees post-mutation cardinalities.
    Base relations are served through the optional scan provider — so a
    batch that already shares a ``ScanCache`` pays nothing extra for
    planning statistics, and the partitions the planner builds for joint
    distinct counts are the very partitions the executor later probes — or
    materialised directly (one ``O(|R|)`` pass per predicate, cached here).

    The statistics themselves live on the relations:
    :meth:`Relation.column_distinct_counts` (per-column distinct counts)
    and :meth:`Relation.key_distinct_count` / :meth:`Relation
    .bucket_histogram` (joint counts and bucket-size histograms via the
    cached partitions).
    """

    def __init__(
        self, database: Instance, scans: Optional[ScanProvider] = None
    ) -> None:
        self.database = database
        self._scans = scans
        self._base: Dict[Predicate, Relation] = {}
        self._epoch = getattr(database, "mutation_epoch", 0)

    def base_relation(self, predicate: Predicate) -> Relation:
        """The full relation of ``predicate`` (cached until the DB mutates)."""
        epoch = getattr(self.database, "mutation_epoch", 0)
        if epoch != self._epoch:
            self._base.clear()
            self._epoch = epoch
        relation = self._base.get(predicate)
        if relation is None:
            atom = Atom(
                predicate,
                tuple(Variable(f"_stat{i}") for i in range(predicate.arity)),
            )
            relation = Relation.from_atom(atom, self.database, self._scans)
            self._base[predicate] = relation
        return relation


class CardinalityEstimate:
    """A cost-model estimate: output rows plus per-variable distinct counts.

    The per-variable counts are what lets join selectivities compose
    through a plan without re-reading the data (System-R style propagation).
    ``pairs`` carries the correlation-aware refinement: sketched distinct
    counts of variable *pairs* (:meth:`Relation.key_pair_distinct_counts`),
    keyed by name-ordered variable pairs — what
    :meth:`correlated_joint_distinct` consults so multi-key joins do not
    multiply the distincts of variables that move together.
    """

    __slots__ = ("rows", "distinct", "pairs")

    def __init__(
        self,
        rows: float,
        distinct: Dict[Variable, float],
        pairs: Optional[Dict[Tuple[Variable, Variable], float]] = None,
    ) -> None:
        self.rows = max(0.0, rows)
        self.distinct = {
            variable: max(0.0, min(count, self.rows))
            for variable, count in distinct.items()
        }
        self.pairs: Dict[Tuple[Variable, Variable], float] = {
            key: max(0.0, min(count, self.rows))
            for key, count in (pairs or {}).items()
        }

    @staticmethod
    def pair_key(left: Variable, right: Variable) -> Tuple[Variable, Variable]:
        """The canonical (name-ordered) key for a variable pair."""
        return (left, right) if left.name <= right.name else (right, left)

    def joint_distinct(self, variables: Sequence[Variable]) -> float:
        """Estimated distinct value tuples over ``variables`` (≤ rows)."""
        product = 1.0
        for variable in variables:
            product *= max(1.0, self.distinct.get(variable, 1.0))
        return min(self.rows, product) if variables else min(self.rows, 1.0)

    def correlated_joint_distinct(self, variables: Sequence[Variable]) -> float:
        """Joint distinct count over ``variables``, correlation-aware.

        Where :meth:`joint_distinct` multiplies per-variable counts (the
        independence assumption), this walks a spanning forest of the
        sketched pair counts: per tree edge ``(u, v)`` the factor is the
        *conditional* multiplicity ``pairs[u, v] / d(u)`` instead of
        ``d(v)``.  On a functionally determined pair that factor is 1, so a
        two-key join on ``(x, f(x))`` is costed like the one-key join it
        really is.  Falls back to :meth:`joint_distinct` exactly when no
        pair sketch covers the variables.
        """
        ordered = sorted(set(variables), key=lambda v: v.name)
        if not ordered:
            return min(self.rows, 1.0)
        if not self.pairs:
            return self.joint_distinct(ordered)
        total = 1.0
        visited: Set[Variable] = set()
        for seed in ordered:
            if seed in visited:
                continue
            visited.add(seed)
            total *= max(1.0, self.distinct.get(seed, 1.0))
            frontier = [seed]
            while frontier:
                current = frontier.pop(0)
                for other in ordered:
                    if other in visited:
                        continue
                    pair = self.pairs.get(self.pair_key(current, other))
                    if pair is None:
                        continue
                    total *= pair / max(1.0, self.distinct.get(current, 1.0))
                    visited.add(other)
                    frontier.append(other)
        return min(self.rows, total)


class CostModel:
    """Textbook selection/join selectivities over cached statistics.

    :meth:`annotate` walks a plan DAG once (memoised per node) and computes
    a :class:`CardinalityEstimate` per operator; :meth:`row_estimates`
    reads the row estimates back out — the "est" column of ``EXPLAIN`` and
    the quantity the greedy planner minimises.

    The formulas (``d(v)`` = distinct count of ``v``, capped by rows):

    * ``Scan`` — base cardinality; constant selections are costed from the
      base relation's cached bucket-size histogram over the pinned columns
      (probe-weighted expected bucket size ``Σ size² / rows`` — the mean
      bucket under uniformity, more under skew), repeated-variable pairs
      cost ``1 / max(d(i), d(j))`` each;
    * ``Select`` — ``1 / d(v)`` per bound variable;
    * ``SemiJoin`` — ``|L| · min(1, dR(V) / dL(V))`` on shared variables
      ``V`` (correlation-aware joint counts);
    * ``HashJoin`` — ``|L| · |R| / max(dL(v), dR(v))`` on a single shared
      variable; on multi-variable keys ``|L| · |R| / max(dL(V), dR(V))``
      with the *joint* key count from the pair sketches
      (:meth:`CardinalityEstimate.correlated_joint_distinct`), so
      correlated keys are not divided twice; the cross product when ``V``
      is empty;
    * ``Project`` / ``Distinct`` — ``min(|input|, d(V))`` over the kept
      variables (correlation-aware);
    * ``BagNode`` — pass-through (the bag boundary is presentational);
    * ``CursorEnumerate`` — the hash-join/projection estimate of its join
      tree, folded bottom-up with the formulas above.
    """

    def __init__(self, statistics: Statistics) -> None:
        self.statistics = statistics
        self._memo: Dict[Operator, CardinalityEstimate] = {}
        self._scan_memo: Dict[Atom, CardinalityEstimate] = {}

    # -- public entry ---------------------------------------------------
    def annotate(self, operator: Operator) -> CardinalityEstimate:
        """Estimate ``operator`` (and every descendant), memoised per node."""
        memo = self._memo.get(operator)
        if memo is not None:
            return memo
        estimate = self._memo[operator] = self._estimate(operator)
        return estimate

    def row_estimates(self) -> Dict[Operator, float]:
        """The estimated rows of every annotated node."""
        return {operator: estimate.rows for operator, estimate in self._memo.items()}

    def scan_estimate(self, atom: Atom) -> CardinalityEstimate:
        """The estimate of scanning ``atom`` (shared with the planner).

        Memoised per atom: the greedy planner scores the same atoms
        repeatedly and ``_plan_from_order`` re-derives the chosen order's
        estimates, so the (histogram-walking) work is paid once.
        """
        memo = self._scan_memo.get(atom)
        if memo is not None:
            return memo
        estimate = self._scan_estimate(atom)
        self._scan_memo[atom] = estimate
        return estimate

    def _scan_estimate(self, atom: Atom) -> CardinalityEstimate:
        base = self.statistics.base_relation(atom.predicate)
        pattern = compile_scan_pattern(atom.terms)
        rows = float(len(base))
        counts = base.column_distinct_counts()  # all zeros when empty
        if rows and pattern.constant_checks:
            pinned = [base.schema[p] for p, _ in pattern.constant_checks]
            # Probe-weighted expected bucket size from the cached
            # bucket-size histogram: Σ size²·count / rows.  Equals
            # rows / distinct-keys on uniform data and grows under skew
            # (frequent keys are the ones anchors hit proportionally more
            # often), so skewed columns are not under-estimated.
            histogram = base.bucket_histogram(pinned)
            rows = sum(size * size * count for size, count in histogram.items()) / rows
        for position, first in pattern.equality_checks:
            rows /= max(counts[position], counts[first], 1)
        distinct = {
            variable: float(counts[position])
            for variable, position in zip(pattern.variables, pattern.output_positions)
        }
        # Correlation sketch: per-pair distinct counts of the base columns,
        # translated from positions to this scan's output variables.
        position_of = dict(zip(pattern.variables, pattern.output_positions))
        pair_counts = base.key_pair_distinct_counts() if len(position_of) >= 2 else {}
        pairs: Dict[Tuple[Variable, Variable], float] = {}
        for (i, j), count in pair_counts.items():
            left = next((v for v, p in position_of.items() if p == i), None)
            right = next((v for v, p in position_of.items() if p == j), None)
            if left is not None and right is not None:
                pairs[CardinalityEstimate.pair_key(left, right)] = count
        return CardinalityEstimate(rows, distinct, pairs)  # type: ignore[arg-type]

    def join_estimate(
        self, left: CardinalityEstimate, right: CardinalityEstimate
    ) -> CardinalityEstimate:
        """The hash-join estimate (shared with the planners).

        Single-key joins divide by ``max(dL(v), dR(v))``; multi-key joins
        divide by the *joint* key distinct count of the larger side
        (:meth:`CardinalityEstimate.correlated_joint_distinct`), so keys the
        pair sketch knows to be correlated are not double-counted the way
        the per-variable independence product would.
        """
        shared = [v for v in left.distinct if v in right.distinct]
        rows = left.rows * right.rows
        if len(shared) >= 2:
            rows /= max(
                left.correlated_joint_distinct(shared),
                right.correlated_joint_distinct(shared),
                1.0,
            )
        else:
            for variable in shared:
                rows /= max(
                    left.distinct.get(variable, 1.0),
                    right.distinct.get(variable, 1.0),
                    1.0,
                )
        distinct: Dict[Variable, float] = {}
        for variable, count in left.distinct.items():
            other = right.distinct.get(variable)
            distinct[variable] = min(count, other) if other is not None else count
        for variable, count in right.distinct.items():
            distinct.setdefault(variable, count)
        pairs = dict(left.pairs)
        for key, count in right.pairs.items():
            mine = pairs.get(key)
            pairs[key] = count if mine is None else min(mine, count)
        return CardinalityEstimate(rows, distinct, pairs)

    # -- per-operator dispatch ------------------------------------------
    def _estimate(self, operator: Operator) -> CardinalityEstimate:
        if isinstance(operator, Scan):
            return self.scan_estimate(operator.atom)
        if isinstance(operator, Select):
            child = self.annotate(operator.children[0])
            rows = child.rows
            distinct = dict(child.distinct)
            for variable in operator.binding:
                if variable in distinct:
                    rows /= max(distinct[variable], 1.0)
                    distinct[variable] = 1.0
            pairs = {
                key: count
                for key, count in child.pairs.items()
                if key[0] not in operator.binding and key[1] not in operator.binding
            }
            return CardinalityEstimate(rows, distinct, pairs)
        if isinstance(operator, (Project, Distinct)):
            child = self.annotate(operator.children[0])
            kept = operator.schema
            rows = child.correlated_joint_distinct(kept)
            return CardinalityEstimate(
                rows,
                {v: child.distinct.get(v, 1.0) for v in kept},
                _filter_pairs(child.pairs, kept),
            )
        if isinstance(operator, BagNode):
            # Pure pass-through: the bag boundary changes rendering and
            # verification, never cardinalities.
            return self.annotate(operator.children[0])
        if isinstance(operator, SemiJoin):
            left = self.annotate(operator.children[0])
            right = self.annotate(operator.children[1])
            shared = operator._shared
            left_keys = left.correlated_joint_distinct(shared)
            right_keys = right.correlated_joint_distinct(shared)
            fraction = min(1.0, right_keys / left_keys) if left_keys else 0.0
            if right.rows == 0:
                fraction = 0.0
            rows = left.rows * fraction
            distinct = {
                variable: min(count, right.distinct.get(variable, count))
                if variable in shared
                else count
                for variable, count in left.distinct.items()
            }
            return CardinalityEstimate(rows, distinct, dict(left.pairs))
        if isinstance(operator, HashJoin):
            return self.join_estimate(
                self.annotate(operator.children[0]),
                self.annotate(operator.children[1]),
            )
        if isinstance(operator, CursorEnumerate):
            return self._enumerate_estimate(operator)
        raise TypeError(f"no cost formula for {type(operator).__name__}")

    def _enumerate_estimate(self, operator: CursorEnumerate) -> CardinalityEstimate:
        tree = operator.tree
        partial: Dict[int, CardinalityEstimate] = {}
        for identifier in operator._bottom_up:
            estimate = self.annotate(operator.node_ops[identifier])
            for child in tree.children(identifier):
                estimate = self.join_estimate(estimate, partial[child])
            carry = operator.node_carry[identifier]
            partial[identifier] = CardinalityEstimate(
                estimate.correlated_joint_distinct(carry),
                {v: estimate.distinct.get(v, 1.0) for v in carry},
                _filter_pairs(estimate.pairs, carry),
            )
        return partial[tree.root]


def _filter_pairs(
    pairs: Dict[Tuple[Variable, Variable], float], kept: Sequence[Variable]
) -> Dict[Tuple[Variable, Variable], float]:
    """The pair sketches whose both variables survive a projection."""
    keep = set(kept)
    return {
        key: count for key, count in pairs.items() if key[0] in keep and key[1] in keep
    }


# ----------------------------------------------------------------------
# EXPLAIN rendering
# ----------------------------------------------------------------------
def _format_count(value: Optional[float]) -> str:
    if value is None:
        return "?"
    return str(int(round(value)))


def render_plan(
    root: Operator,
    indent: str = "  ",
    *,
    run: Optional[Mapping[Operator, NodeRun]] = None,
    estimates: Optional[Mapping[Operator, float]] = None,
) -> str:
    """Pretty-print a plan tree with per-operator estimated vs. observed rows.

    ``estimates`` is a cost model's :meth:`CostModel.row_estimates` and
    ``run`` an executed context's run map; a node missing from either
    renders ``?``.  Reduction plans are DAGs (the top-down semi-join pass
    re-reads the parent's reduced operator); a node already printed is
    referenced as ``(shared, shown above)`` instead of being expanded
    again, keeping the rendering linear in the DAG size.
    """
    lines: List[str] = []
    seen: Set[int] = set()
    run = run or {}
    estimates = estimates or {}
    unrun = NodeRun()

    def visit(operator: Operator, depth: int) -> None:
        prefix = indent * depth
        if id(operator) in seen:
            lines.append(f"{prefix}{operator.label()}  (shared, shown above)")
            return
        seen.add(id(operator))
        record = run.get(operator, unrun)
        probes = f", probes={record.probes}" if record.probes is not None else ""
        face = ", face=batch" if record.face == "batch" else ""
        lines.append(
            f"{prefix}{operator.label()}  "
            f"(est={_format_count(estimates.get(operator))}, "
            f"obs={_format_count(record.rows)}{probes}{face})"
        )
        for child in operator.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


def maybe_verify_plan(root: Operator, *, streaming: bool = False, where: str = "") -> None:
    """The ``REPRO_VERIFY`` seam every plan compiler calls on what it emits
    (:func:`repro.analysis.verify_plan.maybe_verify`, imported lazily: the
    analysis layer imports this module)."""
    from ..analysis.verify_plan import maybe_verify

    maybe_verify(root, streaming=streaming, where=where)
