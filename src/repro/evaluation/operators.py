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
  runs over dictionary-encoded integer columns
  (:mod:`repro.evaluation.encoding`) on one face,
  :meth:`Operator.materialize_encoded`: it produces the full output
  :class:`~repro.evaluation.encoding.EncodedRelation`, memoised per run so
  DAG-shared work is paid once, and :meth:`Operator.materialize` decodes
  it into a term :class:`Relation`.  Streams come from one place outside
  that face: :func:`repro.evaluation.join_plans.stream_chain` pipelines a
  compiled left-deep join chain batch by batch, for the plan route and for
  a Yannakakis head that spans several join-tree nodes alike.

  Terms are decoded only at the output boundary.  The tuple-at-a-time
  engine this face replaced is kept as the differential oracle under
  ``tests/helpers/``.

* a plan is a **value**: operators hold only their schema, children and
  compile-time fields, so one compiled plan serves any number of runs,
  concurrently too.  Everything a run produces lives in its
  :class:`ExecutionContext` — the *run map*, one :class:`NodeRun` per
  executed node holding the memoised results, the **observed** cardinality
  (``rows``) and the bucket-probe count (``probes``) where the node
  probes hash partitions — the raw material of ``EXPLAIN`` output and of
  the bounded-work tests;

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
semi-join-reducer DAG topped by a hash-join/projection tree (materialising
phase 4) or by a left-deep hash-join chain over the reduced nodes
(streaming phase 4), and ``join_plans.py`` emits :class:`HashJoin` chains
(left-deep, or bushy for the materialising route).  Every stream
pipelines its chain along the left spine.
"""

from __future__ import annotations

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

from ..datamodel import Atom, Instance, Predicate, Variable
from .batch import ScanCache
from .encoding import EncodedRelation, TermEncoder
from .parallel import (
    parallel_join,
    parallel_project,
    parallel_select,  # noqa: F401  (unused; the layer trace wraps it here)
    parallel_semijoin,
)
from .relation import (
    Relation,
    ScanProvider,
    SchemaError,
    compile_scan_pattern,
)


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


def default_scans(database: Instance, scans: Optional[ScanProvider]) -> ScanProvider:
    """``scans``, or a new :class:`~repro.evaluation.batch.ScanCache` over
    ``database`` when none is given: every scan goes through a cache."""
    if scans is not None:
        return scans
    return ScanCache(database)


class NodeRun:
    """What one run observed at one plan node.

    ``encoded`` memoises the node's encoded output, ``rows`` is the
    observed cardinality (rows emitted, on a stream) and ``probes``
    the bucket probes the node issued (``None`` when it probed nothing).
    """

    __slots__ = ("encoded", "rows", "probes")

    def __init__(self) -> None:
        self.encoded: Optional[EncodedRelation] = None
        self.rows: Optional[int] = None
        self.probes: Optional[int] = None


class ExecutionContext:
    """One run of a plan: what it runs against and what it observed.

    ``scans`` serves every :class:`Scan` of the run, exactly like the
    ``scans=`` parameter of the evaluator entry points: an injected
    provider (a shared :class:`repro.evaluation.batch.ScanCache`, or a
    service request's anchor-binding wrapper of one), else a
    ``ScanCache(database)`` built for the run.  So there is one scan path.

    ``encoder`` is the dictionary encoder the run encodes under: the scan
    provider's own, so encodings — like scans and partitions — amortise
    across every evaluation sharing the cache.

    ``run`` is the run map: one :class:`NodeRun` per executed node, keyed
    by the node itself and created on first use.  It is the only place
    execution writes to, so runs of one shared plan never see each other's
    state.
    """

    __slots__ = ("database", "scans", "encoder", "run")

    def __init__(self, database: Instance, scans: Optional[ScanProvider] = None) -> None:
        scans = default_scans(database, scans)
        self.database = database
        self.scans = scans
        self.encoder: TermEncoder = scans.encoder
        self.run: DefaultDict["Operator", NodeRun] = defaultdict(NodeRun)


# ----------------------------------------------------------------------
# Operator base
# ----------------------------------------------------------------------
class Operator:
    """One node of a physical plan — an immutable value.

    Subclasses fix the static output ``schema`` at construction time (no
    database access) and implement ``_materialize_encoded``.  Nodes hold
    no run state: execution writes what it computes and observes into the
    context's :class:`NodeRun` for the node, so one compiled plan can run
    against any number of contexts.
    """

    __slots__ = ("schema", "children")

    def __init__(
        self, schema: Tuple[Variable, ...], children: Tuple["Operator", ...]
    ) -> None:
        self.schema = schema
        self.children = children

    # -- execution ------------------------------------------------------
    def materialize(self, context: ExecutionContext) -> Relation:
        """The full output decoded into a term :class:`Relation` — the one
        decode boundary of a materialised plan (a fresh relation per call;
        the encoded output underneath is computed once per run)."""
        return self.materialize_encoded(context).to_relation()

    def materialize_encoded(self, context: ExecutionContext) -> EncodedRelation:
        """The full output as a dictionary-encoded column store (per run).

        Computed once per node and run, so DAG-shared sub-operators pay
        once.
        """
        record = context.run[self]
        if record.encoded is None:
            record.encoded = self._materialize_encoded(context)
            record.rows = len(record.encoded)
        return record.encoded

    def _materialize_encoded(self, context: ExecutionContext) -> EncodedRelation:
        raise NotImplementedError

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
    """The matches of one query atom (constants and repeated variables act
    as selections).

    Reads through the context's scan provider only
    (:meth:`repro.evaluation.batch.ScanCache.scan`): a view of the
    predicate's cached base store, or the bucket of its key index on the
    pinned positions.
    """

    __slots__ = ("atom", "pattern")

    def __init__(self, atom: Atom) -> None:
        pattern = compile_scan_pattern(atom)
        super().__init__(pattern.variables, ())
        self.atom = atom
        #: Compiled once with the plan; every run scans through it.
        self.pattern = pattern

    def _materialize_encoded(self, context: ExecutionContext) -> EncodedRelation:
        return context.scans.scan(self.pattern, context.database)

    def label(self) -> str:
        return f"Scan[{self.atom}]"


class Project(Operator):
    """Project onto distinct variables, deduplicating.

    Every operator's encoded output has distinct rows: a :class:`Scan`
    reads a set-valued base relation, a :class:`SemiJoin` keeps a subset
    of its left input, a :class:`HashJoin` of two distinct inputs is
    distinct, a :class:`BagNode` forwards its child, and a ``Project``
    that drops a column deduplicates.  So a ``Project`` that keeps every
    column of its child removes no row: it is a column view, on both
    storages, sharing the child's (immutable) columns in its own order.
    """

    __slots__ = ("_positions", "_keeps_all")

    def __init__(self, child: Operator, variables: Sequence[Variable]) -> None:
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise SchemaError(f"duplicate variable in projection {variables}")
        super().__init__(variables, (child,))
        self._positions = tuple(child.schema.index(v) for v in variables)
        self._keeps_all = len(variables) == len(child.schema)

    def _materialize_encoded(self, context: ExecutionContext) -> EncodedRelation:
        child = self.children[0].materialize_encoded(context)
        if self._keeps_all:
            columns = child.store.columns
            return child._derive(self.schema, [columns[p] for p in self._positions], len(child))
        result = parallel_project(child, self.schema, self._positions)
        return child.project(self.schema) if result is None else result

    def label(self) -> str:
        return f"Project[{', '.join(str(v) for v in self.schema)}]"


# ----------------------------------------------------------------------
# Binary operators
# ----------------------------------------------------------------------
class SemiJoin(Operator):
    """``left ⋉ right``: keep the left rows with a join partner in right.

    Materialising face: the vectorised kernel on numpy storage, else
    :meth:`EncodedRelation.semijoin_on`, which probes the left store's cached
    key index with each right key when the left store is long-lived (a
    cached scan) and the right side has few keys — a point query then
    costs its answer, not the left relation — and scans the left rows
    otherwise.  Membership checks are deliberately not probe-counted,
    matching the reduction-pass accounting of the bounded-work tests.
    """

    __slots__ = ("_shared", "_left_key", "_right_key")

    def __init__(self, left: Operator, right: Operator) -> None:
        super().__init__(left.schema, (left, right))
        self._shared, self._left_key, _ = _shared_schema(left, right)
        self._right_key = tuple(right.schema.index(v) for v in self._shared)

    def _materialize_encoded(self, context: ExecutionContext) -> EncodedRelation:
        left = self.children[0].materialize_encoded(context)
        if left.is_empty():
            return EncodedRelation.empty(self.schema, context.encoder)
        right = self.children[1].materialize_encoded(context)
        result = parallel_semijoin(left, right, self._left_key, self._right_key)
        if result is None:
            return left.semijoin_on(self._left_key, right, self._right_key)
        return result

    def label(self) -> str:
        return f"SemiJoin[{', '.join(str(v) for v in self._shared)}]"


class HashJoin(Operator):
    """Natural hash join — ``left ⋈ right`` (cross product when no variable
    is shared).

    The vectorised kernel on numpy storage, else :meth:`EncodedRelation.join`
    (linear in the operands plus the output).
    The run record counts one bucket probe per left row on a shared key;
    :func:`repro.evaluation.join_plans.stream_chain` keeps the same count
    when it streams a chain of these joins.
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

    def label(self) -> str:
        joined = ", ".join(str(v) for v in self._shared)
        return f"HashJoin[{joined or '×'}]"


class BagNode(Operator):
    """The boundary of one materialised decomposition bag (pass-through).

    The decomposition route for cyclic queries materialises each bag of a
    tree decomposition as a ``HashJoin``/``Project`` sub-DAG and then runs
    Yannakakis over the bag tree.  ``BagNode`` wraps each bag's sub-DAG: it
    forwards its child's output unchanged, but (a) renders
    the bag boundary in ``EXPLAIN`` and (b) declares the bag's variable set,
    which the static verifier checks against the compiled schema (PLAN015).
    ``node_id`` names the bag-tree node this operator materialises.
    """

    __slots__ = ("bag", "node_id")

    def __init__(
        self, child: Operator, bag: Iterable[Variable], node_id: int
    ) -> None:
        super().__init__(tuple(child.schema), (child,))
        self.bag: FrozenSet[Variable] = frozenset(bag)
        self.node_id = node_id

    def _materialize_encoded(self, context: ExecutionContext) -> EncodedRelation:
        return self.children[0].materialize_encoded(context)

    def label(self) -> str:
        inner = ", ".join(sorted(str(v) for v in self.bag))
        return f"Bag[{self.node_id}: {inner}]"


# ----------------------------------------------------------------------
# Statistics and the cost model
# ----------------------------------------------------------------------
class Statistics:
    """Per-database cardinality statistics, computed lazily and cached.

    One instance is bound to one database.  Base relations are read from
    the scan provider's cache (:meth:`repro.evaluation.batch.ScanCache
    .base_relation`; a ``ScanCache(database)`` of its own when none is
    given), which absorbs every mutation before it serves a relation — so
    planning always sees post-mutation cardinalities, and a batch that
    already shares a ``ScanCache`` pays nothing extra for planning
    statistics.

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
        self._scans = default_scans(database, scans)

    def base_relation(self, predicate: Predicate) -> Relation:
        """The current full relation of ``predicate``."""
        return self._scans.base_relation(predicate)


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
    * ``SemiJoin`` — ``|L| · min(1, dR(V) / dL(V))`` on shared variables
      ``V`` (correlation-aware joint counts);
    * ``HashJoin`` — ``|L| · |R| / max(dL(v), dR(v))`` on a single shared
      variable; on multi-variable keys ``|L| · |R| / max(dL(V), dR(V))``
      with the *joint* key count from the pair sketches
      (:meth:`CardinalityEstimate.correlated_joint_distinct`), so
      correlated keys are not divided twice; the cross product when ``V``
      is empty;
    * ``Project`` — ``min(|input|, d(V))`` over the kept variables
      (correlation-aware);
    * ``BagNode`` — pass-through (the bag boundary is presentational).
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
        pattern = compile_scan_pattern(atom)
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
        if isinstance(operator, Project):
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
        raise TypeError(f"no cost formula for {type(operator).__name__}")


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
        lines.append(
            f"{prefix}{operator.label()}  "
            f"(est={_format_count(estimates.get(operator))}, "
            f"obs={_format_count(record.rows)}{probes})"
        )
        for child in operator.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


def maybe_verify_plan(root: Operator, *, where: str = "") -> None:
    """The ``REPRO_VERIFY`` seam every plan compiler calls on what it emits
    (:func:`repro.analysis.verify_plan.maybe_verify`, imported lazily: the
    analysis layer imports this module)."""
    from ..analysis.verify_plan import maybe_verify

    maybe_verify(root, where=where)
