"""Join-order planning for conjunctive query evaluation.

The generic evaluator of :mod:`repro.evaluation.generic` explores the query
atoms in the order they were written, which is the textbook worst case for
backtracking joins.  This module adds the standard database-systems remedy —
a cost-based join order — so that the benchmarks can compare three points of
the design space on the same workloads:

1. naive backtracking in query order (``evaluate_generic``);
2. hash joins over a cost-based join order (this module, compiled onto
   the physical-operator IR of :mod:`repro.evaluation.operators`);
3. Yannakakis' semi-join algorithm for acyclic queries
   (:mod:`repro.evaluation.yannakakis`) — the method semantic acyclicity is
   trying to unlock.

A plan is an ordered sequence of atoms, optionally refined by a *join
tree* (:class:`PlanTree`) when the planner chose a bushy shape;
compilation turns it into a chain (left-deep) or tree (bushy) of
:class:`~repro.evaluation.operators.Scan` and
:class:`~repro.evaluation.operators.HashJoin` operators.  The default
planner is the Selinger-style dynamic program of
:mod:`repro.evaluation.planner_dp` (see :func:`resolve_planner`); the
greedy planner survives as :func:`plan_greedy`, the DP's fallback above
:data:`~repro.evaluation.planner_dp.DP_ATOM_LIMIT` atoms.  The two
execution faces come straight from the IR:

* :func:`execute_plan` materialises step by step and records every
  intermediate-result size (the ablation benchmarks and the cost-model
  calibration want them);
* :func:`iter_plan_answers` streams: the compiled chain's left spine
  pipelines batch-at-a-time from its leftmost scan (each pulled row probes
  the next build side's int index), so only the build sides are ever
  materialised and ``limit``-style consumers stop the entire chain after
  a bounded number of batches — there is no materialised join prefix.

Cardinality estimation is statistics-calibrated: the planners score
candidate orders with the :class:`~repro.evaluation.operators.CostModel`
(per-column distinct counts, bucket-size histograms, textbook join
selectivities) instead of the historical 1/10-per-constraint guess.  The
old heuristic and the ablation-only planners live with the tests
(``tests/helpers/ablation_planners.py``), the baseline that
``benchmarks/bench_plan_quality.py`` and the calibration guard in
``tests/test_plan_calibration.py`` measure the calibrated model against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple

from ..datamodel import Atom, Instance, Term, Variable
from ..queries.cq import ConjunctiveQuery
from .encoding import EncodedRelation
from .operators import (
    CardinalityEstimate,
    CostModel,
    ExecutionContext,
    HashJoin,
    NodeRun,
    Operator,
    Project,
    Scan,
    Statistics,
    default_scans,
    first_occurrence_schema,
    maybe_verify_plan,
    render_plan,
)
from .relation import Relation, ScanProvider

#: Row budget of one batch of :func:`iter_plan_answers`' stream.  Large
#: enough to amortise per-batch dispatch, small enough that ``limit=``
#: consumers stop a pipelined chain after O(batch) extra work.
BATCH_ROWS = 1024


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanStep:
    """One step of a join plan: the atom to join next plus its estimates.

    ``estimated_cardinality`` is the cost model's estimate of the atom's
    own scan; ``estimated_intermediate_rows`` its estimate of the
    intermediate result *after* joining this step into the prefix (the
    quantity ``tests/test_plan_calibration.py`` calibrates against the
    executor's observations).
    """

    atom: Atom
    estimated_cardinality: int
    shares_variables_with_prefix: bool
    estimated_intermediate_rows: int = 0


@dataclass(frozen=True)
class PlanTree:
    """A (possibly bushy) join tree over the query atoms.

    A node is either a *leaf* (``atom`` set, children ``None``) or a
    *join* (``atom`` ``None``, both children set).  Left-deep plans don't
    need one — the step sequence is the shape — but the Selinger DP of
    :mod:`repro.evaluation.planner_dp` attaches its tree to
    :attr:`JoinPlan.tree` so :func:`compile_plan` can emit the bushy
    operator DAG the DP actually costed.
    """

    atom: Optional[Atom] = None
    left: Optional["PlanTree"] = None
    right: Optional["PlanTree"] = None

    @property
    def is_leaf(self) -> bool:
        return self.atom is not None

    def leaves(self) -> List[Atom]:
        """The leaf atoms, left to right."""
        if self.atom is not None:
            return [self.atom]
        assert self.left is not None and self.right is not None
        return self.left.leaves() + self.right.leaves()

    def leftmost_atom(self) -> Atom:
        node = self
        while node.atom is None:
            assert node.left is not None
            node = node.left
        return node.atom

    def variables(self) -> Set[Variable]:
        out: Set[Variable] = set()
        for atom in self.leaves():
            out |= atom.variables()
        return out

    def render(self) -> str:
        if self.atom is not None:
            return str(self.atom)
        assert self.left is not None and self.right is not None
        return f"({self.left.render()} ⋈ {self.right.render()})"


@dataclass
class JoinPlan:
    """An ordered sequence of atoms to join, with per-step estimates.

    ``tree`` is optional: left-deep planners leave it ``None`` (the step
    order *is* the shape) while the DP planner stores the bushy
    :class:`PlanTree` it chose.  The steps of a tree plan follow the
    compiled operator order — step 0 is the leftmost leaf's scan, step
    ``i>0`` the ``i``-th join in post-order, represented by the leftmost
    leaf of that join's right subtree — so per-step estimated vs.
    observed intermediate sizes stay aligned for calibration.

    A plan is a value once built: :func:`execute_plan` and
    :func:`iter_plan_answers` compile (and, under ``REPRO_VERIFY``, verify)
    its operator chain on first use and every later run reuses it, so a
    cached plan never recompiles.
    """

    query: ConjunctiveQuery
    steps: List[PlanStep] = field(default_factory=list)
    tree: Optional[PlanTree] = None
    #: The compiled materialising chain (:func:`compile_plan`) and the
    #: streaming root (the head projection over it), set on first run.
    _chain: Optional[List[Operator]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _stream_top: Optional[Operator] = field(
        default=None, init=False, repr=False, compare=False
    )

    def atoms(self) -> List[Atom]:
        """The atoms in join order."""
        return [step.atom for step in self.steps]

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        parts = [
            f"{index}: {step.atom} (≈{step.estimated_cardinality} facts"
            + ("" if step.shares_variables_with_prefix or index == 0 else ", cross product")
            + ")"
            for index, step in enumerate(self.steps)
        ]
        if self.tree is not None and not self.tree.is_leaf:
            parts.append(f"shape: {self.tree.render()}")
        return "\n".join(parts)


@dataclass
class PlanExecution:
    """Answers of a plan plus the intermediate-result sizes per step."""

    answers: Set[Tuple[Term, ...]]
    intermediate_sizes: List[int] = field(default_factory=list)

    @property
    def max_intermediate_size(self) -> int:
        return max(self.intermediate_sizes, default=0)

    @property
    def total_intermediate_tuples(self) -> int:
        return sum(self.intermediate_sizes)


# ----------------------------------------------------------------------
# Cardinality estimation
# ----------------------------------------------------------------------
def estimated_intermediate_sizes(plan: JoinPlan) -> List[int]:
    """The cost model's estimate of each step's intermediate-result size.

    The estimates are computed at planning time (statistics-calibrated
    scan and join selectivities, see
    :class:`~repro.evaluation.operators.CostModel`) and stored on the plan
    steps.  :class:`PlanExecution.intermediate_sizes` records what the
    executor actually observed; ``tests/test_plan_calibration.py`` pins
    the rank correlation between the two so that planner changes cannot
    silently regress the model.
    """
    return [step.estimated_intermediate_rows for step in plan.steps]


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def _cost_model(
    database: Instance,
    scans: Optional[ScanProvider],
    statistics: Optional[Statistics],
) -> CostModel:
    return CostModel(statistics if statistics is not None else Statistics(database, scans))


def plan_greedy(
    query: ConjunctiveQuery,
    database: Instance,
    *,
    scans: Optional[ScanProvider] = None,
    statistics: Optional[Statistics] = None,
) -> JoinPlan:
    """Greedy connected plan under the statistics-calibrated cost model.

    The cheapest scan goes first; every further step joins the candidate
    whose estimated *join output* with the current prefix is smallest,
    preferring atoms that share a variable with the prefix (avoiding cross
    products).  Ties are broken by the textual form of the atom so the plan
    is deterministic.  ``scans``/``statistics`` let a batch share the base
    scans (and the partitions the planner's joint-distinct counts build)
    between planning and execution.
    """
    model = _cost_model(database, scans, statistics)
    body = list(query.body)
    if not body:
        return JoinPlan(query)

    estimates = [model.scan_estimate(atom) for atom in body]
    remaining = list(range(len(body)))
    first = min(remaining, key=lambda i: (estimates[i].rows, str(body[i]), i))
    ordered = [body[first]]
    prefix = estimates[first]
    bound_variables: Set[Variable] = set(body[first].variables())
    remaining.remove(first)

    while remaining:
        connected = [
            i for i in remaining if body[i].variables() & bound_variables
        ]
        pool = connected or remaining
        chosen = min(
            pool,
            key=lambda i: (
                model.join_estimate(prefix, estimates[i]).rows,
                str(body[i]),
                i,
            ),
        )
        prefix = model.join_estimate(prefix, estimates[chosen])
        ordered.append(body[chosen])
        bound_variables.update(body[chosen].variables())
        remaining.remove(chosen)

    return _plan_from_order(query, ordered, model)


def _plan_from_order(
    query: ConjunctiveQuery, ordered: Sequence[Atom], model: CostModel
) -> JoinPlan:
    steps: List[PlanStep] = []
    seen_variables: Set[Variable] = set()
    prefix: Optional[CardinalityEstimate] = None
    for atom in ordered:
        scan = model.scan_estimate(atom)
        prefix = scan if prefix is None else model.join_estimate(prefix, scan)
        steps.append(
            PlanStep(
                atom=atom,
                estimated_cardinality=int(round(scan.rows)),
                shares_variables_with_prefix=bool(atom.variables() & seen_variables),
                estimated_intermediate_rows=int(round(prefix.rows)),
            )
        )
        seen_variables.update(atom.variables())
    return JoinPlan(query=query, steps=steps)


# ----------------------------------------------------------------------
# Default-planner resolution
# ----------------------------------------------------------------------
Planner = Callable[..., JoinPlan]


def resolve_planner(planner: Optional[Planner] = None, *, streaming: bool = False) -> Planner:
    """The planner to run: ``planner`` itself, or the Selinger DP.

    ``None`` resolves to :func:`~repro.evaluation.planner_dp.plan_dp`, the
    dynamic program over bushy trees; a callable passes through unchanged
    (``planner=plan_greedy`` pins the greedy baseline).

    ``streaming=True`` resolves the default to the left-deep restriction
    :func:`~repro.evaluation.planner_dp.plan_dp_linear` instead: bushy
    build sides would have to be materialised before the first answer,
    breaking the streaming face's bounded-work-per-answer contract, so
    enumeration entry points plan left-deep chains only.
    """
    if planner is not None:
        return planner
    # Lazy: planner_dp imports this module.
    from .planner_dp import plan_dp, plan_dp_linear

    return plan_dp_linear if streaming else plan_dp


# ----------------------------------------------------------------------
# Compilation and execution
# ----------------------------------------------------------------------
def compile_plan(plan: JoinPlan) -> List[Operator]:
    """Compile a plan into its operator DAG, one entry per step.

    Entry ``i`` is the operator producing the intermediate result after
    step ``i`` (entry 0 is the first scan); the last entry is the plan's
    root.  The operators share structure, so materialising the root
    materialises — and caches — every prefix entry along the way.

    Left-deep plans (``plan.tree is None``) compile to a ``HashJoin``
    chain over scans.  Tree plans compile the bushy shape: entry 0 is the
    scan of the leftmost leaf and entry ``i>0`` the ``i``-th join of the
    tree in post-order, mirroring the plan's step order exactly.
    """
    if plan.tree is not None:
        joins: List[Operator] = []

        def build(node: PlanTree) -> Operator:
            if node.atom is not None:
                return Scan(node.atom)
            assert node.left is not None and node.right is not None
            op: Operator = HashJoin(build(node.left), build(node.right))
            joins.append(op)
            return op

        root = build(plan.tree)
        first = root
        while first.children:
            first = first.children[0]
        return [first] + joins
    ops: List[Operator] = []
    current: Optional[Operator] = None
    for step in plan.steps:
        scan = Scan(step.atom)
        current = scan if current is None else HashJoin(current, scan)
        ops.append(current)
    return ops


def execute_plan(
    plan: JoinPlan,
    database: Instance,
    *,
    scans: Optional[ScanProvider] = None,
) -> PlanExecution:
    """Execute a join plan on its materialising face over the IR.

    Each chain operator is materialised encoded, in order (a step costs
    time linear in its inputs plus its output), and its observed
    cardinality recorded; decoding happens once, at the head,
    so the ablation benchmarks and the calibration tests read real
    intermediate sizes.  Execution stops early when an intermediate comes
    up empty.  ``scans`` injects a shared scan provider for the base-atom
    scans (see :meth:`~repro.evaluation.batch.ScanCache.scan`).
    """
    context = ExecutionContext(database, scans)
    ops = plan._chain
    if ops is None:
        ops = compile_plan(plan)
        if ops:
            maybe_verify_plan(ops[-1], where="join_plans.execute_plan")
        plan._chain = ops
    intermediate_sizes: List[int] = []
    answers: Set[Tuple[Term, ...]] = set()
    encoded = None
    for op in ops:
        encoded = op.materialize_encoded(context)
        intermediate_sizes.append(len(encoded))
        if encoded.is_empty():
            break
    if (encoded is None or not encoded.is_empty()) and (
        plan.steps or not plan.query.body
    ):
        answers = (
            encoded.answer_tuples(plan.query.head)
            if encoded is not None
            else Relation.unit().answer_tuples(plan.query.head)
        )
    return PlanExecution(answers=answers, intermediate_sizes=intermediate_sizes)


def iter_plan_answers(
    plan: JoinPlan,
    database: Instance,
    *,
    scans: Optional[ScanProvider] = None,
    limit: Optional[int] = None,
) -> Iterator[Tuple[Term, ...]]:
    """Stream a plan's answers by pipelining the compiled chain's left spine.

    Each spine join's build side — a scan, or a join subtree of a bushy
    plan — is materialised once, outermost first; an empty one ends the
    stream before the leftmost scan is read.  The leftmost scan is then
    cut into :data:`BATCH_ROWS`-row batches, and each batch flows up the
    spine one :meth:`~repro.evaluation.encoding.EncodedRelation.join` at a
    time, its fan-out re-sliced to :data:`BATCH_ROWS` rows after every
    step, so ``limit``-style consumption costs bucket probes proportional
    to the batches pulled, not to the prefix size.  The head projection
    deduplicates across batches.

    Each spine join's run record counts the rows it emits and, on a shared
    key, one probe per batch row — the materialising face's count.  The
    set of yielded tuples equals ``execute_plan(...).answers`` exactly,
    with no tuple yielded twice.
    """
    if limit is not None and limit <= 0:
        return
    if not plan.steps:
        if not plan.query.body:
            yield ()  # the nullary query: one empty answer over any database
        return

    head_schema = first_occurrence_schema(plan.query.head)
    top = plan._stream_top
    if top is None:
        top = Project(compile_plan(plan)[-1], head_schema)
        maybe_verify_plan(top, streaming=True, where="join_plans.iter_plan_answers")
        plan._stream_top = top
    head_positions = tuple(head_schema.index(v) for v in plan.query.head)

    context = ExecutionContext(database, scans)
    head = context.run[top]
    head.rows = 0
    spine: List[Tuple[HashJoin, EncodedRelation, NodeRun]] = []
    node = top.children[0]
    while isinstance(node, HashJoin):
        record = context.run[node]
        record.rows = 0
        build = node.children[1].materialize_encoded(context)
        if build.is_empty():
            return
        spine.append((node, build, record))
        node = node.children[0]
    spine.reverse()  # bottom-up: the order a batch meets the joins
    leftmost = node.materialize_encoded(context)
    if leftmost.is_empty():
        return

    seen: Set[object] = set()  # int keys of the head projection
    terms = context.encoder.terms
    produced = 0
    # One batch iterator per spine level: level ``i`` holds batches about
    # to meet join ``i``, and the last level batches of the full join.
    levels: List[Iterator[EncodedRelation]] = [leftmost.chunks(BATCH_ROWS)]
    while levels:
        batch = next(levels[-1], None)
        if batch is None:
            levels.pop()
            continue
        depth = len(levels) - 1
        if depth:
            spine[depth - 1][2].rows += len(batch)  # rows the join emitted
        if depth < len(spine):
            join, build, record = spine[depth]
            if join._shared:
                join._record_probes(record, len(batch))
            out = batch.join(build)
            if len(out):
                levels.append(out.chunks(BATCH_ROWS))
            continue
        out = batch.project(top.schema, seen)
        head.rows += len(out)
        for code_row in out.rows:
            yield tuple(terms[code_row[p]] for p in head_positions)
            produced += 1
            if limit is not None and produced >= limit:
                return


def explain_plan(
    plan: JoinPlan,
    database: Instance,
    *,
    scans: Optional[ScanProvider] = None,
    statistics: Optional[Statistics] = None,
    execute: bool = True,
) -> str:
    """Pretty-print a compiled plan with estimated vs. observed rows.

    The chain (topped by the head projection) is annotated with the
    statistics-calibrated cost model and, unless ``execute=False``, run on
    its materialising face so every operator also reports its observed
    cardinality.  Body of the plan-route ``explain`` in
    :mod:`repro.evaluation.semacyclic_eval`; pass the ``statistics`` the
    planner already built to avoid re-deriving them.
    """
    if not plan.steps:
        return "(empty plan: the nullary query)"
    ops = compile_plan(plan)
    top: Operator = Project(ops[-1], first_occurrence_schema(plan.query.head))
    maybe_verify_plan(top, where="join_plans.explain_plan")
    model = CostModel(
        statistics if statistics is not None else Statistics(database, scans)
    )
    model.annotate(top)
    context = ExecutionContext(database, scans)
    if execute:
        top.materialize_encoded(context)
    return render_plan(top, run=context.run, estimates=model.row_estimates())


def evaluate_with_plan(
    query: ConjunctiveQuery,
    database: Instance,
    planner: Optional[Planner] = None,
    *,
    scans: Optional[ScanProvider] = None,
) -> Set[Tuple[Term, ...]]:
    """Plan and execute ``query`` over ``database``; return the answer set.

    ``planner`` defaults to :func:`resolve_planner`'s choice (the Selinger
    DP); a callable pins another.
    """
    planner = resolve_planner(planner)
    # One cache for the planner's statistics and the executed scans, so a
    # one-shot call reads each base relation once.
    scans = default_scans(database, scans)
    plan = planner(query, database, scans=scans)
    return execute_plan(plan, database, scans=scans).answers


def iter_with_plan(
    query: ConjunctiveQuery,
    database: Instance,
    planner: Optional[Planner] = None,
    *,
    scans: Optional[ScanProvider] = None,
    limit: Optional[int] = None,
) -> Iterator[Tuple[Term, ...]]:
    """Plan ``query`` and stream its answers (see :func:`iter_plan_answers`).

    The default planner resolves in *streaming* mode: left-deep chains
    only, so the pipelined executor does bounded work per answer instead
    of materialising a bushy build side first.
    """
    planner = resolve_planner(planner, streaming=True)
    scans = default_scans(database, scans)
    plan = planner(query, database, scans=scans)
    return iter_plan_answers(plan, database, scans=scans, limit=limit)


def boolean_with_plan(
    query: ConjunctiveQuery,
    database: Instance,
    planner: Optional[Planner] = None,
    *,
    scans: Optional[ScanProvider] = None,
) -> bool:
    """Boolean evaluation through a join plan (first-answer short-circuit).

    The pipelined chain stops at the first answer, so only the base scans —
    never a join prefix — are materialised in full.
    """
    for _ in iter_with_plan(query, database, planner=planner, scans=scans, limit=1):
        return True
    return False
