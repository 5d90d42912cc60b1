"""Join-order planning for conjunctive query evaluation.

The generic evaluator of :mod:`repro.evaluation.generic` explores the query
atoms in the order they were written, which is the textbook worst case for
backtracking joins.  This module adds the standard database-systems remedy —
a cost-based join order — so that the benchmarks can compare three points of
the design space on the same workloads:

1. naive backtracking in query order (``evaluate_generic``);
2. hash joins over a greedily chosen join order (this module, compiled onto
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
:mod:`repro.evaluation.planner_dp` (``REPRO_PLANNER`` overrides it — see
:func:`resolve_planner`); the greedy planner survives as
:func:`plan_greedy`, the differential baseline.  The two execution faces
come straight from the IR:

* :func:`execute_plan` materialises step by step and records every
  intermediate-result size (the ablation benchmarks and the cost-model
  calibration want them);
* :func:`iter_plan_answers` runs the *streaming* face: the whole left-deep
  chain pipelines (each pulled row probes the next scan's cached
  partition), so nothing but the base scans is ever materialised and
  ``limit``-style consumers stop the entire chain after a handful of
  bucket probes — there is no materialised join prefix any more.

Cardinality estimation is statistics-calibrated: the planners score
candidate orders with the :class:`~repro.evaluation.operators.CostModel`
(per-column distinct counts, bucket-size histograms, textbook join
selectivities) instead of the historical 1/10-per-constraint guess.  The
old heuristic survives as :func:`estimate_cardinality` /
:func:`plan_greedy_heuristic` — the baseline that
``benchmarks/bench_plan_quality.py`` and the calibration guard in
``tests/test_plan_calibration.py`` measure the calibrated model against.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..datamodel import Atom, Constant, Instance, Term, Variable
from ..queries.cq import ConjunctiveQuery
from .operators import (
    CardinalityEstimate,
    CostModel,
    ExecutionContext,
    HashJoin,
    Operator,
    Project,
    Scan,
    Statistics,
    first_occurrence_schema,
)
from .relation import Relation, ScanProvider


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
    """

    query: ConjunctiveQuery
    steps: List[PlanStep] = field(default_factory=list)
    tree: Optional[PlanTree] = None

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
def estimate_cardinality(atom: Atom, database: Instance) -> int:
    """The *legacy heuristic* estimate of the facts matching ``atom``.

    Relation size, discounted by one fixed factor of 10 per constant or
    repeated-variable constraint — monotone but blind to the actual value
    distributions.  Superseded by the statistics-calibrated
    :meth:`~repro.evaluation.operators.CostModel.scan_estimate` everywhere
    the planners run; kept as the baseline of
    :func:`plan_greedy_heuristic` and of
    ``benchmarks/bench_plan_quality.py``.
    """
    base = len(database.atoms_with_predicate(atom.predicate))
    constraints = sum(1 for term in atom.terms if isinstance(term, Constant))
    seen: Set[Term] = set()
    for term in atom.terms:
        if isinstance(term, Variable):
            if term in seen:
                constraints += 1
            seen.add(term)
    for _ in range(constraints):
        base = max(1, base // 10) if base else 0
    return base


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


def plan_in_query_order(
    query: ConjunctiveQuery,
    database: Instance,
    *,
    scans: Optional[ScanProvider] = None,
    statistics: Optional[Statistics] = None,
    backend: Optional[str] = None,
) -> JoinPlan:
    """The "no planning" plan: atoms in the order they appear in the query."""
    del backend  # planning is backend-independent; accepted for uniformity
    model = _cost_model(database, scans, statistics)
    return _plan_from_order(query, list(query.body), model)


def plan_by_cardinality(
    query: ConjunctiveQuery,
    database: Instance,
    *,
    scans: Optional[ScanProvider] = None,
    statistics: Optional[Statistics] = None,
    backend: Optional[str] = None,
) -> JoinPlan:
    """Left-deep plan ordering atoms by estimated scan cardinality only."""
    del backend
    model = _cost_model(database, scans, statistics)
    ordered = sorted(
        query.body, key=lambda atom: (model.scan_estimate(atom).rows, str(atom))
    )
    return _plan_from_order(query, ordered, model)


def plan_greedy(
    query: ConjunctiveQuery,
    database: Instance,
    *,
    scans: Optional[ScanProvider] = None,
    statistics: Optional[Statistics] = None,
    backend: Optional[str] = None,
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
    del backend
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


def plan_greedy_heuristic(
    query: ConjunctiveQuery,
    database: Instance,
    *,
    scans: Optional[ScanProvider] = None,
    statistics: Optional[Statistics] = None,
    backend: Optional[str] = None,
) -> JoinPlan:
    """The historical greedy planner driven by :func:`estimate_cardinality`.

    Connected atoms preferred, ordered by the 1/10-per-constraint scan
    heuristic alone (no join selectivities).  Kept as the ablation baseline
    for ``benchmarks/bench_plan_quality.py``; the step estimates recorded
    on the plan still come from the calibrated model, so only the *order*
    differs from :func:`plan_greedy`.
    """
    del backend
    model = _cost_model(database, scans, statistics)
    remaining = list(query.body)
    if not remaining:
        return JoinPlan(query)

    ordered: List[Atom] = []
    bound_variables: Set[Variable] = set()
    first = min(
        remaining, key=lambda atom: (estimate_cardinality(atom, database), str(atom))
    )
    ordered.append(first)
    bound_variables.update(first.variables())
    remaining.remove(first)

    while remaining:
        connected = [atom for atom in remaining if atom.variables() & bound_variables]
        pool = connected or remaining
        chosen = min(
            pool, key=lambda atom: (estimate_cardinality(atom, database), str(atom))
        )
        ordered.append(chosen)
        bound_variables.update(chosen.variables())
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
PLANNER_ENV = "REPRO_PLANNER"

Planner = Callable[..., JoinPlan]


def resolve_planner(
    planner: Union[Planner, str, None] = None, *, streaming: bool = False
) -> Planner:
    """Resolve a planner callable from a name, the environment, or default.

    ``None`` consults the ``REPRO_PLANNER`` environment variable and falls
    back to ``"dp"`` — the Selinger dynamic program of
    :mod:`repro.evaluation.planner_dp` is the default planner.  Accepted
    names: ``dp``, ``greedy``, ``heuristic``, ``cardinality``,
    ``query-order``.  A callable passes through unchanged, so existing
    ``planner=plan_greedy`` call sites keep working.

    ``streaming=True`` resolves ``"dp"`` to the left-deep restriction
    :func:`~repro.evaluation.planner_dp.plan_dp_linear` instead: bushy
    build sides would have to be materialised before the first answer,
    breaking the streaming face's bounded-work-per-answer contract, so
    enumeration entry points plan left-deep chains only.
    """
    if callable(planner):
        return planner
    name = planner
    if name is None:
        name = os.environ.get(PLANNER_ENV, "").strip().lower() or "dp"
    if name == "dp":
        # Lazy: planner_dp imports this module.
        from .planner_dp import plan_dp, plan_dp_linear

        return plan_dp_linear if streaming else plan_dp
    registry: dict = {
        "greedy": plan_greedy,
        "heuristic": plan_greedy_heuristic,
        "cardinality": plan_by_cardinality,
        "query-order": plan_in_query_order,
    }
    try:
        return registry[name]
    except KeyError:
        raise ValueError(
            f"unknown planner {name!r}; expected one of "
            "'dp', 'greedy', 'heuristic', 'cardinality', 'query-order'"
        ) from None


# ----------------------------------------------------------------------
# Compilation and execution
# ----------------------------------------------------------------------
def _maybe_verify(root: Operator, *, streaming: bool = False, where: str = "") -> None:
    """The ``REPRO_VERIFY`` seam for the plan route (lazy, env-gated)."""
    from ..analysis.verify_plan import maybe_verify

    maybe_verify(root, streaming=streaming, where=where)


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
    backend: Optional[str] = None,
) -> PlanExecution:
    """Execute a join plan on its materialising face over the IR.

    Each chain operator is materialised in order (a step costs time linear
    in its inputs plus its output) and its observed cardinality recorded,
    so the ablation benchmarks and the calibration tests read real
    intermediate sizes.  Execution stops early when an intermediate comes
    up empty.  ``scans`` injects a shared scan provider for the base-atom
    scans (see :meth:`Relation.from_atom`).
    """
    context = ExecutionContext(database, scans, backend=backend)
    ops = compile_plan(plan)
    if ops:
        _maybe_verify(ops[-1], where="join_plans.execute_plan")
    intermediate_sizes: List[int] = []
    answers: Set[Tuple[Term, ...]] = set()
    if context.backend == "columnar":
        # Same step-by-step shape, on the batch face: each chain operator
        # materialises encoded and decoding happens once, at the head.
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
    relation = Relation.unit()
    for op in ops:
        relation = op.materialize(context)
        intermediate_sizes.append(len(relation))
        if relation.is_empty():
            break

    if relation and (plan.steps or not plan.query.body):
        answers = relation.answer_tuples(plan.query.head)
    return PlanExecution(answers=answers, intermediate_sizes=intermediate_sizes)


def iter_plan_answers(
    plan: JoinPlan,
    database: Instance,
    *,
    scans: Optional[ScanProvider] = None,
    limit: Optional[int] = None,
    backend: Optional[str] = None,
) -> Iterator[Tuple[Term, ...]]:
    """Stream a plan's answers through the fully pipelined operator chain.

    The streaming face of the left-deep chain: every pulled row flows from
    the first scan through one cached-partition probe per later step, a
    head :class:`~repro.evaluation.operators.Project` deduplicates on the
    fly, and nothing but the base scans is ever materialised — the join
    prefix that the pre-IR implementation used to build is gone, so
    ``limit``-style consumption costs bucket probes proportional to the
    answers pulled, not to the prefix size.

    The set of yielded tuples equals ``execute_plan(...).answers`` exactly,
    with no tuple yielded twice.
    """
    if limit is not None and limit <= 0:
        return
    if not plan.steps:
        if not plan.query.body:
            yield ()  # the nullary query: one empty answer over any database
        return

    ops = compile_plan(plan)
    head_schema = first_occurrence_schema(plan.query.head)
    top = Project(ops[-1], head_schema)
    _maybe_verify(top, streaming=True, where="join_plans.iter_plan_answers")
    head_positions = tuple(head_schema.index(v) for v in plan.query.head)

    context = ExecutionContext(database, scans, backend=backend)
    produced = 0
    if context.backend == "columnar":
        # The chain pipelines batch-at-a-time; codes are decoded only here.
        terms = context.encoder.terms
        for batch in top.iter_batches(context):
            for code_row in batch.rows:
                yield tuple(terms[code_row[p]] for p in head_positions)
                produced += 1
                if limit is not None and produced >= limit:
                    return
        return
    for row in top.iter_rows(context):
        yield tuple(row[p] for p in head_positions)
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
    backend: Optional[str] = None,
) -> str:
    """Pretty-print a compiled plan with estimated vs. observed rows.

    The chain (topped by the head projection) is annotated with the
    statistics-calibrated cost model and, unless ``execute=False``, run on
    its materialising face so every operator also reports its observed
    cardinality.  Body of the plan-route ``explain`` in
    :mod:`repro.evaluation.semacyclic_eval`; pass the ``statistics`` the
    planner already built to avoid re-deriving them.
    """
    from .operators import render_plan

    if not plan.steps:
        return "(empty plan: the nullary query)"
    ops = compile_plan(plan)
    top: Operator = Project(ops[-1], first_occurrence_schema(plan.query.head))
    _maybe_verify(top, where="join_plans.explain_plan")
    model = CostModel(
        statistics if statistics is not None else Statistics(database, scans)
    )
    model.annotate(top)
    if execute:
        context = ExecutionContext(database, scans, backend=backend)
        if context.backend == "columnar":
            top.materialize_encoded(context)
        else:
            top.materialize(context)
    return render_plan(top)


def _default_scans(
    database: Instance, scans: Optional[ScanProvider]
) -> ScanProvider:
    """One :class:`ScanCache` shared by planning statistics and execution.

    Without it, the planner's :class:`Statistics` would materialise every
    base relation for its distinct counts and the compiled ``Scan``
    operators would then re-scan the same relations from scratch — two
    full passes over the database per single-query call.
    """
    if scans is not None:
        return scans
    from .batch import ScanCache  # lazy: batch imports this module

    return ScanCache(database)


def evaluate_with_plan(
    query: ConjunctiveQuery,
    database: Instance,
    planner: Union[Planner, str, None] = None,
    *,
    scans: Optional[ScanProvider] = None,
    backend: Optional[str] = None,
) -> Set[Tuple[Term, ...]]:
    """Plan and execute ``query`` over ``database``; return the answer set.

    ``planner`` defaults to :func:`resolve_planner`'s choice (the Selinger
    DP unless ``REPRO_PLANNER`` overrides it); a name or callable pins one.
    """
    planner = resolve_planner(planner)
    scans = _default_scans(database, scans)
    plan = planner(query, database, scans=scans)
    return execute_plan(
        plan, database, scans=scans, backend=backend
    ).answers


def iter_with_plan(
    query: ConjunctiveQuery,
    database: Instance,
    planner: Union[Planner, str, None] = None,
    *,
    scans: Optional[ScanProvider] = None,
    limit: Optional[int] = None,
    backend: Optional[str] = None,
) -> Iterator[Tuple[Term, ...]]:
    """Plan ``query`` and stream its answers (see :func:`iter_plan_answers`).

    The default planner resolves in *streaming* mode: left-deep chains
    only, so the pipelined executor does bounded work per answer instead
    of materialising a bushy build side first.
    """
    planner = resolve_planner(planner, streaming=True)
    scans = _default_scans(database, scans)
    plan = planner(query, database, scans=scans)
    return iter_plan_answers(
        plan, database, scans=scans, limit=limit, backend=backend
    )


def boolean_with_plan(
    query: ConjunctiveQuery,
    database: Instance,
    planner: Union[Planner, str, None] = None,
    *,
    scans: Optional[ScanProvider] = None,
    backend: Optional[str] = None,
) -> bool:
    """Boolean evaluation through a join plan (first-answer short-circuit).

    The pipelined chain stops at the first answer, so only the base scans —
    never a join prefix — are materialised in full.
    """
    for _ in iter_with_plan(
        query,
        database,
        planner=planner,
        scans=scans,
        limit=1,
        backend=backend,
    ):
        return True
    return False
