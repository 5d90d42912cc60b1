"""The tuple-at-a-time operator engine: the differential oracle.

The engine in :mod:`repro.evaluation.operators` runs every plan over
dictionary-encoded integer columns.  This module runs the *same* compiled
plans one term tuple at a time over :class:`~repro.evaluation.relation
.Relation` objects, reading nothing but each operator's compile-time
fields (schema, children, atom, binding, key positions, join tree), so a
disagreement between the two is a bug in the engine's kernels, encoding
or batching — never in the plan both executed.

* :func:`materialize` / :func:`iter_rows` dispatch on the operator type:
  the materialising face (memoised per call, so DAG-shared sub-operators
  run once) and the streaming face (pipelining operators stream their
  left/only input and never materialise their own output).  Both record
  observed rows and bucket probes in the context's run map, like the
  engine does.
* :func:`scan_atom` scans one atom's facts straight from the database:
  the oracle never reads through the engine's scan cache.
* :func:`semijoin` and :func:`join` are the single-pass hash-partitioned
  relational operators the faces use; :func:`select` and :func:`distinct`
  complete the term-level algebra ``tests/test_relation.py`` checks.
* :func:`evaluate`, :func:`iter_answers`, :func:`boolean`,
  :func:`execute_plan`, :func:`iter_with_plan`, :func:`evaluate_with_plan`,
  :func:`evaluate_route` and :func:`iter_route` mirror the engine's entry
  points on top.
"""

from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.datamodel import Atom, Instance, Term, Variable
from repro.evaluation import (
    BagNode,
    CursorEnumerate,
    ExecutionContext,
    HashJoin,
    Operator,
    PlanExecution,
    Project,
    Relation,
    Scan,
    SemiJoin,
    compile_plan,
    resolve_planner,
    resolve_route,
)
from repro.evaluation.operators import _Enumeration, first_occurrence_schema
from repro.evaluation.relation import Row, compile_scan_pattern
from repro.queries.cq import ConjunctiveQuery

Memo = Dict[Operator, Relation]
Answers = Set[Tuple[Term, ...]]


# ----------------------------------------------------------------------
# Relational operators over term tuples
# ----------------------------------------------------------------------
def scan_atom(atom: Atom, database: Instance) -> Relation:
    """The matches of one query atom, in one pass over its predicate's facts.

    The schema lists the atom's variables in order of first occurrence;
    constants and repeated variables act as selections, checked per fact.
    """
    pattern = compile_scan_pattern(atom.terms)
    rows: List[Row] = []
    for fact in database.atoms_with_predicate(atom.predicate):
        terms = fact.terms
        if all(terms[p] == constant for p, constant in pattern.constant_checks) and all(
            terms[p] == terms[first] for p, first in pattern.equality_checks
        ):
            rows.append(tuple(terms[p] for p in pattern.output_positions))
    return Relation(pattern.variables, rows)


def _shared(left: Relation, right: Relation) -> Tuple[Variable, ...]:
    """The join variables, in ``left``'s schema order."""
    return tuple(v for v in left.schema if v in right.variables())


def _key_positions(relation: Relation, variables) -> Tuple[int, ...]:
    return tuple(relation.position(v) for v in variables)


def semijoin(left: Relation, right: Relation) -> Relation:
    """``left ⋉ right``: one pass over ``left`` against ``right``'s cached
    partition; all or nothing when no variable is shared."""
    shared = _shared(left, right)
    if not shared:
        return Relation(left.schema, left.rows if right.rows else [])
    partition = right.partition(shared)
    positions = _key_positions(left, shared)
    return Relation(
        left.schema,
        [row for row in left.rows if tuple(row[p] for p in positions) in partition],
    )


def join(left: Relation, right: Relation) -> Relation:
    """Natural hash join ``left ⋈ right`` (cross product when nothing is
    shared); one counted bucket probe per left row on a shared key."""
    shared = _shared(left, right)
    residual = tuple(
        i for i, variable in enumerate(right.schema) if variable not in left.variables()
    )
    schema = left.schema + tuple(right.schema[i] for i in residual)
    rows: List[Row] = []
    if not shared:
        for row in left.rows:
            for match in right.rows:
                rows.append(row + tuple(match[i] for i in residual))
        return Relation(schema, rows)
    partition = right.partition(shared)
    positions = _key_positions(left, shared)
    for row in left.rows:
        for match in partition.get(tuple(row[p] for p in positions)):
            rows.append(row + tuple(match[i] for i in residual))
    return Relation(schema, rows)


def select(relation: Relation, binding: Mapping[Variable, Term]) -> Relation:
    """The rows agreeing with ``binding``; variables outside the schema are
    ignored (they cannot disagree)."""
    checks = tuple(
        (relation.position(variable), term)
        for variable, term in binding.items()
        if variable in relation.variables()
    )
    return Relation(
        relation.schema,
        [row for row in relation.rows if all(row[p] == term for p, term in checks)],
    )


def distinct(relation: Relation) -> Relation:
    """The relation with duplicate rows removed (order preserved)."""
    return relation.project(relation.schema)


# ----------------------------------------------------------------------
# The two faces, dispatched on operator type
# ----------------------------------------------------------------------
def materialize(
    op: Operator, context: ExecutionContext, memo: Optional[Memo] = None
) -> Relation:
    """The full output of ``op`` as a term relation (once per ``memo``)."""
    memo = {} if memo is None else memo
    if op not in memo:
        result = _materialize(op, context, memo)
        context.run[op].rows = len(result)
        memo[op] = result
    return memo[op]


def _materialize(op: Operator, context: ExecutionContext, memo: Memo) -> Relation:
    if isinstance(op, Scan):
        return scan_atom(op.atom, context.database)
    if isinstance(op, CursorEnumerate):
        # The streamed carry tuples are distinct by construction.
        return Relation(op.schema, list(iter_rows(op, context, memo)))
    child = materialize(op.children[0], context, memo)
    if isinstance(op, Project):
        return child.project(op.schema)
    if isinstance(op, BagNode):
        return child
    if isinstance(op, (SemiJoin, HashJoin)):
        if child.is_empty():
            return Relation(op.schema, [])
        right = materialize(op.children[1], context, memo)
        if isinstance(op, SemiJoin):
            return semijoin(child, right)
        op._record_probes(context.run[op], len(child))
        return join(child, right)
    raise TypeError(f"the tuple engine has no face for {type(op).__name__}")


def iter_rows(
    op: Operator, context: ExecutionContext, memo: Optional[Memo] = None
) -> Iterator[Row]:
    """Stream the output rows of ``op`` one term tuple at a time.

    Pipelining operators stream their left/only input; everything else
    materialises and iterates.  ``rows`` in the run record counts the rows
    actually pulled.
    """
    memo = {} if memo is None else memo
    if isinstance(op, BagNode):
        return iter_rows(op.children[0], context, memo)
    if isinstance(op, (Project, SemiJoin, HashJoin, CursorEnumerate)):
        return _stream(op, context, memo)
    return iter(materialize(op, context, memo).rows)


def _stream(op: Operator, context: ExecutionContext, memo: Memo) -> Iterator[Row]:
    record = context.run[op]
    record.rows = 0
    if isinstance(op, CursorEnumerate):
        rows = _enumerate(op, context, memo, record)
    elif isinstance(op, Project):
        child = iter_rows(op.children[0], context, memo)
        positions = tuple(op.children[0].schema.index(v) for v in op.schema)
        rows = _dedup(tuple(row[p] for p in positions) for row in child)
    else:
        right = materialize(op.children[1], context, memo)
        if right.is_empty():
            return
        rows = _probe(op, right, iter_rows(op.children[0], context, memo), record)
    for row in rows:
        record.rows += 1
        yield row


def _dedup(rows: Iterator[Row]) -> Iterator[Row]:
    seen: Set[Row] = set()
    for row in rows:
        if row not in seen:
            seen.add(row)
            yield row


def _probe(op, right: Relation, left: Iterator[Row], record) -> Iterator[Row]:
    """Stream ``left`` against ``right``'s cached partition (semi-join or
    join); a join counts one probe per left row on a shared key."""
    shared = op._shared
    if isinstance(op, SemiJoin):
        if not shared:
            yield from left
            return
        partition = right.partition(shared)
        for row in left:
            if tuple(row[p] for p in op._left_key) in partition:
                yield row
        return
    residual = op._right_residual
    if not shared:
        for row in left:
            for match in right.rows:
                yield row + tuple(match[i] for i in residual)
        return
    partition = right.partition(shared)
    record.probes = record.probes or 0
    for row in left:
        record.probes += 1
        for match in partition.get(tuple(row[p] for p in op._left_key)):
            yield row + tuple(match[i] for i in residual)


def _enumerate(op: CursorEnumerate, context: ExecutionContext, memo: Memo, record):
    """The engine's memoised cursor enumeration, over term relations."""
    relations: Dict[int, Relation] = {}
    for identifier in op._bottom_up:
        relation = materialize(op.node_ops[identifier], context, memo)
        if relation.is_empty():
            return
        relations[identifier] = relation
    enumeration = _Enumeration(record, op._node_plans(relations))
    try:
        yield from enumeration.cursor(op.tree.root, ())
    finally:
        enumeration.memos.clear()


# ----------------------------------------------------------------------
# Entry points, mirroring the engine's
# ----------------------------------------------------------------------
def evaluate(evaluator, database: Instance, *, scans=None) -> Answers:
    """``YannakakisEvaluator.evaluate`` (or a subclass's) on tuples."""
    return answer_relation(evaluator, database, scans=scans).answer_tuples(
        evaluator.query.head
    )


def answer_relation(evaluator, database: Instance, *, scans=None) -> Relation:
    plan = evaluator.compile_answer_plan()
    return materialize(plan, ExecutionContext(database, scans))


def iter_answers(
    evaluator, database: Instance, *, scans=None, limit=None, reduce=True
) -> Iterator[Tuple[Term, ...]]:
    """``YannakakisEvaluator.iter_answers`` on tuples."""
    plan = evaluator.compile_stream_plan(reduce=reduce)
    head_positions = tuple(plan.schema.index(v) for v in evaluator.query.head)
    rows = iter_rows(plan, ExecutionContext(database, scans))
    return _limited((tuple(row[p] for p in head_positions) for row in rows), limit)


def boolean(evaluator, database: Instance, *, scans=None) -> bool:
    plan = evaluator.compile_stream_plan(reduce=False, boolean=True)
    for _ in iter_rows(plan, ExecutionContext(database, scans)):
        return True
    return False


def _limited(answers: Iterator[Tuple[Term, ...]], limit: Optional[int]):
    """At most ``limit`` answers, pulling none past the last one yielded."""
    if limit is not None and limit <= 0:
        return
    for produced, answer in enumerate(answers, 1):
        yield answer
        if limit is not None and produced >= limit:
            return


def execute_plan(plan, database: Instance, *, scans=None) -> PlanExecution:
    """``join_plans.execute_plan`` on tuples: the chain materialised step by
    step, stopping at the first empty intermediate."""
    context = ExecutionContext(database, scans)
    memo: Memo = {}
    relation = Relation.unit()
    sizes: List[int] = []
    for op in compile_plan(plan):
        relation = materialize(op, context, memo)
        sizes.append(len(relation))
        if relation.is_empty():
            break
    answers: Answers = set()
    if relation and (plan.steps or not plan.query.body):
        answers = relation.answer_tuples(plan.query.head)
    return PlanExecution(answers=answers, intermediate_sizes=sizes)


def iter_plan_answers(plan, database: Instance, *, scans=None, limit=None):
    """``join_plans.iter_plan_answers`` on tuples: the pipelined chain."""
    if not plan.steps:
        return _limited(iter([()] if not plan.query.body else []), limit)
    head_schema = first_occurrence_schema(plan.query.head)
    top = Project(compile_plan(plan)[-1], head_schema)
    head_positions = tuple(head_schema.index(v) for v in plan.query.head)
    rows = iter_rows(top, ExecutionContext(database, scans))
    return _limited((tuple(row[p] for p in head_positions) for row in rows), limit)


def evaluate_with_plan(
    query: ConjunctiveQuery, database: Instance, planner=None, *, scans=None
) -> Answers:
    plan = resolve_planner(planner)(query, database, scans=scans)
    return execute_plan(plan, database, scans=scans).answers


def iter_with_plan(
    query: ConjunctiveQuery, database: Instance, planner=None, *, scans=None, limit=None
):
    plan = resolve_planner(planner, streaming=True)(query, database, scans=scans)
    return iter_plan_answers(plan, database, scans=scans, limit=limit)


def evaluate_route(
    query: ConjunctiveQuery, database: Instance, *, tgds=(), engine: str = "auto"
) -> Answers:
    """The answer set of the route ``evaluate_iter`` picks, on tuples."""
    _, evaluator = resolve_route(query, tgds=tgds, engine=engine)
    if evaluator is not None:
        return evaluate(evaluator, database)
    return evaluate_with_plan(query, database)


def iter_route(
    query: ConjunctiveQuery, database: Instance, *, tgds=(), engine: str = "auto"
) -> Iterator[Tuple[Term, ...]]:
    """The answers of the route ``evaluate_iter`` picks, streamed on tuples."""
    _, evaluator = resolve_route(query, tgds=tgds, engine=engine)
    if evaluator is not None:
        return iter_answers(evaluator, database)
    return iter_with_plan(query, database)
