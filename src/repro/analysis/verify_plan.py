"""Static verification of physical-operator plans — no execution involved.

:func:`verify_plan` walks any :mod:`repro.evaluation.operators` DAG bottom-up
and re-derives every invariant the executor silently relies on, reporting
violations as :class:`~repro.analysis.diagnostics.Diagnostic` records:

======== ========================================================== ========
code     invariant                                                  severity
======== ========================================================== ========
PLAN001  the operator graph is a DAG (no cycles)                    error
PLAN002  schemas are tuples of distinct variables                   error
PLAN003  each operator type has its exact child count               error
PLAN004  Project targets are bound by the input                     error
PLAN005  join/semi-join key positions agree with both operands      error
PLAN006  output schema matches the operator's semantics             error
PLAN007  CursorEnumerate tree, node ops and carries are in sync     error
PLAN008  estimates present on every node once any node has one      warning
PLAN009  estimates are finite and non-negative                      error
PLAN010  scan atoms are well-formed (arity, no nulls)               error
PLAN011  streaming: a cursor plan keeps CursorEnumerate at the root warning
PLAN012  streaming: hash-join build sides are join subtrees         warning
PLAN013  batch face: operator type is in the width registry         warning
PLAN014  batch face: width/run's encoding agree with the schema     error
PLAN015  bag nodes agree with their schema and decomposition tree   error
PLAN016  a run's scan results carry the expected database epoch     error
======== ========================================================== ========

The key idea is *recomputation*: the verifier re-runs the same position
arithmetic the compilers used (``_shared_schema``, ``compile_scan_pattern``,
projection index resolution) from the child schemas alone and compares the
result with what the node actually stores.  A plan mutated after
construction — a dropped join key, a re-rooted child, a stale projection —
is therefore caught even though each individual attribute still "looks"
plausible.

``streaming=True`` additionally applies the stream shape checks
(PLAN011/PLAN012); materialising plans — e.g. the bushy Yannakakis answer
assembly — are verified without them.

The encoded columns the operators run on are covered by
:data:`_BATCH_WIDTHS`: for every registered operator type the verifier
recomputes the integer-column width its ``_materialize_encoded`` produces
and compares it with ``len(op.schema)``; given a run map (``run=``), the
encoded result a run memoised for the node must agree with the schema too
(PLAN014).  An operator type outside the registry cannot be checked and is
reported as PLAN013 — :mod:`scripts.lint_conventions` enforces that every
operator overriding ``_materialize_encoded`` is registered here.  Batch
checks run only on nodes whose schema invariants verified clean, so a
corrupted node reports the precise schema code rather than a duplicate.

:func:`verify_or_raise` turns ERROR findings into a
:class:`PlanVerificationError`; :func:`maybe_verify` is the ``REPRO_VERIFY``
environment hook the evaluation seams call on every emitted plan.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..datamodel import Null, Variable
from ..evaluation.operators import (
    BagNode,
    CursorEnumerate,
    HashJoin,
    NodeRun,
    Operator,
    Project,
    Scan,
    SemiJoin,
    _shared_schema,
)
from ..evaluation.relation import compile_scan_pattern
from .diagnostics import Diagnostic, Severity, errors

#: A run map (:attr:`repro.evaluation.operators.ExecutionContext.run`).
Run = Mapping[Operator, NodeRun]


class PlanVerificationError(AssertionError):
    """An emitted plan failed static verification (ERROR diagnostics)."""

    def __init__(self, diagnostics: Sequence[Diagnostic], where: str = "") -> None:
        self.diagnostics = list(diagnostics)
        location = f" in {where}" if where else ""
        details = "; ".join(d.render() for d in self.diagnostics)
        super().__init__(f"plan verification failed{location}: {details}")


def verification_enabled() -> bool:
    """Whether the ``REPRO_VERIFY`` environment hook is switched on."""
    return os.environ.get("REPRO_VERIFY", "").strip().lower() not in (
        "",
        "0",
        "false",
        "no",
        "off",
    )


def _label(operator: Operator) -> str:
    try:
        return operator.label()
    except Exception:
        return type(operator).__name__


# ----------------------------------------------------------------------
# Traversal
# ----------------------------------------------------------------------
def _collect(root: Operator) -> Tuple[List[Operator], List[Diagnostic]]:
    """Post-order unique nodes plus PLAN001 diagnostics for back edges.

    Iterative three-colour DFS; a back edge is reported once and not
    followed, so the verifier terminates even on cyclic "DAGs".
    """
    diagnostics: List[Diagnostic] = []
    order: List[Operator] = []
    GREY, BLACK = 1, 2
    colour: Dict[int, int] = {}
    stack: List[Tuple[Operator, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            colour[id(node)] = BLACK
            order.append(node)
            continue
        if colour.get(id(node)) is not None:
            continue
        colour[id(node)] = GREY
        stack.append((node, True))
        for child in reversed(tuple(node.children)):
            state = colour.get(id(child))
            if state == GREY:
                diagnostics.append(
                    Diagnostic(
                        "PLAN001",
                        Severity.ERROR,
                        f"operator {_label(child)} is its own ancestor",
                        subject=_label(node),
                    )
                )
                continue
            if state is None:
                stack.append((child, False))
    return order, diagnostics


# ----------------------------------------------------------------------
# Per-node checks
# ----------------------------------------------------------------------
_CHILD_COUNTS = {
    Scan: 0,
    Project: 1,
    BagNode: 1,
    SemiJoin: 2,
    HashJoin: 2,
}

#: Batch-face width registry: for each operator type, recompute the number
#: of integer columns its ``_materialize_encoded`` implementation produces,
#: from the child schemas and the operator's own stored position arithmetic.
#: Keyed by exact type — a subclass may change the batch semantics, so it
#: must register explicitly.  ``lint_conventions.py`` cross-checks this
#: registry against ``operators.py``.
_BATCH_WIDTHS = {
    Scan: lambda op: len(compile_scan_pattern(op.atom.terms).variables),
    Project: lambda op: len(op._positions),
    SemiJoin: lambda op: len(op.children[0].schema),
    HashJoin: lambda op: len(op.children[0].schema) + len(op._right_residual),
    BagNode: lambda op: len(op.children[0].schema),
    CursorEnumerate: lambda op: len(op.node_carry[op.tree.root]),
}


def _check_schema(operator: Operator, diagnostics: List[Diagnostic]) -> bool:
    schema = operator.schema
    label = _label(operator)
    if not isinstance(schema, tuple) or any(
        not isinstance(entry, Variable) for entry in schema
    ):
        diagnostics.append(
            Diagnostic(
                "PLAN002",
                Severity.ERROR,
                f"schema {schema!r} contains a non-variable entry",
                subject=label,
            )
        )
        return False
    if len(set(schema)) != len(schema):
        diagnostics.append(
            Diagnostic(
                "PLAN002",
                Severity.ERROR,
                f"schema ({', '.join(map(str, schema))}) repeats a variable",
                subject=label,
            )
        )
        return False
    return True


def _check_child_count(operator: Operator, diagnostics: List[Diagnostic]) -> bool:
    label = _label(operator)
    if isinstance(operator, CursorEnumerate):
        try:
            expected = len(operator.tree)
        except Exception:
            expected = None
        if expected is not None and len(operator.children) != expected:
            diagnostics.append(
                Diagnostic(
                    "PLAN003",
                    Severity.ERROR,
                    f"expected one child per join-tree node ({expected}), "
                    f"got {len(operator.children)}",
                    subject=label,
                )
            )
            return False
        return True
    expected = _CHILD_COUNTS.get(type(operator))
    if expected is not None and len(operator.children) != expected:
        diagnostics.append(
            Diagnostic(
                "PLAN003",
                Severity.ERROR,
                f"{type(operator).__name__} takes {expected} "
                f"child(ren), got {len(operator.children)}",
                subject=label,
            )
        )
        return False
    return True


def _check_scan(operator: Scan, diagnostics: List[Diagnostic]) -> None:
    atom = operator.atom
    label = _label(operator)
    if len(atom.terms) != atom.predicate.arity:
        diagnostics.append(
            Diagnostic(
                "PLAN010",
                Severity.ERROR,
                f"atom has {len(atom.terms)} terms but predicate "
                f"{atom.predicate.name} has arity {atom.predicate.arity}",
                subject=label,
            )
        )
        return
    if any(isinstance(term, Null) for term in atom.terms):
        diagnostics.append(
            Diagnostic(
                "PLAN010",
                Severity.ERROR,
                "scan atom contains a labelled null",
                subject=label,
            )
        )
        return
    try:
        expected = tuple(compile_scan_pattern(atom.terms).variables)
    except Exception as error:
        diagnostics.append(
            Diagnostic(
                "PLAN010",
                Severity.ERROR,
                f"scan pattern does not compile: {error}",
                subject=label,
            )
        )
        return
    if operator.schema != expected:
        diagnostics.append(
            Diagnostic(
                "PLAN006",
                Severity.ERROR,
                f"scan schema ({', '.join(map(str, operator.schema))}) differs "
                f"from the atom's variables ({', '.join(map(str, expected))})",
                subject=label,
            )
        )


def _check_project(operator: Project, diagnostics: List[Diagnostic]) -> None:
    child = operator.children[0]
    label = _label(operator)
    available = set(child.schema)
    unbound = [v for v in operator.schema if v not in available]
    if unbound:
        diagnostics.append(
            Diagnostic(
                "PLAN004",
                Severity.ERROR,
                f"projection target(s) {', '.join(map(str, unbound))} are not "
                "bound by the input",
                subject=label,
            )
        )
        return
    expected = tuple(child.schema.index(v) for v in operator.schema)
    if operator._positions != expected:
        diagnostics.append(
            Diagnostic(
                "PLAN004",
                Severity.ERROR,
                f"projection positions {operator._positions} are stale "
                f"(recomputed {expected})",
                subject=label,
            )
        )


def _check_semijoin(operator: SemiJoin, diagnostics: List[Diagnostic]) -> None:
    left, right = operator.children
    label = _label(operator)
    shared, left_key, _ = _shared_schema(left, right)
    if (operator._shared, operator._left_key) != (shared, left_key):
        diagnostics.append(
            Diagnostic(
                "PLAN005",
                Severity.ERROR,
                f"semi-join keys ({', '.join(map(str, operator._shared))}) at "
                f"{operator._left_key} disagree with the operand schemas "
                f"(expected ({', '.join(map(str, shared))}) at {left_key})",
                subject=label,
            )
        )
    if operator.schema != left.schema:
        diagnostics.append(
            Diagnostic(
                "PLAN006",
                Severity.ERROR,
                "SemiJoin must preserve its left input schema",
                subject=label,
            )
        )


def _check_hashjoin(operator: HashJoin, diagnostics: List[Diagnostic]) -> None:
    left, right = operator.children
    label = _label(operator)
    shared, left_key, residual = _shared_schema(left, right)
    stored = (operator._shared, operator._left_key, operator._right_residual)
    if stored != (shared, left_key, residual):
        diagnostics.append(
            Diagnostic(
                "PLAN005",
                Severity.ERROR,
                f"hash-join keys/residual {stored} disagree with the operand "
                f"schemas (expected {(shared, left_key, residual)})",
                subject=label,
            )
        )
    expected_schema = left.schema + tuple(right.schema[i] for i in residual)
    if operator.schema != expected_schema:
        diagnostics.append(
            Diagnostic(
                "PLAN006",
                Severity.ERROR,
                f"hash-join schema ({', '.join(map(str, operator.schema))}) is "
                "not the left schema plus the right residual "
                f"({', '.join(map(str, expected_schema))})",
                subject=label,
            )
        )


def _check_bagnode(operator: BagNode, diagnostics: List[Diagnostic]) -> None:
    """PLAN015 (node-local): a bag marker passes its child through and its
    declared bag is exactly the schema the bag sub-plan produces."""
    label = _label(operator)
    child = operator.children[0]
    if operator.schema != child.schema:
        diagnostics.append(
            Diagnostic(
                "PLAN015",
                Severity.ERROR,
                f"bag node schema ({', '.join(map(str, operator.schema))}) "
                "differs from its sub-plan's "
                f"({', '.join(map(str, child.schema))})",
                subject=label,
            )
        )
        return
    if frozenset(operator.schema) != operator.bag:
        diagnostics.append(
            Diagnostic(
                "PLAN015",
                Severity.ERROR,
                f"declared bag {{{', '.join(sorted(map(str, operator.bag)))}}} "
                "disagrees with the materialised schema "
                f"({', '.join(map(str, operator.schema))})",
                subject=label,
            )
        )


def _check_bag_tree_sync(
    nodes: Sequence[Operator], diagnostics: List[Diagnostic]
) -> None:
    """PLAN015 (tree-level): bag operators agree with the decomposition tree.

    Wherever a cursor enumeration runs over bag operators, each bag's
    declared variables must equal the vertices of the join-tree node it
    is plugged into — a decomposition edge or bag mutated after
    compilation desynchronises the semijoin passes silently.  The
    semi-join reducers wrap each node's base operator, keeping it on the
    left spine, so the check unwraps ``SemiJoin`` chains first.
    """
    for node in nodes:
        if not isinstance(node, CursorEnumerate):
            continue
        try:
            tree = node.tree
            entries = list(node.node_ops.items())
        except Exception:
            continue  # PLAN007 covers a malformed enumeration
        for identifier, op in entries:
            while isinstance(op, SemiJoin) and op.children:
                op = op.children[0]
            if not isinstance(op, BagNode):
                continue
            try:
                vertices = frozenset(
                    term
                    for term in tree.node(identifier).vertices
                    if isinstance(term, Variable)
                )
            except Exception:
                continue
            if vertices != op.bag:
                diagnostics.append(
                    Diagnostic(
                        "PLAN015",
                        Severity.ERROR,
                        f"bag {{{', '.join(sorted(map(str, op.bag)))}}} of node "
                        f"{identifier} disagrees with the decomposition-tree "
                        "vertices "
                        f"{{{', '.join(sorted(map(str, vertices)))}}}",
                        subject=_label(op),
                    )
                )


def _check_enumerate(
    operator: CursorEnumerate, diagnostics: List[Diagnostic]
) -> None:
    label = _label(operator)

    def report(message: str) -> None:
        diagnostics.append(
            Diagnostic("PLAN007", Severity.ERROR, message, subject=label)
        )

    try:
        tree = operator.tree
        identifiers = set(tree.node_ids())
        if set(operator.node_ops) != identifiers:
            report("node operators do not cover the join-tree nodes exactly")
            return
        if set(operator.node_carry) != identifiers:
            report("carry schemas do not cover the join-tree nodes exactly")
            return
        bottom_up = tree.bottom_up_order()
        if list(operator._bottom_up) != bottom_up:
            report("cached bottom-up order is stale against the join tree")
            return
        if operator.children != tuple(operator.node_ops[i] for i in bottom_up):
            report("children are out of sync with the node operators")
            return
        if operator.schema != operator.node_carry[tree.root]:
            report("output schema differs from the root carry schema")
            return
        for identifier in bottom_up:
            node_schema = set(operator.node_ops[identifier].schema)
            probe = [
                term
                for term in tree.shared_with_parent(identifier)
                if isinstance(term, Variable)
            ]
            missing = [v for v in probe if v not in node_schema]
            if missing:
                report(
                    f"probe variable(s) {', '.join(map(str, missing))} of node "
                    f"{identifier} are not produced by its operator"
                )
                return
            child_carries: Set[Variable] = set()
            for child in tree.children(identifier):
                child_carries.update(operator.node_carry[child])
            orphaned = [
                v
                for v in operator.node_carry[identifier]
                if v not in node_schema and v not in child_carries
            ]
            if orphaned:
                report(
                    f"carry variable(s) {', '.join(map(str, orphaned))} of node "
                    f"{identifier} come from neither the node nor its children"
                )
                return
    except Exception as error:
        report(f"enumeration structure could not be checked: {error}")


def _check_batch_face(operator: Operator, diagnostics: List[Diagnostic], run: Run) -> None:
    """PLAN013/PLAN014: the encoded width agrees with the (clean) schema.

    Only called on nodes whose schema checks produced no findings, so a
    single corruption reports the precise schema code instead of being
    duplicated as a width mismatch.
    """
    label = _label(operator)
    recompute = _BATCH_WIDTHS.get(type(operator))
    if recompute is None:
        diagnostics.append(
            Diagnostic(
                "PLAN013",
                Severity.WARNING,
                f"{type(operator).__name__} is not in the width registry, "
                "so its encoded output width cannot be statically checked",
                subject=label,
            )
        )
        return
    try:
        width = recompute(operator)
    except Exception as error:
        diagnostics.append(
            Diagnostic(
                "PLAN014",
                Severity.ERROR,
                f"batch-face width could not be recomputed: {error}",
                subject=label,
            )
        )
        return
    if width != len(operator.schema):
        diagnostics.append(
            Diagnostic(
                "PLAN014",
                Severity.ERROR,
                f"batch face produces {width} integer column(s) but the "
                f"schema has width {len(operator.schema)}",
                subject=label,
            )
        )
        return
    record = run.get(operator)
    encoded = record.encoded if record is not None else None
    if encoded is not None and (
        tuple(encoded.schema) != tuple(operator.schema)
        or len(encoded.store.columns) != len(operator.schema)
    ):
        diagnostics.append(
            Diagnostic(
                "PLAN014",
                Severity.ERROR,
                "cached encoded result (schema "
                f"({', '.join(map(str, encoded.schema))}), "
                f"{len(encoded.store.columns)} column(s)) is out of sync "
                "with the operator schema "
                f"({', '.join(map(str, operator.schema))})",
                subject=label,
            )
        )


def _check_node(operator: Operator, diagnostics: List[Diagnostic], run: Run) -> None:
    if not _check_schema(operator, diagnostics):
        return
    if not _check_child_count(operator, diagnostics):
        return
    before = len(diagnostics)
    try:
        if isinstance(operator, Scan):
            _check_scan(operator, diagnostics)
        elif isinstance(operator, Project):
            _check_project(operator, diagnostics)
        elif isinstance(operator, SemiJoin):
            _check_semijoin(operator, diagnostics)
        elif isinstance(operator, HashJoin):
            _check_hashjoin(operator, diagnostics)
        elif isinstance(operator, BagNode):
            _check_bagnode(operator, diagnostics)
        elif isinstance(operator, CursorEnumerate):
            _check_enumerate(operator, diagnostics)
    except Exception as error:  # a corrupt node must not crash the verifier
        diagnostics.append(
            Diagnostic(
                "PLAN006",
                Severity.ERROR,
                f"operator invariants could not be recomputed: {error}",
                subject=_label(operator),
            )
        )
    if len(diagnostics) == before:
        _check_batch_face(operator, diagnostics, run)


# ----------------------------------------------------------------------
# Whole-plan checks
# ----------------------------------------------------------------------
def _check_estimates(
    nodes: Sequence[Operator],
    estimates: Mapping[Operator, float],
    diagnostics: List[Diagnostic],
) -> None:
    annotated = [n for n in nodes if n in estimates]
    if annotated and len(annotated) < len(nodes):
        missing = [_label(n) for n in nodes if n not in estimates]
        diagnostics.append(
            Diagnostic(
                "PLAN008",
                Severity.WARNING,
                f"{len(missing)} of {len(nodes)} operators carry no estimate "
                "(EXPLAIN will render '?'): " + ", ".join(missing),
            )
        )
    for node in annotated:
        value = estimates[node]
        valid = isinstance(value, (int, float)) and not isinstance(value, bool)
        if valid and math.isfinite(value) and value >= 0:
            continue
        diagnostics.append(
            Diagnostic(
                "PLAN009",
                Severity.ERROR,
                f"estimated rows {value!r} is not a finite non-negative number",
                subject=_label(node),
            )
        )


def _check_streaming(
    root: Operator, nodes: Sequence[Operator], diagnostics: List[Diagnostic]
) -> None:
    has_cursor = any(isinstance(n, CursorEnumerate) for n in nodes)
    if has_cursor and not isinstance(root, CursorEnumerate):
        diagnostics.append(
            Diagnostic(
                "PLAN011",
                Severity.WARNING,
                "a cursor plan is wrapped by "
                f"{type(root).__name__}, so the enumeration no longer "
                "streams from the root",
                subject=_label(root),
            )
        )
    if has_cursor:
        return
    for node in nodes:
        if isinstance(node, HashJoin) and not _materialisable_build(
            node.children[1]
        ):
            diagnostics.append(
                Diagnostic(
                    "PLAN012",
                    Severity.WARNING,
                    "streaming hash join probes a "
                    f"{type(node.children[1]).__name__} build side — not a "
                    "join subtree over scans, so the probe side cannot be "
                    "materialised into a cached partition",
                    subject=_label(node),
                )
            )


def _materialisable_build(node: Operator) -> bool:
    """Whether a hash-join build side is a join subtree over base scans.

    :func:`repro.evaluation.join_plans.iter_plan_answers` materialises each
    spine join's build side once and probes it; scans and (bushy)
    hash-join subtrees over scans are the only build sides the join-plan
    compiler emits, so anything else (a ``SemiJoin``, a ``Project``)
    marks a plan that compiler did not build.
    """
    if isinstance(node, Scan):
        return True
    if isinstance(node, HashJoin):
        return all(_materialisable_build(child) for child in node.children)
    return False


def _check_epochs(
    nodes: List[Operator], expected_epoch: int, run: Run, diagnostics: List[Diagnostic]
) -> None:
    """PLAN016: scan results a run holds must carry the current database epoch.

    A run memoises each Scan's encoded relation in its record.  Every scan
    is served by an epoch-aware scan cache, and its store carries the
    database mutation epoch of the base store it was read from
    (:meth:`repro.evaluation.relation.Relation.stamp_epoch`): the base
    store itself for an unanchored atom, a one-shot gather of its key
    index bucket for an anchored one.  A stamp disagreeing with
    ``expected_epoch`` means the plan holds pre-mutation rows — the
    stale-answer bug the epoch machinery exists to prevent.  Unstamped
    stores (built by hand, outside any cache) are not flagged.
    """
    for node in nodes:
        record = run.get(node)
        if not isinstance(node, Scan) or record is None or record.encoded is None:
            continue
        stamp = record.encoded.store.epoch
        if stamp is not None and stamp != expected_epoch:
            diagnostics.append(
                Diagnostic(
                    "PLAN016",
                    Severity.ERROR,
                    f"cached scan result is stamped with epoch {stamp} but "
                    f"the database is at epoch {expected_epoch}",
                    subject=_label(node),
                )
            )


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def verify_plan(
    root: Operator,
    *,
    streaming: bool = False,
    expected_epoch: Optional[int] = None,
    run: Optional[Run] = None,
    estimates: Optional[Mapping[Operator, float]] = None,
) -> List[Diagnostic]:
    """Statically verify an operator DAG; return all findings (never raises).

    ``streaming=True`` additionally applies the stream shape checks
    (PLAN011/PLAN012) — use it for plans meant to be streamed by
    :meth:`~repro.evaluation.operators.CursorEnumerate.iter_rows_encoded` or
    :func:`~repro.evaluation.join_plans.iter_plan_answers`.  ``run`` is an
    executed context's run map: the encoded results it memoised are
    checked against their nodes' schemas (PLAN014) and, when
    ``expected_epoch`` is given, its scan results against the database
    mutation epoch (PLAN016).  ``estimates`` is a cost model's
    :meth:`~repro.evaluation.operators.CostModel.row_estimates`, checked
    for coverage and sanity (PLAN008/PLAN009).
    """
    run = run or {}
    nodes, diagnostics = _collect(root)
    for node in nodes:
        _check_node(node, diagnostics, run)
    _check_estimates(nodes, estimates or {}, diagnostics)
    _check_bag_tree_sync(nodes, diagnostics)
    if streaming:
        _check_streaming(root, nodes, diagnostics)
    if expected_epoch is not None:
        _check_epochs(nodes, expected_epoch, run, diagnostics)
    return diagnostics


def verify_or_raise(
    root: Operator, *, streaming: bool = False, where: str = ""
) -> List[Diagnostic]:
    """Verify a plan and raise :class:`PlanVerificationError` on ERRORs.

    WARNING/INFO findings are returned, not raised: an emitted plan without
    cost annotations is legitimate (annotation is EXPLAIN's job).
    """
    diagnostics = verify_plan(root, streaming=streaming)
    fatal = errors(diagnostics)
    if fatal:
        raise PlanVerificationError(fatal, where=where)
    return diagnostics


def maybe_verify(
    root: Operator, *, streaming: bool = False, where: str = ""
) -> Optional[List[Diagnostic]]:
    """The ``REPRO_VERIFY`` hook: verify when the environment enables it.

    Called by the evaluation seams (:func:`repro.evaluation.semacyclic_eval
    .resolve_route`, the Yannakakis plan compilers, the join-plan
    entry points) on every emitted plan; a no-op returning ``None`` when
    ``REPRO_VERIFY`` is unset/0/false.
    """
    if not verification_enabled():
        return None
    return verify_or_raise(root, streaming=streaming, where=where)
