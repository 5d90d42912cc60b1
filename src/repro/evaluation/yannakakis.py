"""Yannakakis' algorithm for evaluating acyclic CQs [27], compiled onto the
physical-operator IR of :mod:`repro.evaluation.operators`.

Acyclic CQs can be evaluated in time ``O(|q| · |D|)`` (plus output size).
The evaluator keeps the textbook shape — a join tree, two semi-join passes,
then answer assembly — but instead of hand-rolling the four phases it
*emits a plan*:

1. one :class:`~repro.evaluation.operators.Scan` per join-tree node;
2. the bottom-up and top-down semi-join passes as a DAG of
   :class:`~repro.evaluation.operators.SemiJoin` reducers (shared
   sub-operators are materialised once — the top-down pass re-reads the
   parent's reduced operator);
3. answer assembly in one of two forms:

   * **materialising** (:meth:`YannakakisEvaluator.evaluate` /
     :meth:`~YannakakisEvaluator.answer_relation`): a bottom-up tree of
     :class:`~repro.evaluation.operators.HashJoin` +
     :class:`~repro.evaluation.operators.Project` operators carrying each
     node's carry schema — linear in input plus output;
   * **streaming** (:meth:`YannakakisEvaluator.iter_answers`): a
     :class:`~repro.evaluation.operators.CursorEnumerate` operator — the
     join tree compiled into nested per-(node, key) memoised cursors
     probing the cached :class:`~repro.evaluation.relation.Partition`
     buckets.  After the two semi-join passes every probed bucket is
     non-empty (global consistency), so the enumeration never dead-ends:
     the first answer arrives after O(join-tree) bucket probes, long
     before the output is complete, and ``limit``-style consumers stop
     the work early.  This is the constant-delay regime of the
     free-connex acyclic CQ literature (Bagan–Durand–Grandjean,
     Brault-Baron); for queries that are acyclic but *not* free-connex
     the delay between two distinct answers can exceed any constant,
     which is provably unavoidable.

Boolean evaluation short-circuits on the *first* answer: it skips the
semi-join reducers entirely and runs a ``CursorEnumerate`` directly over
the raw scans with the Boolean carry schemas (memoising dead ends),
stopping as soon as one witness combination exists.

Because every run records each operator's observed cardinality, the same
compiled plans back the ``explain`` API (:func:`repro.evaluation
.semacyclic_eval.explain`): :meth:`YannakakisEvaluator.explain` estimates a
materialising plan with the :class:`~repro.evaluation.operators.CostModel`,
executes it, and pretty-prints estimated vs. observed rows per operator.

Plans are compiled once per evaluator and plan variant: a compiled plan is
an immutable value depending only on the query, and every evaluation call
runs it against a fresh :class:`~repro.evaluation.operators
.ExecutionContext`, which holds everything that run computes.  Phase 1
stays injectable: every entry point accepts a scan provider (``scans=``,
see :class:`repro.evaluation.relation.ScanProvider`) so the per-atom base
relations can come from a shared :class:`repro.evaluation.batch.ScanCache`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..datamodel import Instance, Term, Variable
from ..hypergraph import JoinTree, JoinTreeError, build_join_tree, query_connectors
from ..queries.cq import ConjunctiveQuery
from .operators import (
    CostModel,
    CursorEnumerate,
    ExecutionContext,
    HashJoin,
    Operator,
    Project,
    Scan,
    SemiJoin,
    Statistics,
    first_occurrence_schema,
    maybe_verify_plan,
    render_plan,
)
from .relation import Relation, ScanProvider


class AcyclicityRequired(ValueError):
    """Raised when Yannakakis' algorithm is applied to a cyclic query."""


class YannakakisEvaluator:
    """Evaluator bound to one acyclic CQ; reusable across databases.

    Everything that depends only on the query — the join tree, the traversal
    orders, the per-node carry schemas and the compiled plans — is computed
    once per evaluator; each evaluation call runs a compiled plan against
    the database in its own execution context.

    ``scans`` (constructor default, overridable per call) injects a scan
    provider for the base-atom scans — typically a
    :class:`repro.evaluation.batch.ScanCache` shared by a batch of queries —
    so the per-atom scans and their partitions are materialised once instead
    of once per evaluator call.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        scans: Optional[ScanProvider] = None,
        *,
        join_tree: Optional[JoinTree] = None,
    ) -> None:
        self.query = query
        self._scans = scans
        if join_tree is not None:
            # Subclass seam: a pre-built tree over virtual atoms (see
            # DecompositionEvaluator) whose leaves compile via _leaf_op.
            self.join_tree = join_tree
        else:
            try:
                self.join_tree = build_join_tree(query.body, query_connectors)
            except JoinTreeError as error:
                raise AcyclicityRequired(str(error)) from error

        self._bottom_up: List[int] = self.join_tree.bottom_up_order()
        self._top_down: List[int] = self.join_tree.top_down_order()
        self._node_variables: Dict[int, Set[Variable]] = {
            node.identifier: node.atom.variables() for node in self.join_tree.nodes()
        }
        self._carry: Dict[int, Tuple[Variable, ...]] = self._carry_schemas(
            set(self.query.head)
        )
        # Compiled plans, one per variant: "answer" for the materialising
        # plan, (reduce, boolean) for the streaming ones.  Two threads racing
        # on a miss compile equal plans and one of them is kept.
        self._plans: Dict[object, Operator] = {}

    def _carry_schemas(self, free: Set[Variable]) -> Dict[int, Tuple[Variable, ...]]:
        """Per node, the variables its answer-assembly output must expose.

        A node forwards exactly the ``free`` variables seen anywhere in its
        subtree plus the variables it shares with its parent; by the
        join-tree connectedness property every variable shared between the
        subtree and the rest of the query occurs in the node's own atom, so
        this carry schema is both sufficient and minimal.  The schemas are
        database-independent and ordered deterministically (by name).
        """
        carry: Dict[int, Tuple[Variable, ...]] = {}
        subtree_free: Dict[int, Set[Variable]] = {}
        for identifier in self._bottom_up:
            own = self._node_variables[identifier]
            wanted = own & free
            for child in self.join_tree.children(identifier):
                wanted |= subtree_free[child]
            subtree_free[identifier] = set(wanted)
            parent = self.join_tree.parent(identifier)
            if parent is not None:
                wanted = wanted | (own & self._node_variables[parent])
            carry[identifier] = tuple(sorted(wanted, key=lambda v: v.name))
        return carry

    # ------------------------------------------------------------------
    # Plan compilation (pure position arithmetic, no database work)
    # ------------------------------------------------------------------
    def _leaf_op(self, node) -> Operator:
        """The operator producing one join-tree node's base relation.

        The seam subclasses override: the base evaluator scans the node's
        (real) atom; :class:`repro.evaluation.planner_dp
        .DecompositionEvaluator` materialises a decomposition bag instead.
        """
        return Scan(node.atom)

    def compile_reduction(self, *, reduce: bool = True) -> Dict[int, Operator]:
        """The per-node reduced operators: scans plus both semi-join passes.

        Returns a DAG — the top-down pass wires every node's reducer to its
        parent's, so a parent operator is shared by all of its children and
        materialised once.  With ``reduce=False`` the raw scans are
        returned (the Boolean short-circuit mode).
        """
        ops: Dict[int, Operator] = {
            node.identifier: self._leaf_op(node) for node in self.join_tree.nodes()
        }
        if not reduce:
            return ops
        # Bottom-up semi-joins.
        for identifier in self._bottom_up:
            for child in self.join_tree.children(identifier):
                ops[identifier] = SemiJoin(ops[identifier], ops[child])
        # Top-down semi-joins (reading the parent's *final* reducer).
        for identifier in self._top_down:
            parent = self.join_tree.parent(identifier)
            if parent is not None:
                ops[identifier] = SemiJoin(ops[identifier], ops[parent])
        return ops

    def compile_answer_plan(self) -> Operator:
        """The materialising plan: reducers + bottom-up hash-join assembly.

        After the semi-join passes every row of every node participates in
        at least one answer, so each hash join is linear in its input plus
        its output; each node projects onto its carry schema, and the root
        projects onto the distinct head variables.  Compiled on first use,
        then shared by every run.
        """
        if "answer" not in self._plans:
            self._plans["answer"] = self._compile_answer_plan()
        return self._plans["answer"]

    def _compile_answer_plan(self) -> Operator:
        ops = self.compile_reduction()
        partial: Dict[int, Operator] = {}
        for identifier in self._bottom_up:
            op = ops[identifier]
            for child in self.join_tree.children(identifier):
                op = HashJoin(op, partial[child])
            partial[identifier] = Project(op, self._carry[identifier])
        root = partial[self.join_tree.root]
        head_schema = first_occurrence_schema(self.query.head)
        if head_schema != root.schema:
            root = Project(root, head_schema)
        maybe_verify_plan(root, where="YannakakisEvaluator.compile_answer_plan")
        return root

    def compile_stream_plan(
        self, *, reduce: bool = True, boolean: bool = False
    ) -> CursorEnumerate:
        """The streaming plan: reducers (or raw scans) under a cursor tree.

        ``boolean=True`` swaps in the Boolean carry schemas (connecting
        variables only), which is how :meth:`boolean` stops at the first
        witness combination.  Compiled once per ``(reduce, boolean)``.
        """
        key = (reduce, boolean)
        if key not in self._plans:
            self._plans[key] = self._compile_stream_plan(reduce, boolean)
        return self._plans[key]  # type: ignore[return-value]

    def _compile_stream_plan(self, reduce: bool, boolean: bool) -> CursorEnumerate:
        carry = self._carry_schemas(set()) if boolean else self._carry
        plan = CursorEnumerate(
            self.join_tree, self.compile_reduction(reduce=reduce), carry
        )
        maybe_verify_plan(
            plan, streaming=True, where="YannakakisEvaluator.compile_stream_plan"
        )
        return plan

    def _context(
        self, database: Instance, scans: Optional[ScanProvider]
    ) -> ExecutionContext:
        return ExecutionContext(database, scans if scans is not None else self._scans)

    # ------------------------------------------------------------------
    # Evaluation entry points
    # ------------------------------------------------------------------
    def iter_answers(
        self,
        database: Instance,
        *,
        scans: Optional[ScanProvider] = None,
        limit: Optional[int] = None,
        reduce: bool = True,
    ) -> Iterator[Tuple[Term, ...]]:
        """Stream the distinct answer tuples of ``q(D)`` one at a time.

        The generator runs the streaming plan (compiled once per
        evaluator) on the first ``next()`` call: the semi-join reducers
        execute, then the cursor tree enumerates — no intermediate relation
        is ever materialised, so the first answer arrives after the
        semi-join passes plus O(join-tree) bucket probes, and stopping
        early (``limit``, or just abandoning the iterator) abandons the
        remaining work.  The set of yielded tuples equals :meth:`evaluate`
        exactly, with no tuple yielded twice.

        ``limit`` caps the number of answers (``None`` = all of them).
        ``reduce=False`` skips the semi-join reducers: the cursors then run
        directly on the raw scans, which brings the very first answer
        forward on satisfiable instances at the price of possible
        (memoised) dead ends during the rest of the enumeration — this is
        the mode :meth:`boolean` uses.

        Memory: the memoised cursors retain the distinct partial tuples
        enumerated so far, so a *complete* run holds at most what the
        materialising assembly builds; a limited run holds proportionally
        less.
        """
        if limit is not None and limit <= 0:
            return
        plan = self.compile_stream_plan(reduce=reduce)
        root_carry = self._carry[self.join_tree.root]
        head_positions = tuple(root_carry.index(v) for v in self.query.head)
        context = self._context(database, scans)
        produced = 0
        # Enumerate dictionary codes; decode each carry row only as it
        # crosses the output boundary.
        terms = context.encoder.terms
        for code_row in plan.iter_rows_encoded(context):
            yield tuple(terms[code_row[p]] for p in head_positions)
            produced += 1
            if limit is not None and produced >= limit:
                return

    def boolean(
        self,
        database: Instance,
        *,
        scans: Optional[ScanProvider] = None,
    ) -> bool:
        """Return ``True`` iff the (Boolean reading of the) query holds in ``database``.

        Routed through the first-answer short-circuit of the streaming
        plan: the semi-join reducers are skipped and the cursors run on the
        raw scans with the Boolean carry schemas (connecting variables
        only), stopping at the first witness combination.  On satisfiable
        instances this touches only the buckets along one witness path
        (plus memoised dead ends); on unsatisfiable ones the memoisation
        bounds the total work by one traversal per (node, key) — the same
        order as a semi-join pass.
        """
        plan = self.compile_stream_plan(reduce=False, boolean=True)
        for _ in plan.iter_rows_encoded(self._context(database, scans)):
            return True
        return False

    def answer_relation(
        self,
        database: Instance,
        *,
        scans: Optional[ScanProvider] = None,
    ) -> Relation:
        """Return ``q(D)`` as a :class:`Relation` over the distinct free variables.

        This is the natural output of the algorithm; :meth:`evaluate` wraps
        it into the set-of-tuples interface (re-introducing any repeated head
        variables).
        """
        plan = self.compile_answer_plan()
        return plan.materialize(self._context(database, scans))

    def evaluate(
        self,
        database: Instance,
        *,
        scans: Optional[ScanProvider] = None,
    ) -> Set[Tuple[Term, ...]]:
        """Return the full answer set ``q(D)``."""
        plan = self.compile_answer_plan()
        # Decode straight into the answer set: the whole plan ran on int
        # columns and only the head projection touches terms.
        encoded = plan.materialize_encoded(self._context(database, scans))
        return encoded.answer_tuples(self.query.head)

    # ------------------------------------------------------------------
    def explain(
        self,
        database: Instance,
        *,
        scans: Optional[ScanProvider] = None,
        execute: bool = True,
    ) -> str:
        """Pretty-print the materialising plan with estimated vs. observed rows.

        The plan is estimated with the statistics-calibrated
        :class:`~repro.evaluation.operators.CostModel` and, unless
        ``execute=False``, run against the database so every operator also
        reports its observed cardinality.
        """
        plan = self.compile_answer_plan()
        context = self._context(database, scans)
        model = CostModel(Statistics(database, context.scans))
        model.annotate(plan)
        if execute:
            plan.materialize_encoded(context)
        return render_plan(plan, run=context.run, estimates=model.row_estimates())


def evaluate_acyclic(
    query: ConjunctiveQuery,
    database: Instance,
    *,
    scans: Optional[ScanProvider] = None,
) -> Set[Tuple[Term, ...]]:
    """One-shot evaluation of an acyclic CQ with Yannakakis' algorithm."""
    return YannakakisEvaluator(query).evaluate(database, scans=scans)


def boolean_acyclic(
    query: ConjunctiveQuery,
    database: Instance,
    *,
    scans: Optional[ScanProvider] = None,
) -> bool:
    """One-shot Boolean evaluation of an acyclic CQ."""
    return YannakakisEvaluator(query).boolean(database, scans=scans)
