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
   * **streaming** (:meth:`YannakakisEvaluator.iter_answers`): the head
     projection over a left-deep ``HashJoin`` chain of the reduced nodes
     that hold the head, joined in top-down order, run by the plan
     route's batch loop (:func:`repro.evaluation.join_plans.stream_chain`).
     After the two semi-join passes every row of every node takes part in
     an answer, so no batch dead-ends: the first answer arrives after one
     bucket probe per chain join, long before the output is complete, and
     ``limit``-style consumers stop the work early.  For a head that is
     not free-connex no enumerator has constant delay between two distinct
     answers (Bagan–Durand–Grandjean, Brault-Baron).

**Head-rooted plans.**  Steps 2 and 3 shrink when one node holds the whole
head.  The evaluator then roots the join tree at that node
(:meth:`~repro.hypergraph.JoinTree.rerooted`).  After the bottom-up pass
alone the root is exactly the projection of the full join onto its own
variables, since each node is then consistent with its whole subtree
(Yannakakis 1981).  So the plan of both faces is the upward-reduced root
projected onto the head: no top-down pass and no assembly.  The stream
iterates that plan's encoded rows and decodes them one at a time.  A
component sharing no variable with the root still gates it through the
upward pass's empty-key ``SemiJoin``.  The join chain thus serves only
streams whose head spans several nodes.

Boolean evaluation runs the upward pass alone, on any head: the query
holds iff the upward-reduced root is non-empty, which costs
``O(|q| · |D|)``.

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

from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..datamodel import Instance, Term, Variable
from ..hypergraph import (
    JoinTree,
    build_join_tree,  # noqa: F401  (unused; the layer trace wraps it here)
)
from ..queries.cq import ConjunctiveQuery
from .join_plans import stream_chain
from .operators import (
    CostModel,
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
        # A given join_tree is the subclass seam: a pre-built tree over
        # virtual atoms (see DecompositionEvaluator, which compiles its own
        # node operators in _reduce_bottom_up).
        if join_tree is None:
            join_tree = query.join_tree()
            if join_tree is None:
                raise AcyclicityRequired(f"{query.name} has a cyclic or empty body")
        # Root the tree at a node holding the whole head, if one does: then
        # the upward pass alone answers the query (see compile_answer_plan).
        head = set(query.head)
        holders = [
            node.identifier
            for node in join_tree.nodes()
            if head <= node.atom.variables()
        ]
        if holders and join_tree.root not in holders:
            join_tree = join_tree.rerooted(holders[0])
        self.join_tree = join_tree
        self._head_rooted = bool(holders)

        self._bottom_up: List[int] = self.join_tree.bottom_up_order()
        self._top_down: List[int] = self.join_tree.top_down_order()
        self._node_variables: Dict[int, Set[Variable]] = {
            node.identifier: node.atom.variables() for node in self.join_tree.nodes()
        }
        self._carry: Dict[int, Tuple[Variable, ...]] = self._carry_schemas(head)
        # Compiled plans, one per variant: "answer", "stream" and "boolean".
        # Two threads racing on a miss compile equal plans and one of them
        # is kept.
        self._plans: Dict[str, Operator] = {}

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
    def compile_reduction(self) -> Dict[int, Operator]:
        """The per-node reduced operators: scans plus both semi-join passes.

        Returns a DAG — the top-down pass wires every node's reducer to its
        parent's, so a parent operator is shared by all of its children and
        materialised once.
        """
        return self._reduce_top_down(self._reduce_bottom_up())

    def _node_scans(self) -> Dict[int, Operator]:
        return {node.identifier: Scan(node.atom) for node in self.join_tree.nodes()}

    def _reduce_bottom_up(self) -> Dict[int, Operator]:
        """The node scans after the bottom-up semi-join pass.

        Each node is then consistent with its whole subtree, so the root
        holds exactly the projection of the full join onto its variables.
        :class:`repro.evaluation.planner_dp.DecompositionEvaluator` builds
        its bags already semi-joined with their children and overrides
        this half.
        """
        ops = self._node_scans()
        for identifier in self._bottom_up:
            for child in self.join_tree.children(identifier):
                ops[identifier] = SemiJoin(ops[identifier], ops[child])
        return ops

    def _reduce_top_down(self, ops: Dict[int, Operator]) -> Dict[int, Operator]:
        """The top-down semi-join pass over bottom-up reduced node operators.

        Each node is reduced by its parent's *final* reducer, so the result
        is the full reducer's output.
        """
        for identifier in self._top_down:
            parent = self.join_tree.parent(identifier)
            if parent is not None:
                ops[identifier] = SemiJoin(ops[identifier], ops[parent])
        return ops

    def _compiled(self, key: str, compile: Callable[[], Operator]) -> Operator:
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = compile()
        return plan

    def compile_answer_plan(self) -> Operator:
        """The materialising plan, compiled on first use and then shared by
        every run.

        When the root holds the whole head, the plan is the upward-reduced
        root projected onto the head: after the bottom-up pass the root is
        the projection of the full join onto its own variables, so neither
        the top-down pass nor an assembly is needed.  Otherwise it is the
        full reducer under a bottom-up hash-join assembly: after both
        passes every row of every node participates in at least one answer,
        so each hash join is linear in its input plus its output; each node
        projects onto its carry schema, and the root projects onto the
        distinct head variables.
        """
        return self._compiled("answer", self._compile_answer_plan)

    def _compile_answer_plan(self) -> Operator:
        if self._head_rooted:
            root = self._reduce_bottom_up()[self.join_tree.root]
        else:
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

    def compile_stream_plan(self) -> Operator:
        """The plan :meth:`iter_answers` runs: the answer plan itself when
        the root holds the head, else the head projection over a left-deep
        ``HashJoin`` chain of the reduced nodes in :meth:`_head_nodes`.
        Compiled once."""
        if self._head_rooted:
            return self.compile_answer_plan()
        return self._compiled("stream", self._compile_stream_plan)

    def compiled_plans(self, database: Optional[Instance] = None) -> List[Operator]:
        """The distinct plans the evaluator runs: the answer plan, and the
        stream plan when it differs.  They follow the query alone, so
        ``database`` (which the flat plan route plans over) is unused."""
        answer = self.compile_answer_plan()
        stream = self.compile_stream_plan()
        return [answer] if stream is answer else [answer, stream]

    def _compile_stream_plan(self) -> Operator:
        ops = self.compile_reduction()
        nodes = self._head_nodes()
        chain = ops[nodes[0]]
        for identifier in nodes[1:]:
            chain = HashJoin(chain, ops[identifier])
        plan = Project(chain, first_occurrence_schema(self.query.head))
        maybe_verify_plan(plan, where="YannakakisEvaluator.compile_stream_plan")
        return plan

    def _head_nodes(self) -> List[int]:
        """The smallest connected part of the join tree holding every head
        variable, in top-down order (each node after the first has its
        parent before it).

        After both semi-join passes the nodes are globally consistent, so
        the join of any connected part of the tree is the projection of the
        full join onto that part's variables: the subtrees without a head
        variable, and a top node without one that leads to a single kept
        subtree, would only widen the joined rows.
        """
        head = set(self.query.head)
        holds: Dict[int, bool] = {}
        for identifier in self._bottom_up:
            holds[identifier] = bool(self._node_variables[identifier] & head) or any(
                holds[child] for child in self.join_tree.children(identifier)
            )
        nodes = [identifier for identifier in self._top_down if holds[identifier]]
        while not self._node_variables[nodes[0]] & head and (
            sum(holds[child] for child in self.join_tree.children(nodes[0])) == 1
        ):
            nodes.pop(0)
        return nodes

    def compile_boolean_plan(self) -> Operator:
        """The plan :meth:`boolean` runs: the upward-reduced root, non-empty
        exactly when the query holds.  Compiled once."""
        return self._compiled("boolean", self._compile_boolean_plan)

    def _compile_boolean_plan(self) -> Operator:
        plan = self._reduce_bottom_up()[self.join_tree.root]
        maybe_verify_plan(plan, where="YannakakisEvaluator.compile_boolean_plan")
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
    ) -> Iterator[Tuple[Term, ...]]:
        """Stream the distinct answer tuples of ``q(D)`` one at a time.

        The generator runs the streaming plan (compiled once per
        evaluator) on the first ``next()`` call.  When the root holds the
        head, that is the answer plan: the upward pass and the head
        projection execute, and the rows are decoded as they are pulled.
        Otherwise the semi-join reducers execute and the join chain over
        them streams batch by batch (:func:`~repro.evaluation.join_plans
        .stream_chain`): no join prefix is ever materialised, so the first
        answer arrives after the semi-join passes plus one bucket probe per
        chain join, and stopping early (``limit``, or just abandoning the
        iterator) abandons the remaining work.  The set of yielded tuples
        equals :meth:`evaluate` exactly, with no tuple yielded twice.

        ``limit`` caps the number of answers (``None`` = all of them).
        """
        if limit is not None and limit <= 0:
            return
        plan = self.compile_stream_plan()
        context = self._context(database, scans)
        if not self._head_rooted:
            yield from stream_chain(plan, context, self.query.head, limit)
            return
        head_positions = tuple(plan.schema.index(v) for v in self.query.head)
        produced = 0
        # Enumerate dictionary codes; decode each row only as it crosses
        # the output boundary.
        terms = context.encoder.terms
        for code_row in plan.materialize_encoded(context).rows:
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

        Runs the upward semi-join pass alone (:meth:`compile_boolean_plan`)
        and tests the reduced root for a row: ``O(|q| · |D|)`` on any
        input, satisfiable or not.
        """
        plan = self.compile_boolean_plan()
        return not plan.materialize_encoded(self._context(database, scans)).is_empty()

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
        # columns and only the head projection touches terms.  The root
        # Project's dedup stays although the set deduplicates too: when it
        # drops join variables, many joined rows can repeat one answer, and
        # on numpy storage its int-code kernel costs less than decoding and
        # hashing every repeat.
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
