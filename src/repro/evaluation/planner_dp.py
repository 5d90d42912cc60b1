"""Planner v2: Selinger dynamic programming over bushy join trees.

:func:`plan_dp` replaces the greedy planner as the default join-order
search (see :func:`repro.evaluation.join_plans.resolve_planner`).  It is
the textbook Selinger dynamic program, generalised from left-deep chains
to bushy trees and restricted to *connected* subproblems:

    best[S] = min over connected splits S = S1 ⊎ S2 of
              best[S1] + best[S2] + rows(join(S1, S2))

where ``S`` ranges over the connected subsets of the query's atoms (atoms
are adjacent when they share a variable) and ``rows`` is the
statistics-calibrated estimate of
:class:`~repro.evaluation.operators.CostModel` — including the
correlation-aware pair sketches, so deep chains are not priced under the
independence assumption.  Cross products are pruned structurally: a
split of a connected subset into two connected halves always shares a
variable across the cut, so no disconnected intermediate is ever
enumerated.  Queries whose join graph is disconnected are planned one
connected component at a time; the component trees are then chained by
ascending estimated size (the unavoidable cross products come last and
smallest-first).

The chosen tree is attached to the plan (:attr:`JoinPlan.tree`), so
:func:`~repro.evaluation.join_plans.compile_plan` emits the bushy
operator DAG the DP costed.  The plan's *steps* mirror the compiled
order — step 0 is the leftmost leaf's scan, step ``i>0`` the ``i``-th
join in post-order, represented by the leftmost leaf of its right
subtree — which keeps ``estimated_intermediate_sizes`` aligned with the
executor's per-operator observations for the calibration tests.

Beyond :data:`DP_ATOM_LIMIT` atoms the subset table would be exponential,
so the planner falls back to :func:`plan_greedy` (left-deep, no tree).

This module also hosts the decomposition-guided evaluator for cyclic
queries (:class:`DecompositionEvaluator`): a min-fill tree decomposition
of the query's Gaifman graph is compiled bag by bag, bottom-up, into
``HashJoin``/``Project`` sub-DAGs — each bag is its cover joined with its
children's separators, so it arrives already semi-joined with them.  When
a bag holds the whole head, the bag tree is rooted there and the root bag
projected onto the head is the answer; otherwise the top-down semijoin
pass and Yannakakis assembly run over the bag tree: the FPT evaluation the
source paper promises for bounded-width cyclic queries.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..datamodel import Atom, Instance, Predicate
from ..hypergraph import (
    JoinTree,
    JoinTreeNode,
    TreeDecomposition,
    tree_decomposition_min_fill,
)
from ..queries.cq import ConjunctiveQuery
from ..queries.gaifman import gaifman_graph_of_atoms
from .operators import (
    CardinalityEstimate,
    CostModel,
    HashJoin,
    Operator,
    Project,
    Scan,
    SemiJoin,
    Statistics,
    BagNode,
)
from .join_plans import (
    JoinPlan,
    PlanStep,
    PlanTree,
    _cost_model,
    _plan_from_order,
    plan_greedy,
)
from .relation import ScanProvider
from .yannakakis import YannakakisEvaluator

#: Above this many atoms the 3^n subset enumeration stops paying for
#: itself; :func:`plan_dp` falls back to the greedy left-deep planner.
DP_ATOM_LIMIT = 11


def plan_dp(
    query: ConjunctiveQuery,
    database: Instance,
    *,
    scans: Optional[ScanProvider] = None,
    statistics: Optional[Statistics] = None,
    linear: bool = False,
) -> JoinPlan:
    """Selinger DP plan: optimal bushy join tree over connected subsets.

    Minimises the sum of estimated join-output sizes (scan costs are
    identical across orders and cancel) under the calibrated cost model;
    ties break on the rendered tree so plans are deterministic.  Falls
    back to :func:`~repro.evaluation.join_plans.plan_greedy` above
    :data:`DP_ATOM_LIMIT` atoms.

    ``linear=True`` restricts the search to left-deep orders (the classic
    Selinger space) and returns an ordinary chain plan without a tree —
    the shape the streaming face needs, where every hash-join build side
    must be a base scan whose partition comes from the cache (see
    :func:`plan_dp_linear`).
    """
    model = _cost_model(database, scans, statistics)
    body = list(query.body)
    if not body:
        return JoinPlan(query)
    if len(body) > DP_ATOM_LIMIT:
        return plan_greedy(query, database, scans=scans, statistics=model.statistics)

    tree = _dp_tree(body, model, linear=linear)
    if linear:
        return _plan_from_order(query, tree.leaves(), model)
    tree = _orient_cheapest_leaf_left(tree, model)
    return JoinPlan(query=query, steps=_steps_from_tree(tree, model), tree=tree)


def plan_dp_linear(
    query: ConjunctiveQuery,
    database: Instance,
    *,
    scans: Optional[ScanProvider] = None,
    statistics: Optional[Statistics] = None,
) -> JoinPlan:
    """The DP planner restricted to left-deep orders (streaming default).

    The pipelined streaming face probes each hash join's build side as a
    cached base-scan partition; a bushy build side would have to be
    materialised before the first answer, destroying the O(chain) probes
    first-answer bound.  ``resolve_planner(streaming=True)`` therefore
    resolves the default planner to this restriction — still the DP's
    optimal order over *left-deep* connected plans.
    """
    return plan_dp(query, database, scans=scans, statistics=statistics, linear=True)


# ----------------------------------------------------------------------
# The dynamic program
# ----------------------------------------------------------------------
def _dp_tree(body: Sequence[Atom], model: CostModel, *, linear: bool = False) -> PlanTree:
    n = len(body)
    variables = [atom.variables() for atom in body]
    adjacency = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if variables[i] & variables[j]:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i

    # (cost, tiebreak, estimate, tree) per connected subset mask.
    best: Dict[int, Tuple[float, str, CardinalityEstimate, PlanTree]] = {}
    for i, atom in enumerate(body):
        leaf = PlanTree(atom=atom)
        best[1 << i] = (0.0, leaf.render(), model.scan_estimate(atom), leaf)

    full = (1 << n) - 1
    for mask in range(1, full + 1):
        if mask in best or mask & (mask - 1) == 0:
            continue  # singletons are seeded; skip revisits
        if not _is_connected(mask, adjacency):
            continue
        candidate: Optional[Tuple[float, str, CardinalityEstimate, PlanTree]] = None
        # Canonical splits: the half holding the lowest set bit is `left`.
        # In linear mode only splits whose right half is a single atom are
        # admitted (and the low-bit canonicalisation is dropped — the order
        # itself is the shape), so `best` holds only left-deep chains.
        low = mask & -mask
        sub = (mask - 1) & mask
        while sub:
            rest = mask ^ sub
            admissible = (
                rest & (rest - 1) == 0 if linear else bool(sub & low)
            )
            if admissible:
                left_entry = best.get(sub)
                right_entry = best.get(rest)
                # Both halves connected <=> both in the table; the cut
                # then shares a variable because `mask` is connected.
                if left_entry is not None and right_entry is not None:
                    estimate = model.join_estimate(left_entry[2], right_entry[2])
                    cost = left_entry[0] + right_entry[0] + estimate.rows
                    tree = PlanTree(left=left_entry[3], right=right_entry[3])
                    key = (cost, tree.render())
                    if candidate is None or key < (candidate[0], candidate[1]):
                        candidate = (cost, tree.render(), estimate, tree)
            sub = (sub - 1) & mask
        if candidate is not None:
            best[mask] = candidate

    if full in best:
        return best[full][3]

    # Disconnected join graph: plan each connected component, then chain
    # the component trees by ascending estimated size (cross products
    # last and smallest-first, matching the greedy planner's policy).
    components = sorted(
        (best[component] for component in _components(n, adjacency)),
        key=lambda entry: (entry[2].rows, entry[1]),
    )
    tree = components[0][3]
    estimate = components[0][2]
    for entry in components[1:]:
        tree = PlanTree(left=tree, right=entry[3])
        estimate = model.join_estimate(estimate, entry[2])
    return tree


def _is_connected(mask: int, adjacency: List[int]) -> bool:
    start = mask & -mask
    seen = start
    frontier = start
    while frontier:
        index = frontier & -frontier
        frontier ^= index
        reach = adjacency[index.bit_length() - 1] & mask & ~seen
        seen |= reach
        frontier |= reach
    return seen == mask


def _components(n: int, adjacency: List[int]) -> List[int]:
    remaining = (1 << n) - 1
    components: List[int] = []
    while remaining:
        start = remaining & -remaining
        seen = start
        frontier = start
        while frontier:
            index = frontier & -frontier
            frontier ^= index
            reach = adjacency[index.bit_length() - 1] & remaining & ~seen
            seen |= reach
            frontier |= reach
        components.append(seen)
        remaining &= ~seen
    return components


def _orient_cheapest_leaf_left(tree: PlanTree, model: CostModel) -> PlanTree:
    """Swap join children so the cheapest-estimated leaf streams first.

    Join estimates are symmetric, so the rotation is cost-neutral; it
    pins the same convention as the left-deep planners (the cheapest scan
    opens the pipeline), which keeps DP step estimates directly
    comparable with greedy's.
    """
    if tree.atom is not None:
        return tree
    leaves = tree.leaves()
    target = min(
        leaves, key=lambda atom: (model.scan_estimate(atom).rows, str(atom))
    )

    def orient(node: PlanTree) -> PlanTree:
        if node.atom is not None:
            return node
        assert node.left is not None and node.right is not None
        left, right = node.left, node.right
        if target in right.leaves() and target not in left.leaves():
            left, right = right, left
        if target in left.leaves():
            left = orient(left)
        return PlanTree(left=left, right=right)

    return orient(tree)


def _steps_from_tree(tree: PlanTree, model: CostModel) -> List[PlanStep]:
    """Steps mirroring the compiled operator order of a tree plan.

    Step 0 is the leftmost leaf's scan; each join step is represented by
    the leftmost leaf of its right subtree (every non-leftmost leaf is
    that of exactly one join, so steps and atoms stay in bijection).
    """
    first = tree.leftmost_atom()
    first_scan = model.scan_estimate(first)
    steps = [
        PlanStep(
            atom=first,
            estimated_cardinality=int(round(first_scan.rows)),
            shares_variables_with_prefix=False,
            estimated_intermediate_rows=int(round(first_scan.rows)),
        )
    ]

    def walk(node: PlanTree) -> CardinalityEstimate:
        if node.atom is not None:
            return model.scan_estimate(node.atom)
        assert node.left is not None and node.right is not None
        left = walk(node.left)
        right = walk(node.right)
        estimate = model.join_estimate(left, right)
        representative = node.right.leftmost_atom()
        steps.append(
            PlanStep(
                atom=representative,
                estimated_cardinality=int(
                    round(model.scan_estimate(representative).rows)
                ),
                shares_variables_with_prefix=bool(
                    node.left.variables() & node.right.variables()
                ),
                estimated_intermediate_rows=int(round(estimate.rows)),
            )
        )
        return estimate

    walk(tree)
    return steps


# ----------------------------------------------------------------------
# Decomposition-guided evaluation for cyclic queries
# ----------------------------------------------------------------------
def _bag_predicate(node_id: int, arity: int) -> Predicate:
    return Predicate(f"__bag{node_id}", arity)


def _pruned_decomposition(decomposition: TreeDecomposition) -> TreeDecomposition:
    """Absorb bags contained in a neighbour (smaller, equivalent tree)."""
    bags = {node: frozenset(decomposition.bag(node)) for node in decomposition.nodes()}
    neighbours = {
        node: set(decomposition.neighbours(node)) for node in decomposition.nodes()
    }
    changed = True
    while changed and len(bags) > 1:
        changed = False
        for node in sorted(bags):
            host = next(
                (
                    other
                    for other in sorted(neighbours[node])
                    if bags[node] <= bags[other]
                ),
                None,
            )
            if host is None:
                continue
            for other in neighbours[node]:
                if other != host:
                    neighbours[other].discard(node)
                    neighbours[other].add(host)
                    neighbours[host].add(other)
            neighbours[host].discard(node)
            del bags[node]
            del neighbours[node]
            changed = True
            break
    edges = sorted(
        (node, other)
        for node in bags
        for other in neighbours[node]
        if node < other
    )
    return TreeDecomposition({node: set(bag) for node, bag in bags.items()}, edges)


class DecompositionEvaluator(YannakakisEvaluator):
    """FPT evaluation of cyclic queries via a min-fill tree decomposition.

    The query's Gaifman graph is decomposed (``tree_decomposition_min_fill``,
    subset bags pruned into their neighbours); each bag becomes a virtual
    atom ``__bag<i>`` over *all* the bag's variables, and the bags form a
    join tree (the decomposition's running intersection property).  Each
    bag is its cover joined with its children's separators: the scans of
    the query atoms lying wholly inside the bag, joined with the
    projection of every child bag onto the variables it shares with this
    one (children sharing none only gate it by a semi-join on emptiness).
    A bag variable still uncovered — it can occur only in the parent's
    separator — comes from a greedy guard atom projected onto the bag,
    never joined in full.  The ``HashJoin``/``Project`` sub-DAG is wrapped
    in a :class:`~repro.evaluation.operators.BagNode` marker so EXPLAIN
    and the static verifier see the bag boundary.

    A bag therefore arrives bottom-up reduced (``R_b ⋉ R_c1 ⋉ …``), each
    child bag being a shared DAG node materialised once per run: the bags
    are the upward pass.  The base constructor roots the bag tree at a bag
    holding the whole head, and the guards are chosen after it, so they
    follow the new children; such a root bag, projected onto the head,
    answers both faces, and the root bag alone answers :meth:`boolean`.
    Otherwise only the inherited top-down semi-join pass runs over the bag
    tree; the full reducer's output, and with it assembly and the stream's
    join chain, is exactly Yannakakis' over the bag tree.  The cost is the
    standard hypertree bound: materialising a bag is polynomial for fixed
    width, everything after is Yannakakis.
    """

    def __init__(self, query, scans=None):
        atoms = list(query.body)
        graph = gaifman_graph_of_atoms(atoms)
        decomposition = _pruned_decomposition(tree_decomposition_min_fill(graph))
        self.decomposition = decomposition
        self._bag_atoms: Dict[int, Atom] = {}
        self._bag_cover: Dict[int, List[Atom]] = {}

        assigned: Set[int] = set()
        for node in decomposition.nodes():
            bag = frozenset(decomposition.bag(node))
            ordered_bag = tuple(sorted(bag, key=str))
            self._bag_atoms[node] = Atom(
                _bag_predicate(node, len(ordered_bag)), ordered_bag
            )
            # Every atom whose variables all fall in the bag is enforced
            # here (an atom's variables form a Gaifman clique, so every
            # atom lands fully inside at least one bag).
            cover: List[Atom] = []
            for index, atom in enumerate(atoms):
                if atom.variables() <= bag:
                    assigned.add(index)
                    cover.append(atom)
            self._bag_cover[node] = cover
        uncovered = [atoms[i] for i in range(len(atoms)) if i not in assigned]
        if uncovered:  # pragma: no cover — decomposition validity rules this out
            raise ValueError(f"tree decomposition left atoms uncovered: {uncovered}")

        super().__init__(query, scans, join_tree=self._build_bag_tree())

        # Bag variables hit neither by a contained atom nor by a child's
        # separator (variables joined into the bag only by fill-in edges,
        # shared with the parent alone) come from greedy guards, each
        # projected onto the bag before it is joined.
        self._bag_guards: Dict[int, List[Atom]] = {}
        for node in decomposition.nodes():
            missing = set(self._node_variables[node])
            for atom in self._bag_cover[node]:
                missing -= atom.variables()
            for child in self.join_tree.children(node):
                missing -= self._node_variables[child]
            guards: List[Atom] = []
            while missing:
                guard = max(
                    atoms,
                    key=lambda atom: (len(atom.variables() & missing), str(atom)),
                )
                if not guard.variables() & missing:  # pragma: no cover
                    raise ValueError(f"bag variables unreachable: {missing}")
                guards.append(guard)
                missing -= guard.variables()
            self._bag_guards[node] = guards

    def _build_bag_tree(self) -> JoinTree:
        nodes = {
            node: JoinTreeNode(
                identifier=node,
                atom=self._bag_atoms[node],
                vertices=frozenset(self._bag_atoms[node].terms),
            )
            for node in self.decomposition.nodes()
        }
        root = min(self.decomposition.nodes())
        parent: Dict[int, Optional[int]] = {root: None}
        for parent_id, child_id in self._bag_tree_edges():
            parent[child_id] = parent_id
        return JoinTree(nodes, parent)

    def _bag_tree_edges(self) -> List[Tuple[int, int]]:
        """The decomposition's edges, oriented away from the min-id root."""
        adjacency: Dict[int, List[int]] = {
            node: [] for node in self.decomposition.nodes()
        }
        for left, right in self.decomposition.edges():
            adjacency[left].append(right)
            adjacency[right].append(left)
        root = min(self.decomposition.nodes())
        oriented: List[Tuple[int, int]] = []
        seen = {root}
        frontier = [root]
        while frontier:
            parent = frontier.pop(0)
            for child in sorted(adjacency[parent]):
                if child not in seen:
                    seen.add(child)
                    oriented.append((parent, child))
                    frontier.append(child)
        return oriented

    def _reduce_bottom_up(self) -> Dict[int, Operator]:
        """The bag operators: every bag is materialised already semi-joined
        with its children, so this is the whole upward pass."""
        ops: Dict[int, Operator] = {}
        for identifier in self._bottom_up:
            ops[identifier] = self._bag_op(identifier, ops)
        return ops

    def _bag_op(self, identifier: int, ops: Dict[int, Operator]) -> Operator:
        """Materialise one bag: its cover joined with its children's
        separators, projected to the bag (``ops`` holds the child bags)."""
        bag = self._node_variables[identifier]
        inputs: List[Operator] = [
            Scan(atom) for atom in sorted(self._bag_cover[identifier], key=str)
        ]
        disjoint_children: List[Operator] = []
        for child in self.join_tree.children(identifier):
            child_op = ops[child]
            separator = tuple(v for v in child_op.schema if v in bag)
            if separator:
                inputs.append(Project(child_op, separator))
            else:
                disjoint_children.append(child_op)
        for guard in self._bag_guards[identifier]:
            scan = Scan(guard)
            inputs.append(Project(scan, tuple(v for v in scan.schema if v in bag)))
        ordered = _connected_order(inputs)
        op = ordered[0]
        for other in ordered[1:]:
            # An input whose variables are all bound adds no column: on a
            # distinct right side the semi-join keeps the join's rows, in
            # the join's order, without counting probes.
            if set(other.schema) <= set(op.schema):
                op = SemiJoin(op, other)
            else:
                op = HashJoin(op, other)
        op = Project(op, tuple(self._bag_atoms[identifier].terms))
        # A child sharing no variable (another connected component of the
        # query) only empties the bag when it is empty itself.
        for child_op in disjoint_children:
            op = SemiJoin(op, child_op)
        return BagNode(op, bag, identifier)


def _connected_order(inputs: Sequence[Operator]) -> List[Operator]:
    """Order a bag's inputs so each shares a variable with its prefix."""
    remaining = list(inputs)
    ordered = [remaining.pop(0)]
    bound = set(ordered[0].schema)
    while remaining:
        index = next(
            (
                i
                for i, op in enumerate(remaining)
                if bound.intersection(op.schema)
            ),
            0,
        )
        op = remaining.pop(index)
        ordered.append(op)
        bound.update(op.schema)
    return ordered
