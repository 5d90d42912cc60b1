"""Join-order planners kept only as ablation baselines.

The engine plans with the Selinger DP of :mod:`repro.evaluation.planner_dp`
and falls back to :func:`repro.evaluation.join_plans.plan_greedy` above
``DP_ATOM_LIMIT`` atoms.  The planners here run on no served path; they
are the points of comparison that ``benchmarks/bench_plan_quality.py``,
``benchmarks/bench_join_order_ablation.py`` and the planner tests measure
the production planners against:

* :func:`plan_in_query_order` — no planning at all;
* :func:`plan_by_cardinality` — atoms sorted by estimated scan size only;
* :func:`plan_greedy_heuristic` — the historical greedy planner driven by
  :func:`estimate_cardinality`, the 1/10-per-constraint guess the
  statistics-calibrated cost model replaced.

Every plan records its step estimates from the calibrated model, so only
the *order* differs from the production planners.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.datamodel import Atom, Constant, Instance, Term, Variable
from repro.evaluation.join_plans import JoinPlan, _cost_model, _plan_from_order
from repro.evaluation.operators import Statistics
from repro.evaluation.relation import ScanProvider
from repro.queries.cq import ConjunctiveQuery


def estimate_cardinality(atom: Atom, database: Instance) -> int:
    """The *legacy heuristic* estimate of the facts matching ``atom``.

    Relation size, discounted by one fixed factor of 10 per constant or
    repeated-variable constraint — monotone but blind to the actual value
    distributions.  Superseded by the statistics-calibrated
    :meth:`~repro.evaluation.operators.CostModel.scan_estimate` everywhere
    the planners run.
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


def plan_in_query_order(
    query: ConjunctiveQuery,
    database: Instance,
    *,
    scans: Optional[ScanProvider] = None,
    statistics: Optional[Statistics] = None,
) -> JoinPlan:
    """The "no planning" plan: atoms in the order they appear in the query."""
    model = _cost_model(database, scans, statistics)
    return _plan_from_order(query, list(query.body), model)


def plan_by_cardinality(
    query: ConjunctiveQuery,
    database: Instance,
    *,
    scans: Optional[ScanProvider] = None,
    statistics: Optional[Statistics] = None,
) -> JoinPlan:
    """Left-deep plan ordering atoms by estimated scan cardinality only."""
    model = _cost_model(database, scans, statistics)
    ordered = sorted(
        query.body, key=lambda atom: (model.scan_estimate(atom).rows, str(atom))
    )
    return _plan_from_order(query, ordered, model)


def plan_greedy_heuristic(
    query: ConjunctiveQuery,
    database: Instance,
    *,
    scans: Optional[ScanProvider] = None,
    statistics: Optional[Statistics] = None,
) -> JoinPlan:
    """The historical greedy planner driven by :func:`estimate_cardinality`.

    Connected atoms preferred, ordered by the 1/10-per-constraint scan
    heuristic alone (no join selectivities).
    """
    model = _cost_model(database, scans, statistics)
    remaining = list(query.body)
    if not remaining:
        return JoinPlan(query)

    def key(atom: Atom):
        return (estimate_cardinality(atom, database), str(atom))

    ordered: List[Atom] = []
    bound_variables: Set[Variable] = set()
    while remaining:
        connected = [atom for atom in remaining if atom.variables() & bound_variables]
        chosen = min(connected or remaining, key=key)
        ordered.append(chosen)
        bound_variables.update(chosen.variables())
        remaining.remove(chosen)
    return _plan_from_order(query, ordered, model)
