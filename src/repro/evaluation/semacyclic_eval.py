"""Evaluation of semantically acyclic CQs under constraints (Section 7).

Three routes are implemented:

* **Reformulate then evaluate** (Proposition 24): compute an acyclic CQ
  ``q'`` with ``q ≡_Σ q'`` (using the SemAc procedures of
  :mod:`repro.core`), then run Yannakakis on ``q'``.  The data complexity is
  linear; the query/constraint complexity is paid once, which makes the
  overall algorithm fixed-parameter tractable.

* **Cover-game evaluation** (Theorem 25): for guarded tgds, a semantically
  acyclic ``q`` satisfies ``t̄ ∈ q(D)`` iff ``(q, x̄) ≡∃1c (D, t̄)`` — no
  chase and no reformulation are needed, and the whole check is polynomial.
  For egd classes whose chase is polynomial (e.g. functional dependencies)
  the same holds after chasing the query first (Proposition 31).

Route selection is shared: :func:`resolve_route` picks
Yannakakis / reformulation / decomposition / flat-plan exactly once for
:func:`evaluate_iter`, :func:`evaluate_batch`,
:class:`repro.service.QueryService` and the CLI alike, under tgds, egds
or FDs (Theorem 23 makes queries semantically acyclic under keys that are
not acyclic otherwise).  Every route comes
back as an evaluator with the same faces (the flat plan route's is a
:class:`~repro.evaluation.join_plans.PlanEvaluator`), so callers run it
without asking which route it is, and :func:`explain` pretty-prints
whichever physical operator plan the chosen route compiles, with the cost
model's estimated cardinalities next to the executed, observed ones.
:func:`evaluate_batch` runs many routes over one
:class:`~repro.evaluation.batch.ScanCache`, so a batch over overlapping
predicates pays each base scan once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..chase.egd_chase import egd_chase_query
from ..chase.tgd_chase import chase_query
from ..datamodel import GroundTerm, Instance, Term
from ..dependencies.egd import EGD
from ..dependencies.fd import Constraints
from ..dependencies.tgd import TGD
from ..queries.cq import ConjunctiveQuery
from .batch import ScanCache
from .cover_game import (
    CoverEngine,
    existential_one_cover,
    instance_covers_database,
    query_covers_database,
)
from .generic import membership_generic
from .join_plans import PlanEvaluator
from .relation import ScanProvider
from .yannakakis import YannakakisEvaluator

if TYPE_CHECKING:
    from ..analysis.diagnostics import Diagnostic


class NotSemanticallyAcyclic(ValueError):
    """Raised when a reformulation-based evaluator gets a non-reformulable query."""


#: What :func:`resolve_route` returns to run a route: a Yannakakis-shaped
#: evaluator (``yannakakis``, ``reformulated``, ``decomposition``) or the
#: flat join-plan route's :class:`PlanEvaluator`.  Both have the faces
#: ``evaluate``, ``iter_answers``, ``boolean``, ``explain`` and
#: ``compiled_plans``.
RouteEvaluator = Union[YannakakisEvaluator, PlanEvaluator]


def evaluate_via_reformulation(
    query: ConjunctiveQuery,
    tgds: Constraints,
    database: Instance,
) -> Set[Tuple[Term, ...]]:
    """The fpt algorithm of Proposition 24: reformulate under Σ (tgds, or
    egds and FDs), then run Yannakakis; :func:`resolve_route`'s
    ``engine="reformulation"``.

    Raises:
        NotSemanticallyAcyclic: if ``query`` has no acyclic reformulation
            under Σ.
    """
    _, evaluator = resolve_route(query, tgds=tgds, engine="reformulation")
    return evaluator.evaluate(database)


def _route_verified(
    route: str, evaluator: YannakakisEvaluator
) -> Tuple[str, YannakakisEvaluator]:
    """Apply the ``REPRO_VERIFY`` hook to an evaluator route.

    When the environment enables verification, both plan faces are compiled
    eagerly here — each compiler runs the static verifier on what it emits
    (:func:`repro.analysis.verify_plan.maybe_verify`), so a plan violating
    the IR contracts fails at *routing* time, before any execution.  The
    flat plan route, whose plans need the data, is covered by the same hook
    inside :mod:`repro.evaluation.join_plans` when its plans are compiled.
    """
    from ..analysis.verify_plan import verification_enabled

    if verification_enabled():
        evaluator.compiled_plans()
    return (route, evaluator)


def resolve_route(
    query: ConjunctiveQuery,
    *,
    tgds: Constraints = (),
    engine: str = "auto",
) -> Tuple[str, RouteEvaluator]:
    """Pick the evaluation route for ``query`` (shared by every entry point).

    ``tgds`` is Σ: tgds, or egds and FDs.  Returns ``(route, evaluator)``
    where ``route`` is one of
    ``"yannakakis"`` (the query is acyclic — ``evaluator`` runs it),
    ``"reformulated"`` (Proposition 24 — ``evaluator`` runs the acyclic
    reformulation, which equals the query on databases that satisfy Σ),
    ``"decomposition"`` (cyclic query — ``evaluator`` is a
    :class:`~repro.evaluation.planner_dp.DecompositionEvaluator`
    materialising tree-decomposition bags and running Yannakakis over the
    bag tree; it evaluates the query's core when the decision under Σ
    computed one, which is equivalent to the query on every database)
    or ``"plan"`` (flat join-plan fallback, ``evaluator`` is a
    :class:`~repro.evaluation.join_plans.PlanEvaluator`, which plans on its
    first run; reached by forcing ``engine="plan"`` and by the nullary
    query).  Callers run every route the same way,
    ``evaluator.<face>(database, scans=...)``.  ``engine`` forces a route
    the same way it does on :func:`evaluate_iter`; routing work (join tree
    construction, the reformulation search) happens here, eagerly.  With
    the ``REPRO_VERIFY`` environment variable set (to anything but
    ``0``/``false``/``no``), the chosen evaluator's plans are compiled and
    statically verified here too (:mod:`repro.analysis.verify_plan`), so an
    IR-contract violation surfaces at routing time as a
    :class:`~repro.analysis.PlanVerificationError`.  A query without atoms
    takes the flat plan route whatever ``engine`` forces and whatever Σ:
    its one empty answer needs no join tree and no reformulation.

    Raises:
        ValueError: for an unknown ``engine``, and for a Σ mixing tgds
            with egds or FDs when the route needs a decision.
        AcyclicityRequired: for ``engine="yannakakis"`` on a cyclic query.
        NotSemanticallyAcyclic: for ``engine="reformulation"`` when Σ
            admits no acyclic reformulation.
    """
    if engine not in ("auto", "yannakakis", "reformulation", "decomposition", "plan"):
        raise ValueError(
            f"unknown evaluation engine {engine!r} "
            "(use 'auto', 'yannakakis', 'reformulation', 'decomposition' or 'plan')"
        )
    if not query.body:
        return ("plan", PlanEvaluator(query))
    if engine == "yannakakis" or (engine == "auto" and query.is_acyclic()):
        return _route_verified("yannakakis", YannakakisEvaluator(query))
    # A decision that came from the core carries it: the core is equivalent
    # to the query on every database and smaller, so the decomposition
    # route evaluates it instead.
    core: Optional[ConjunctiveQuery] = None
    if engine == "reformulation" or (engine == "auto" and tgds):
        from ..core.semantic_acyclicity import decide_semantic_acyclicity

        decision = decide_semantic_acyclicity(query, tgds)
        if decision.witness is not None:
            return _route_verified("reformulated", YannakakisEvaluator(decision.witness))
        if engine == "reformulation":
            raise NotSemanticallyAcyclic(
                f"{query.name} is not semantically acyclic under the given constraints"
            )
        core = decision.core
    if engine in ("auto", "decomposition"):
        from .planner_dp import DecompositionEvaluator

        evaluated = query if core is None else core
        return _route_verified("decomposition", DecompositionEvaluator(evaluated))
    return ("plan", PlanEvaluator(query))


def evaluate_iter(
    query: ConjunctiveQuery,
    database: Instance,
    *,
    tgds: Constraints = (),
    engine: str = "auto",
    scans: Optional[ScanProvider] = None,
    limit: Optional[int] = None,
) -> Iterator[Tuple[Term, ...]]:
    """Stream the distinct answers of ``q(D)`` one tuple at a time.

    The streaming counterpart of the set-returning entry points: answers are
    produced incrementally (``LIMIT``-style consumers simply stop pulling),
    and ``set(evaluate_iter(...))`` always equals the corresponding full
    evaluation.  ``engine`` selects the route:

    * ``"auto"`` (default) — the same routing as :func:`evaluate_batch`
      and :class:`repro.service.QueryService`: Yannakakis' streaming
      phase 4 for acyclic queries, Yannakakis on an acyclic reformulation
      when Σ (``tgds``: tgds, or egds and FDs) makes the query semantically
      acyclic (Proposition 24; sound on databases that satisfy Σ), and
      otherwise the decomposition route (bags of a min-fill tree
      decomposition materialised, Yannakakis over the bag tree);
    * ``"yannakakis"`` — require the acyclic route
      (raises :class:`~repro.evaluation.yannakakis.AcyclicityRequired`);
    * ``"reformulation"`` — require the Proposition 24 route (raises
      :class:`NotSemanticallyAcyclic` when Σ admits no acyclic
      reformulation);
    * ``"decomposition"`` — force the decomposition route;
    * ``"plan"`` — force the flat block-streaming join-plan route.

    ``limit`` caps the number of answers at ``min(limit, |q(D)|)``; ``scans``
    injects a shared scan provider (e.g. a
    :class:`~repro.evaluation.batch.ScanCache`) for phase 1.  Routing (join
    tree / reformulation search) happens eagerly at call time, so route
    errors surface here rather than at the first ``next()``; the flat plan
    route plans at the first ``next()``, over the data it then reads.  A
    standing :class:`repro.service.QueryService` streams through the same
    routes with a plan cache and an epoch guard.
    """
    _, evaluator = resolve_route(query, tgds=tgds, engine=engine)
    return evaluator.iter_answers(database, scans=scans, limit=limit)


def explain(
    query: ConjunctiveQuery,
    database: Instance,
    *,
    tgds: Constraints = (),
    engine: str = "auto",
    scans: Optional[ScanProvider] = None,
    execute: bool = True,
    verify: bool = False,
) -> str:
    """Pretty-print the physical plan chosen for ``query`` over ``database``.

    The output names the route (``yannakakis`` / ``reformulated`` /
    ``decomposition`` / ``plan``, selected exactly as in :func:`evaluate_iter` via
    :func:`resolve_route`) and renders the compiled operator tree with each
    operator's **estimated** cardinality (the statistics-calibrated
    :class:`~repro.evaluation.operators.CostModel`) next to its
    **observed** one — unless ``execute=False``, the plan is actually run
    against the database, so mis-estimates are visible line by line::

        query: q(x, z) :- S1(x, y), S2(y, z)
        route: yannakakis
        Project[x, z]  (est=94, obs=87)
          ...
            Scan[S1(x, y)]  (est=300, obs=300)

    ``tgds`` is Σ (tgds, or egds and FDs), as on :func:`evaluate_iter`;
    ``engine`` forces a route; ``scans`` injects a shared
    :class:`~repro.evaluation.batch.ScanCache` (the statistics then reuse
    its base scans).  ``verify=True`` additionally runs the static plan
    verifier (:func:`repro.analysis.verify_plan`) over both compiled faces
    of the explained route and appends its findings — ``verification:
    clean`` on a plan with no diagnostics.  Raises like
    :func:`evaluate_iter` on impossible forced routes.
    """
    route, evaluator = resolve_route(query, tgds=tgds, engine=engine)
    return explain_route(
        query, database, route, evaluator, scans=scans, execute=execute, verify=verify
    )


def explain_route(
    query: ConjunctiveQuery,
    database: Instance,
    route: str,
    evaluator: RouteEvaluator,
    *,
    scans: Optional[ScanProvider] = None,
    execute: bool = True,
    verify: bool = False,
) -> str:
    """:func:`explain` for a route already resolved (``evaluator`` runs it)."""
    if scans is None:
        # One cache for everything explain does — statistics, planning and
        # the executed plan all draw the same base scans and partitions.
        scans = ScanCache(database)
    lines = [f"query: {query}", f"route: {route}"]
    if route == "reformulated":
        lines.append(f"reformulation: {evaluator.query}")
    if route == "decomposition":
        decomposition = evaluator.decomposition  # type: ignore[union-attr]
        bags = ", ".join(
            "{" + ", ".join(sorted(str(v) for v in decomposition.bag(node))) + "}"
            for node in decomposition.nodes()
        )
        lines.append(f"decomposition: width {decomposition.width}, bags {bags}")
    lines.append(evaluator.explain(database, scans=scans, execute=execute))
    if verify:
        diagnostics = verify_route(database, evaluator)
        if diagnostics:
            lines.append(f"verification: {len(diagnostics)} diagnostic(s)")
            lines.extend(f"  {diagnostic.render()}" for diagnostic in diagnostics)
        else:
            lines.append("verification: clean")
    return "\n".join(lines)


def verify_route(database: Instance, evaluator: RouteEvaluator) -> List["Diagnostic"]:
    """The static plan verifier's diagnostics on the plans a route runs.

    Every route is checked on both plan faces (one plan when the stream
    iterates the answer plan); the flat plan route plans them over
    ``database`` unless a run already has.
    """
    from ..analysis.verify_plan import verify_plan

    return [
        diagnostic
        for plan in evaluator.compiled_plans(database)
        for diagnostic in verify_plan(plan)
    ]


def evaluate_batch(
    queries: Iterable[ConjunctiveQuery],
    database: Instance,
    *,
    tgds: Constraints = (),
    scans: Optional[ScanProvider] = None,
) -> List[Set[Tuple[Term, ...]]]:
    """Evaluate a batch of CQs over one database; return one answer set each.

    Every query is routed by :func:`resolve_route` first (Yannakakis for
    acyclic queries, Yannakakis on an acyclic reformulation under Σ
    (``tgds``) via Proposition 24, the decomposition route for the
    remaining cyclic queries), so a route error surfaces before any query
    runs.  The routes then run one after another over one
    :class:`~repro.evaluation.batch.ScanCache` — ``scans`` if given, else a
    new one for ``database`` — so each predicate's base scan, key index and
    partition is built at most once for the whole batch.  Passing the same
    cache to several calls amortises the scan layer across calls too; the
    cache is thread-safe, so client threads may share one.  A standing
    batch, routed once and run many times, is a
    :class:`repro.service.QueryService`.
    """
    routes = [resolve_route(query, tgds=tgds) for query in queries]
    if scans is None:
        scans = ScanCache(database)
    return [evaluator.evaluate(database, scans=scans) for _, evaluator in routes]


def membership_via_cover_game_guarded(
    query: ConjunctiveQuery,
    database: Instance,
    answer: Sequence[GroundTerm] = (),
    *,
    engine: CoverEngine = existential_one_cover,
) -> bool:
    """Theorem 25: membership for semantically acyclic CQs under guarded tgds.

    For ``D ⊨ Σ`` with ``Σ`` guarded and ``q`` semantically acyclic under
    ``Σ``, ``t̄ ∈ q(D)`` iff the duplicator wins the existential 1-cover game
    on ``(q, x̄)`` and ``(D, t̄)`` — the constraints themselves never need to
    be touched at evaluation time.  ``engine`` is the fixpoint implementation
    (the AC-4 propagator :func:`~repro.evaluation.cover_game
    .existential_one_cover` by default).
    """
    return query_covers_database(query, database, answer, engine=engine)


def membership_via_cover_game_egds(
    query: ConjunctiveQuery,
    egds: Sequence[EGD],
    database: Instance,
    answer: Sequence[GroundTerm] = (),
    *,
    engine: CoverEngine = existential_one_cover,
) -> bool:
    """Proposition 31 for egd classes with polynomial chase (e.g. FDs).

    Chase the query with the egds (polynomial, always terminating) and play
    the existential 1-cover game between the chased query and the database.
    """
    result, freezing = egd_chase_query(query, egds, on_failure="return")
    if result.failed:
        return False
    left_tuple = [result.resolve(freezing[v]) for v in query.head]
    return instance_covers_database(
        result.instance, left_tuple, database, answer, engine=engine
    )


def membership_via_chase_and_cover_game_tgds(
    query: ConjunctiveQuery,
    tgds: Sequence[TGD],
    database: Instance,
    answer: Sequence[GroundTerm] = (),
    max_steps: int = 5_000,
    max_depth: Optional[int] = None,
    *,
    engine: CoverEngine = existential_one_cover,
) -> bool:
    """Proposition 31 instantiated with a (possibly truncated) tgd chase.

    Used as an ablation against :func:`membership_via_cover_game_guarded`:
    Lemma 32 states that for guarded sets the two coincide, so chasing first
    is unnecessary work.
    """
    result, freezing = chase_query(query, tgds, max_steps=max_steps, max_depth=max_depth)
    left_tuple = [freezing[v] for v in query.head]
    return instance_covers_database(
        result.instance, left_tuple, database, answer, engine=engine
    )


def membership_baseline(
    query: ConjunctiveQuery,
    database: Instance,
    answer: Sequence[GroundTerm] = (),
) -> bool:
    """NP baseline: direct homomorphism search for ``t̄ ∈ q(D)``."""
    return membership_generic(query, database, tuple(answer))
