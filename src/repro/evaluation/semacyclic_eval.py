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

* **Batched evaluation** (:func:`evaluate_batch`): many CQs against one
  database at once, sharing the phase-1 atom scans and hash partitions
  through a :class:`repro.evaluation.batch.ScanCache` — the serving-path
  amortisation for query batches over overlapping predicates.

Route selection is shared: :func:`resolve_route` picks
Yannakakis / reformulation / decomposition / flat-plan exactly once for
:func:`evaluate_iter`, :class:`~repro.evaluation.batch.BatchEvaluator` and
the CLI alike, and :func:`explain` pretty-prints whichever physical
operator plan the chosen route compiles, with the cost model's estimated
cardinalities next to the executed, observed ones.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..chase.egd_chase import egd_chase_query
from ..chase.tgd_chase import chase_query
from ..datamodel import GroundTerm, Instance, Term
from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..queries.cq import ConjunctiveQuery
from .batch import BatchEvaluator, ScanCache
from .cover_game import (
    CoverEngine,
    existential_one_cover,
    instance_covers_database,
    query_covers_database,
)
from .generic import membership_generic
from .join_plans import explain_plan, iter_with_plan, resolve_planner
from .operators import Statistics
from .relation import Relation, ScanProvider
from .yannakakis import AcyclicityRequired, YannakakisEvaluator


class NotSemanticallyAcyclic(ValueError):
    """Raised when a reformulation-based evaluator gets a non-reformulable query."""


#: Environment variable routing the one-shot entry points through the
#: long-lived :class:`repro.service.QueryService` registry.
SERVICE_ENV = "REPRO_SERVICE"


def service_enabled() -> bool:
    """Whether ``REPRO_SERVICE`` routes evaluation through a shared service.

    When enabled (set to anything but ``""``/``"0"``/``"false"``), calls to
    :func:`evaluate_iter` and :func:`evaluate_batch` that do *not* supply
    their own scan provider are served by the per-database
    :func:`repro.service.shared_service` — so repeated one-shot calls gain
    the service's epoch-aware scan cache and query-shape plan cache.
    An explicit ``scans=`` always wins over the service seam.
    """
    return os.environ.get(SERVICE_ENV, "").strip().lower() not in ("", "0", "false")


@dataclass
class SemAcEvaluation:
    """A reusable evaluator built from an acyclic reformulation of a query."""

    original: ConjunctiveQuery
    reformulation: ConjunctiveQuery
    _evaluator: YannakakisEvaluator

    @classmethod
    def from_reformulation(
        cls, original: ConjunctiveQuery, reformulation: ConjunctiveQuery
    ) -> "SemAcEvaluation":
        return cls(original, reformulation, YannakakisEvaluator(reformulation))

    def evaluate(
        self,
        database: Instance,
        *,
        scans: Optional[ScanProvider] = None,
    ) -> Set[Tuple[Term, ...]]:
        """Return ``q(D)`` (equal to ``q'(D)`` on every ``D ⊨ Σ``)."""
        return self._evaluator.evaluate(database, scans=scans)

    def answer_relation(
        self,
        database: Instance,
        *,
        scans: Optional[ScanProvider] = None,
    ) -> Relation:
        """Return ``q(D)`` as a :class:`Relation` over the free variables.

        The relation comes straight from the Yannakakis phase-4 join on the
        reformulation, so callers that post-process answers (batching,
        further joins) can stay inside the hash-relation engine instead of
        round-tripping through Python sets of tuples.
        """
        return self._evaluator.answer_relation(database, scans=scans)

    def iter_answers(
        self,
        database: Instance,
        *,
        scans: Optional[ScanProvider] = None,
        limit: Optional[int] = None,
    ) -> Iterator[Tuple[Term, ...]]:
        """Stream ``q(D)`` one answer at a time through the reformulation.

        Delegates to the streaming phase 4 of the underlying Yannakakis
        evaluator (:meth:`~repro.evaluation.yannakakis.YannakakisEvaluator
        .iter_answers`), so the first answer arrives after the semi-join
        passes instead of after the whole output.
        """
        return self._evaluator.iter_answers(database, scans=scans, limit=limit)

    def boolean(
        self,
        database: Instance,
        *,
        scans: Optional[ScanProvider] = None,
    ) -> bool:
        return self._evaluator.boolean(database, scans=scans)


def evaluate_via_reformulation(
    query: ConjunctiveQuery,
    tgds: Sequence[TGD],
    database: Instance,
) -> Set[Tuple[Term, ...]]:
    """The fpt algorithm of Proposition 24: reformulate, then run Yannakakis.

    Raises:
        NotSemanticallyAcyclic: if ``query`` has no acyclic reformulation
            under ``tgds``.
    """
    from ..core.semantic_acyclicity import find_acyclic_reformulation_tgds

    reformulation = find_acyclic_reformulation_tgds(query, tgds)
    if reformulation is None:
        raise NotSemanticallyAcyclic(
            f"{query.name} is not semantically acyclic under the given tgds"
        )
    return SemAcEvaluation.from_reformulation(query, reformulation).evaluate(database)


def _route_verified(
    route: str, evaluator: YannakakisEvaluator
) -> Tuple[str, YannakakisEvaluator]:
    """Apply the ``REPRO_VERIFY`` hook to an evaluator route.

    When the environment enables verification, both plan faces are compiled
    eagerly here — each compiler runs the static verifier on what it emits
    (:func:`repro.analysis.verify_plan.maybe_verify`), so a plan violating
    the IR contracts fails at *routing* time, before any execution.  The
    plan route is covered by the same hook inside
    :mod:`repro.evaluation.join_plans` when its plans are compiled.
    """
    from ..analysis.verify_plan import verification_enabled

    if verification_enabled():
        evaluator.compile_answer_plan()
        evaluator.compile_stream_plan()
    return (route, evaluator)


def resolve_route(
    query: ConjunctiveQuery,
    *,
    tgds: Sequence[TGD] = (),
    engine: str = "auto",
) -> Tuple[str, Optional[YannakakisEvaluator]]:
    """Pick the evaluation route for ``query`` (shared by every entry point).

    Returns ``(route, evaluator)`` where ``route`` is one of
    ``"yannakakis"`` (the query is acyclic — ``evaluator`` runs it),
    ``"reformulated"`` (Proposition 24 — ``evaluator`` runs the acyclic
    reformulation), ``"decomposition"`` (cyclic query — ``evaluator`` is a
    :class:`~repro.evaluation.planner_dp.DecompositionEvaluator`
    materialising tree-decomposition bags and running Yannakakis over the
    bag tree) or ``"plan"`` (flat join-plan fallback, ``evaluator`` is
    ``None``; reachable only by forcing ``engine="plan"``).  ``engine``
    forces a route the same way it does on
    :func:`evaluate_iter`; routing work (join tree construction, the
    reformulation search) happens here, eagerly.  With the ``REPRO_VERIFY``
    environment variable set (to anything but ``0``/``false``/``no``), the
    chosen evaluator's plans are compiled and statically verified here too
    (:mod:`repro.analysis.verify_plan`), so an IR-contract violation
    surfaces at routing time as a
    :class:`~repro.analysis.PlanVerificationError`.

    Raises:
        ValueError: for an unknown ``engine``.
        AcyclicityRequired: for ``engine="yannakakis"`` on a cyclic query.
        NotSemanticallyAcyclic: for ``engine="reformulation"`` when the
            tgds admit no acyclic reformulation.
    """
    if engine not in ("auto", "yannakakis", "reformulation", "decomposition", "plan"):
        raise ValueError(
            f"unknown evaluation engine {engine!r} "
            "(use 'auto', 'yannakakis', 'reformulation', 'decomposition' or 'plan')"
        )
    if engine in ("auto", "yannakakis"):
        try:
            return _route_verified("yannakakis", YannakakisEvaluator(query))
        except AcyclicityRequired:
            if engine == "yannakakis":
                raise
    if engine in ("auto", "reformulation") and (tgds or engine == "reformulation"):
        from ..core.semantic_acyclicity import find_acyclic_reformulation_tgds

        reformulation = find_acyclic_reformulation_tgds(query, tgds)
        if reformulation is not None:
            return _route_verified("reformulated", YannakakisEvaluator(reformulation))
        if engine == "reformulation":
            raise NotSemanticallyAcyclic(
                f"{query.name} is not semantically acyclic under the given tgds"
            )
    if engine in ("auto", "decomposition") and query.body:
        from .planner_dp import DecompositionEvaluator

        return _route_verified("decomposition", DecompositionEvaluator(query))
    return ("plan", None)


def evaluate_iter(
    query: ConjunctiveQuery,
    database: Instance,
    *,
    tgds: Sequence[TGD] = (),
    engine: str = "auto",
    scans: Optional[ScanProvider] = None,
    limit: Optional[int] = None,
) -> Iterator[Tuple[Term, ...]]:
    """Stream the distinct answers of ``q(D)`` one tuple at a time.

    The streaming counterpart of the set-returning entry points: answers are
    produced incrementally (``LIMIT``-style consumers simply stop pulling),
    and ``set(evaluate_iter(...))`` always equals the corresponding full
    evaluation.  ``engine`` selects the route:

    * ``"auto"`` (default) — the same routing as
      :class:`~repro.evaluation.batch.BatchEvaluator`: Yannakakis' streaming
      phase 4 for acyclic queries, Yannakakis on an acyclic reformulation
      when ``tgds`` make the query semantically acyclic (Proposition 24),
      and otherwise the decomposition route (bags of a min-fill tree
      decomposition materialised, Yannakakis over the bag tree);
    * ``"yannakakis"`` — require the acyclic route
      (raises :class:`~repro.evaluation.yannakakis.AcyclicityRequired`);
    * ``"reformulation"`` — require the Proposition 24 route (raises
      :class:`NotSemanticallyAcyclic` when ``tgds`` admit no acyclic
      reformulation);
    * ``"decomposition"`` — force the decomposition route;
    * ``"plan"`` — force the flat block-streaming join-plan route.

    ``limit`` caps the number of answers at ``min(limit, |q(D)|)``; ``scans``
    injects a shared scan provider (e.g. a
    :class:`~repro.evaluation.batch.ScanCache`) for phase 1.  Routing (join
    tree / reformulation search / planning) happens eagerly at call time, so
    route errors surface here rather than at the first ``next()``.

    Under ``REPRO_SERVICE`` (see :func:`service_enabled`) a call without an
    explicit ``scans=`` is delegated to the per-database
    :class:`repro.service.QueryService`, gaining its epoch-aware scan cache
    and plan cache; the stream then raises
    :class:`repro.service.ConcurrentMutationError` if the database mutates
    while the generator is open.
    """
    if scans is None and service_enabled():
        from ..service import shared_service

        return shared_service(database).stream(
            query, tgds=tgds, engine=engine, limit=limit
        )
    route, evaluator = resolve_route(query, tgds=tgds, engine=engine)
    if evaluator is not None:  # "yannakakis" and "reformulated"
        return evaluator.iter_answers(database, scans=scans, limit=limit)
    return iter_with_plan(query, database, scans=scans, limit=limit)


def explain(
    query: ConjunctiveQuery,
    database: Instance,
    *,
    tgds: Sequence[TGD] = (),
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

    ``engine`` forces a route; ``scans`` injects a shared
    :class:`~repro.evaluation.batch.ScanCache` (the statistics then reuse
    its base scans).  ``verify=True`` additionally runs the static plan
    verifier (:func:`repro.analysis.verify_plan`) over both compiled faces
    of the explained route and appends its findings — ``verification:
    clean`` on a plan with no diagnostics.  Raises like
    :func:`evaluate_iter` on impossible forced routes.
    """
    route, evaluator = resolve_route(query, tgds=tgds, engine=engine)
    if scans is None:
        # One cache for everything explain does — statistics, planning and
        # the executed plan all draw the same base scans and partitions.
        scans = ScanCache(database)
    lines = [f"query: {query}", f"route: {route}"]
    plan = None
    if evaluator is not None:
        if route == "reformulated":
            lines.append(f"reformulation: {evaluator.query}")
        if route == "decomposition":
            decomposition = evaluator.decomposition
            bags = ", ".join(
                "{" + ", ".join(sorted(str(v) for v in decomposition.bag(node))) + "}"
                for node in decomposition.nodes()
            )
            lines.append(
                f"decomposition: width {decomposition.width}, bags {bags}"
            )
        lines.append(evaluator.explain(database, scans=scans, execute=execute))
    else:
        statistics = Statistics(database, scans)
        planner = resolve_planner(None)
        plan = planner(query, database, scans=scans, statistics=statistics)
        lines.append(
            explain_plan(
                plan,
                database,
                scans=scans,
                statistics=statistics,
                execute=execute,
            )
        )
    if verify:
        from ..analysis.verify_plan import verify_plan

        diagnostics = []
        if evaluator is not None:
            diagnostics.extend(verify_plan(evaluator.compile_answer_plan()))
            diagnostics.extend(
                verify_plan(evaluator.compile_stream_plan(), streaming=True)
            )
        elif plan is not None and plan.steps:
            from .join_plans import compile_plan
            from .operators import Project, first_occurrence_schema

            top = Project(
                compile_plan(plan)[-1], first_occurrence_schema(query.head)
            )
            diagnostics.extend(verify_plan(top, streaming=True))
        if diagnostics:
            lines.append(f"verification: {len(diagnostics)} diagnostic(s)")
            lines.extend(f"  {diagnostic.render()}" for diagnostic in diagnostics)
        else:
            lines.append("verification: clean")
    return "\n".join(lines)


def evaluate_batch(
    queries: Iterable[ConjunctiveQuery],
    database: Instance,
    *,
    tgds: Sequence[TGD] = (),
    engine: str = "batch",
    scans: Optional[ScanProvider] = None,
) -> List[Set[Tuple[Term, ...]]]:
    """Evaluate a batch of CQs over one database; return one answer set each.

    Each query is routed to the cheapest applicable engine (Yannakakis for
    acyclic queries, Yannakakis on an acyclic reformulation under ``tgds``
    via Proposition 24, a greedy hash-join plan otherwise — see
    :class:`repro.evaluation.batch.BatchEvaluator`).

    ``engine`` selects the phase-1 strategy:

    * ``"batch"`` (default) — all queries share one
      :class:`~repro.evaluation.batch.ScanCache`, so each predicate's base
      scan, key index and hash partition is built at most once for the
      whole batch;
    * ``"sequential"`` — the one-query-at-a-time baseline (identical
      routing, no sharing), kept for benchmarking and differential testing.

    ``scans`` optionally supplies the cache to use with ``engine="batch"``,
    which amortises the *scan layer* across calls over an unchanged
    database.  Note that this convenience function re-routes the queries
    (join trees, and under ``tgds`` the reformulation search — usually the
    dominant per-query setup cost) on every call; a standing batch should
    construct one :class:`~repro.evaluation.batch.BatchEvaluator` and call
    its :meth:`~repro.evaluation.batch.BatchEvaluator.evaluate` repeatedly.
    """
    if engine not in ("batch", "sequential"):
        raise ValueError(
            f"unknown batch engine {engine!r} (use 'batch' or 'sequential')"
        )
    if engine == "sequential" and scans is not None:
        raise ValueError(
            "scans= is meaningless with engine='sequential' (the baseline "
            "shares nothing); drop it or use engine='batch'"
        )
    if engine == "batch" and scans is None and service_enabled():
        from ..service import shared_service

        scans = shared_service(database).scans
    batch = BatchEvaluator(queries, tgds=tgds)
    if engine == "batch":
        return batch.evaluate(database, scans=scans)
    return batch.evaluate_sequential(database)


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
