"""Evaluation engines: Yannakakis, generic join, cover game, routing, batch.

Every set-at-a-time engine compiles to the shared physical-operator IR of
:mod:`repro.evaluation.operators` (``Scan`` / ``SemiJoin`` / ``HashJoin`` /
``Project`` / ``BagNode``), whose one face
materialises each operator's output over dictionary-encoded integer columns
(:mod:`repro.evaluation.encoding`) read from the scans of the
:class:`~repro.evaluation.relation.Relation` layer, decodes terms only at
the output boundary, and records per-operator estimated
(statistics-calibrated :class:`CostModel`) and observed cardinalities —
pretty-printed by the :func:`explain` API.  Every route also has a
*streaming* entry point: :func:`evaluate_iter` (and
:meth:`YannakakisEvaluator.iter_answers`, :func:`iter_with_plan`)
yields distinct answers one at a time instead of materialising the
output — the ``LIMIT``-style serving scenarios of the ROADMAP.  Every stream that joins runs one batch loop
over a left-deep join chain (:func:`repro.evaluation.join_plans
.stream_chain`): the plan route's chain of scans, and the Yannakakis
routes' chain of reduced join-tree nodes when the head spans several
nodes.

Join plans come from one planner, the Selinger DP of
:mod:`~repro.evaluation.planner_dp` (left-deep :func:`plan_dp_linear` on
the streaming faces, :func:`plan_greedy` past :data:`DP_ATOM_LIMIT`
atoms); ``planner=`` takes any other planner as a callable.  The cover
game's ``engine=`` likewise takes the fixpoint as a callable, defaulting
to the worklist propagator :func:`existential_one_cover`.  Differential
oracles and ablation baselines (the tuple-at-a-time operator engine, the
assignment-dict Yannakakis, the round-based cover game, the ablation-only
planners) live under ``tests/helpers/`` and are not part of this package.

On numpy storage (``REPRO_NUMPY=1``) the batch face's join, semi-join and
projection run one vectorised kernel each
(:mod:`repro.evaluation.parallel`: dense-code kernels over radix-ordered
build sides, code-range masks and ``bincount`` blocks, dedup over the radix
order — no comparison sort), with answers bit-identical to the loop
kernels.

Every entry point routes through :func:`resolve_route`, which returns the
chosen route's evaluator — :class:`YannakakisEvaluator` (and its
:class:`DecompositionEvaluator` subclass) or, for the flat join-plan
route, a :class:`PlanEvaluator` — and runs it through the faces they
share (``evaluate``, ``iter_answers``, ``boolean``, ``explain``).

Batches of queries over one database go through :func:`evaluate_batch`,
which routes every query and runs the routes over one :class:`ScanCache`
(:mod:`repro.evaluation.batch`), so the batch shares its phase-1 atom
scans and hash partitions; the same
cache — a standing :class:`repro.service.QueryService`'s included — can
be injected into any single-query entry point through its ``scans=``
parameter.
"""

from .relation import Partition, Relation, ScanProvider, SchemaError
from .encoding import EncodedRelation, TermEncoder, numpy_enabled
from .operators import (
    BagNode,
    CardinalityEstimate,
    CostModel,
    ExecutionContext,
    HashJoin,
    Operator,
    Project,
    Scan,
    SemiJoin,
    Statistics,
    render_plan,
)
from .parallel import PARALLEL_MIN_ROWS
from .batch import CacheBindingError, ScanCache
from .yannakakis import (
    AcyclicityRequired,
    YannakakisEvaluator,
    boolean_acyclic,
    evaluate_acyclic,
)
from .generic import evaluate_generic, membership_generic
from .join_plans import (
    JoinPlan,
    PlanEvaluator,
    PlanExecution,
    PlanStep,
    PlanTree,
    boolean_with_plan,
    compile_plan,
    estimated_intermediate_sizes,
    evaluate_with_plan,
    execute_plan,
    explain_plan,
    iter_plan_answers,
    iter_with_plan,
    plan_greedy,
    resolve_planner,
)
from .planner_dp import DP_ATOM_LIMIT, DecompositionEvaluator, plan_dp, plan_dp_linear
from .cover_game import (
    CoverEngine,
    CoverGameResult,
    existential_one_cover,
    instance_covers_database,
    query_covers_database,
)
from .semacyclic_eval import (
    NotSemanticallyAcyclic,
    evaluate_batch,
    evaluate_iter,
    evaluate_via_reformulation,
    explain,
    membership_baseline,
    membership_via_chase_and_cover_game_tgds,
    membership_via_cover_game_egds,
    membership_via_cover_game_guarded,
    resolve_route,
)

__all__ = [
    "AcyclicityRequired",
    "BagNode",
    "CacheBindingError",
    "CardinalityEstimate",
    "CostModel",
    "CoverEngine",
    "CoverGameResult",
    "DP_ATOM_LIMIT",
    "DecompositionEvaluator",
    "EncodedRelation",
    "ExecutionContext",
    "HashJoin",
    "JoinPlan",
    "NotSemanticallyAcyclic",
    "Operator",
    "PARALLEL_MIN_ROWS",
    "Partition",
    "PlanEvaluator",
    "PlanExecution",
    "PlanStep",
    "PlanTree",
    "Project",
    "Relation",
    "Scan",
    "ScanCache",
    "ScanProvider",
    "SchemaError",
    "SemiJoin",
    "Statistics",
    "TermEncoder",
    "YannakakisEvaluator",
    "boolean_acyclic",
    "boolean_with_plan",
    "compile_plan",
    "estimated_intermediate_sizes",
    "evaluate_acyclic",
    "evaluate_batch",
    "evaluate_generic",
    "evaluate_iter",
    "evaluate_via_reformulation",
    "evaluate_with_plan",
    "execute_plan",
    "existential_one_cover",
    "explain",
    "explain_plan",
    "instance_covers_database",
    "iter_plan_answers",
    "iter_with_plan",
    "membership_baseline",
    "membership_generic",
    "membership_via_chase_and_cover_game_tgds",
    "membership_via_cover_game_egds",
    "membership_via_cover_game_guarded",
    "numpy_enabled",
    "plan_dp",
    "plan_dp_linear",
    "plan_greedy",
    "query_covers_database",
    "render_plan",
    "resolve_planner",
    "resolve_route",
]
