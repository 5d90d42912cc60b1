"""Static plan verifier: clean-plan properties and a mutation corpus.

Two halves.  The property half compiles plans the engines actually emit —
Yannakakis answer/stream faces, greedy join chains, the reformulation
route — over randomized workloads and asserts :func:`repro.analysis
.verify_plan` finds nothing.  The mutation half hand-corrupts one invariant
at a time (a dropped join key, a stale projection, a desynchronised bag,
...) and asserts the *exact* diagnostic code fires: the corpus is what
keeps the verifier honest, one test per PLAN code.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.workloads import randomized_acyclic_workload, randomized_cyclic_workload
from repro.analysis import (
    Diagnostic,
    PlanVerificationError,
    Severity,
    errors,
    verify_plan,
)
from repro.analysis.verify_plan import (
    maybe_verify,
    verification_enabled,
    verify_or_raise,
)
from repro.datamodel import Atom, Null, Predicate, Variable
from repro.evaluation import (
    AcyclicityRequired,
    BagNode,
    CostModel,
    DecompositionEvaluator,
    ExecutionContext,
    HashJoin,
    PlanEvaluator,
    Project,
    Scan,
    SemiJoin,
    Statistics,
    YannakakisEvaluator,
    compile_plan,
    plan_dp,
    plan_greedy,
    resolve_route,
)
from repro.evaluation.operators import first_occurrence_schema
from repro.parser import parse_query, parse_tgd
from repro.workloads.generators import yannakakis_scaling_workload


E = Predicate("E", 2)
F = Predicate("F", 2)
G = Predicate("G", 2)
x, y, z, w = Variable("x"), Variable("y"), Variable("z"), Variable("w")


def scan_e():
    return Scan(Atom(E, (x, y)))


def scan_f():
    return Scan(Atom(F, (y, z)))


def scan_g():
    return Scan(Atom(G, (z, w)))


def codes(diagnostics):
    return [d.code for d in diagnostics]


def _walk(root):
    """Every distinct operator reachable from ``root`` (shared nodes once)."""
    seen, stack, found = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        found.append(node)
        stack.extend(node.children)
    return found


def path_evaluator():
    return YannakakisEvaluator(parse_query("q(x, z) :- E(x, y), F(y, z)"))


# ----------------------------------------------------------------------
# Emitted plans verify clean (the property the REPRO_VERIFY hook enforces)
# ----------------------------------------------------------------------
class TestEmittedPlansAreClean:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_yannakakis_faces_verify_clean(self, seed):
        query, _database = randomized_acyclic_workload(seed)
        try:
            evaluator = YannakakisEvaluator(query)
        except AcyclicityRequired:
            return  # constant injection made the hypergraph cyclic
        assert verify_plan(evaluator.compile_answer_plan()) == []
        assert verify_plan(evaluator.compile_stream_plan()) == []
        assert verify_plan(evaluator.compile_boolean_plan()) == []

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_greedy_join_chains_verify_clean(self, seed):
        query, database = randomized_cyclic_workload(seed)
        ops = compile_plan(plan_greedy(query, database))
        assert verify_plan(ops[-1]) == []
        top = Project(ops[-1], first_occurrence_schema(query.head))
        assert verify_plan(top) == []

    def test_reformulation_route_verifies_clean(self, music_store):
        query, tgds, _reformulation = music_store
        route, evaluator = resolve_route(query, tgds=tgds)
        assert route == "reformulated"
        assert verify_plan(evaluator.compile_answer_plan()) == []
        assert verify_plan(evaluator.compile_stream_plan()) == []

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_dp_bushy_plans_verify_clean(self, seed):
        query, database = randomized_cyclic_workload(seed)
        ops = compile_plan(plan_dp(query, database))
        assert verify_plan(ops[-1]) == []
        top = Project(ops[-1], first_occurrence_schema(query.head))
        assert verify_plan(top) == []

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_decomposition_faces_verify_clean(self, seed):
        query, _database = randomized_cyclic_workload(seed)
        evaluator = DecompositionEvaluator(query)
        assert verify_plan(evaluator.compile_answer_plan()) == []
        assert verify_plan(evaluator.compile_stream_plan()) == []
        assert verify_plan(evaluator.compile_boolean_plan()) == []


# ----------------------------------------------------------------------
# Mutation corpus — one hand-corrupted plan per diagnostic code
# ----------------------------------------------------------------------
class TestMutationCorpus:
    def test_plan001_cycle(self):
        inner = Project(scan_e(), (x, y))
        outer = Project(inner, (x, y))
        inner.children = (outer,)  # re-root: outer -> inner -> outer
        assert "PLAN001" in codes(verify_plan(outer))

    def test_plan002_non_variable_schema_entry(self):
        scan = scan_e()
        scan.schema = (x, "y")
        assert codes(verify_plan(scan)) == ["PLAN002"]

    def test_plan002_repeated_schema_variable(self):
        scan = scan_e()
        scan.schema = (x, x)
        assert codes(verify_plan(scan)) == ["PLAN002"]

    def test_plan003_wrong_child_count(self):
        join = HashJoin(scan_e(), scan_f())
        join.children = (join.children[0],)  # drop the probe side
        assert codes(verify_plan(join)) == ["PLAN003"]

    def test_plan004_unbound_projection_target(self):
        project = Project(scan_e(), (x,))
        project.schema = (x, w)  # w is not produced upstream
        assert codes(verify_plan(project)) == ["PLAN004"]

    def test_plan004_stale_projection_positions(self):
        project = Project(scan_e(), (y, x))
        project._positions = (0, 1)  # recomputation gives (1, 0)
        assert codes(verify_plan(project)) == ["PLAN004"]

    def test_plan005_dropped_join_key(self):
        join = HashJoin(scan_e(), scan_f())
        join._left_key = (0,)  # the shared variable y lives at position 1
        assert codes(verify_plan(join)) == ["PLAN005"]

    def test_plan005_semijoin_key_disagrees(self):
        semi = SemiJoin(scan_e(), scan_f())
        semi._shared = (x,)  # the operands actually share y
        assert codes(verify_plan(semi)) == ["PLAN005"]

    def test_plan006_hash_join_schema_drops_residual(self):
        join = HashJoin(scan_e(), scan_f())
        join.schema = (x, y)  # silently loses the residual z
        assert codes(verify_plan(join)) == ["PLAN006"]

    def test_plan006_semijoin_changes_schema(self):
        semi = SemiJoin(scan_e(), scan_f())
        semi.schema = (x,)  # a semi-join keeps its left schema
        assert codes(verify_plan(semi)) == ["PLAN006"]

    def test_plan008_partial_estimates_warn(self):
        join = HashJoin(scan_e(), scan_f())
        estimates = {join: 5.0}  # children remain unannotated
        diagnostics = verify_plan(join, estimates=estimates)
        assert codes(diagnostics) == ["PLAN008"]
        assert diagnostics[0].severity is Severity.WARNING

    def test_cost_model_estimates_verify_clean(self):
        query, database = yannakakis_scaling_workload(60, seed=0)
        plan = YannakakisEvaluator(query).compile_answer_plan()
        model = CostModel(Statistics(database))
        model.annotate(plan)
        assert verify_plan(plan, estimates=model.row_estimates()) == []

    def test_plan009_negative_estimate(self):
        scan = scan_e()
        assert codes(verify_plan(scan, estimates={scan: -3})) == ["PLAN009"]

    def test_plan009_non_finite_estimate(self):
        scan = scan_e()
        assert codes(verify_plan(scan, estimates={scan: math.nan})) == ["PLAN009"]

    def test_plan010_scan_arity_mismatch(self):
        scan = scan_e()
        object.__setattr__(scan.atom, "terms", (x,))
        assert codes(verify_plan(scan)) == ["PLAN010"]

    def test_plan010_scan_atom_contains_null(self):
        scan = scan_e()
        object.__setattr__(scan.atom, "terms", (Null("n1"), y))
        assert codes(verify_plan(scan)) == ["PLAN010"]

    def test_plan013_unregistered_operator_type(self):
        class CustomScan(Scan):
            """A subclass outside the batch-face width registry."""

        diagnostics = verify_plan(CustomScan(Atom(E, (x, y))))
        assert codes(diagnostics) == ["PLAN013"]
        assert diagnostics[0].severity is Severity.WARNING

    def test_plan014_stale_cached_encoding(self):
        query, database = yannakakis_scaling_workload(60, seed=0)
        ops = compile_plan(plan_greedy(query, database))
        top = Project(ops[-1], first_occurrence_schema(query.head))
        context = ExecutionContext(database)
        top.materialize_encoded(context)
        # the executed plan verifies clean
        assert verify_plan(top, run=context.run) == []
        # a wrong-width encoded result in the run record
        context.run[top].encoded = context.run[top.children[0]].encoded
        assert codes(verify_plan(top, run=context.run)) == ["PLAN014"]
        assert verify_plan(top) == []  # no run, nothing to cross-check

    def test_plan014_takes_priority_only_on_clean_nodes(self):
        # A schema corruption reports its own code, not a duplicate
        # PLAN014 — the batch check runs only on clean nodes.
        project = Project(scan_e(), (x,))
        project.schema = (x, w)  # len(_positions) == 1 != 2 == len(schema)
        assert codes(verify_plan(project)) == ["PLAN004"]

    def two_bag_evaluator(self):
        """Two triangles sharing a vertex: a two-bag decomposition."""
        return DecompositionEvaluator(
            parse_query(
                "q(x) :- E(x, y), E(y, z), E(z, x), F(z, w), F(w, v), F(v, z)"
            )
        )

    def test_plan015_bag_declaration_disagrees_with_its_schema(self):
        evaluator = self.two_bag_evaluator()
        plan = evaluator.compile_answer_plan()
        assert verify_plan(plan) == []
        bag = next(op for op in _walk(plan) if isinstance(op, BagNode))
        bag.bag = frozenset(set(bag.bag) | {Variable("ghost")})
        diagnostics = verify_plan(bag)
        assert codes(diagnostics) == ["PLAN015"]
        assert diagnostics[0].severity is Severity.ERROR

    def test_plan015_bag_schema_desyncs_from_its_sub_plan(self):
        evaluator = self.two_bag_evaluator()
        plan = evaluator.compile_answer_plan()
        bag = next(op for op in _walk(plan) if isinstance(op, BagNode))
        bag.schema = tuple(reversed(bag.schema))
        assert codes(verify_plan(bag)) == ["PLAN015"]

# ----------------------------------------------------------------------
# The REPRO_VERIFY hook
# ----------------------------------------------------------------------
class TestVerificationHook:
    def corrupted_plan(self):
        join = HashJoin(scan_e(), scan_f())
        join._left_key = (0,)
        return join

    def test_verify_or_raise_raises_on_errors(self):
        with pytest.raises(PlanVerificationError) as info:
            verify_or_raise(self.corrupted_plan(), where="unit test")
        assert "unit test" in str(info.value)
        assert codes(info.value.diagnostics) == ["PLAN005"]

    def test_environment_switch_parsing(self, monkeypatch):
        for value in ("", "0", "false", "no", "off", " OFF "):
            monkeypatch.setenv("REPRO_VERIFY", value)
            assert not verification_enabled()
        for value in ("1", "true", "yes", "on"):
            monkeypatch.setenv("REPRO_VERIFY", value)
            assert verification_enabled()
        monkeypatch.delenv("REPRO_VERIFY")
        assert not verification_enabled()

    def test_maybe_verify_is_a_no_op_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "0")
        assert maybe_verify(self.corrupted_plan()) is None

    def test_maybe_verify_raises_when_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        with pytest.raises(PlanVerificationError):
            maybe_verify(self.corrupted_plan())

    def test_resolve_route_verifies_emitted_plans(self, music_store, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        query, tgds, _reformulation = music_store
        route, evaluator = resolve_route(query, tgds=tgds)
        assert route == "reformulated"
        assert evaluator is not None
        cyclic = parse_query("q(x) :- E(x, y), E(y, z), E(z, x)")
        route, evaluator = resolve_route(cyclic)
        assert route == "decomposition"
        assert evaluator is not None
        # The flat plan route needs the data to plan, so routing hands back
        # an evaluator that has planned nothing yet.
        route, evaluator = resolve_route(cyclic, engine="plan")
        assert route == "plan" and isinstance(evaluator, PlanEvaluator)
        assert evaluator._plans == {}

    def test_compile_seam_catches_corruption(self, monkeypatch):
        """A compiler whose output is tampered with mid-flight is caught at
        the seam: simulate by corrupting a reduced node's semi-join key
        before the stream compiler joins it, with verification enabled."""
        monkeypatch.setenv("REPRO_VERIFY", "1")
        evaluator = path_evaluator()
        reduce = evaluator.compile_reduction

        def corrupted():
            ops = reduce()
            ops[evaluator.join_tree.root]._left_key = (7,)
            return ops

        monkeypatch.setattr(evaluator, "compile_reduction", corrupted)
        with pytest.raises(PlanVerificationError):
            evaluator.compile_stream_plan()


# ----------------------------------------------------------------------
# Diagnostic records
# ----------------------------------------------------------------------
class TestDiagnostics:
    def test_unknown_code_is_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("PLAN999", Severity.ERROR, "nope")

    def test_render_and_as_dict(self):
        diagnostic = Diagnostic(
            "PLAN005", Severity.ERROR, "keys disagree", subject="HashJoin[y]"
        )
        assert diagnostic.render() == "PLAN005 error: keys disagree [HashJoin[y]]"
        payload = diagnostic.as_dict()
        assert payload["code"] == "PLAN005"
        assert payload["severity"] == "error"

    def test_errors_filter(self):
        mixed = [
            Diagnostic("PLAN008", Severity.WARNING, "partial estimates"),
            Diagnostic("PLAN005", Severity.ERROR, "keys disagree"),
        ]
        assert codes(errors(mixed)) == ["PLAN005"]
