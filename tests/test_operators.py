"""The physical-operator IR: its execution face, cost model, EXPLAIN.

Three layers of guarantees:

1. **Operator semantics** — every operator's materialising face
   (``materialize()``, decoded from ``materialize_encoded()``) agrees with
   the tuple-at-a-time oracle (``tests/helpers/tuple_engine.py``) and
   records its observed cardinalities; the plan route's stream
   (``iter_plan_answers``) yields the same rows over a compiled plan and
   counts rows and probes per join.

2. **Engine ↔ IR differentials** — the plans the engines compile
   (Yannakakis' reducer + cursor/hash-join plans, the greedy left-deep
   chains) produce exactly the ground-truth answer sets of
   ``evaluate``/``evaluate_iter`` across all three routes, under hypothesis
   randomization including constants, repeated head variables and
   ``limit=`` semantics.

3. **Bounded work** — the stream of the plan route pipelines its
   whole chain: at one row per batch, ``iter_with_plan`` with a small
   ``limit`` must cost bucket probes proportional to the answers pulled,
   not to the join prefix.  Asserted with the
   deterministic :class:`repro.evaluation.relation.Partition` probe
   counters, not wall clocks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import tuple_engine as oracle
from helpers.workloads import randomized_acyclic_workload, randomized_cyclic_workload
from repro.datamodel import Atom, Constant, Database, Predicate, Variable
from repro.evaluation import (
    AcyclicityRequired,
    CostModel,
    DecompositionEvaluator,
    ExecutionContext,
    HashJoin,
    JoinPlan,
    PlanStep,
    PlanTree,
    Project,
    Scan,
    ScanCache,
    SemiJoin,
    Statistics,
    YannakakisEvaluator,
    compile_plan,
    evaluate_generic,
    evaluate_iter,
    evaluate_with_plan,
    execute_plan,
    explain,
    iter_plan_answers,
    iter_with_plan,
    plan_greedy,
    render_plan,
)
from repro.evaluation import join_plans
from repro.evaluation.relation import Partition
from repro.queries.cq import ConjunctiveQuery
from repro.workloads.generators import yannakakis_scaling_workload


E = Predicate("E", 2)
F = Predicate("F", 2)
a, b, c, d = (Constant(name) for name in "abcd")
x, y, z = Variable("x"), Variable("y"), Variable("z")


def small_database():
    return Database(
        [
            Atom(E, (a, b)),
            Atom(E, (b, c)),
            Atom(E, (b, b)),
            Atom(F, (b, d)),
            Atom(F, (c, d)),
        ]
    )


def ctx(database=None):
    return ExecutionContext(database if database is not None else small_database())


def chain_plan(head, *atoms):
    """A left-deep plan joining ``atoms`` in the order given."""
    steps = [PlanStep(atom, 0, index > 0) for index, atom in enumerate(atoms)]
    return JoinPlan(ConjunctiveQuery(head, list(atoms)), steps)


@pytest.fixture
def stream_contexts(monkeypatch):
    """The execution contexts ``iter_plan_answers`` runs, in call order."""
    contexts = []

    class Recorded(ExecutionContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(self)

    monkeypatch.setattr(join_plans, "ExecutionContext", Recorded)
    return contexts


def stream_root(plan):
    """The compiled chain under a streamed plan's head projection."""
    return plan._stream_top.children[0]


# ----------------------------------------------------------------------
# Operator semantics: materialize(), and the plan route's stream over them
# ----------------------------------------------------------------------
class TestOperatorFaces:
    def test_scan_materializes_the_atom_relation(self):
        op = Scan(Atom(E, (x, y)))
        context = ctx()
        relation = op.materialize(context)
        assert set(relation.rows) == {(a, b), (b, c), (b, b)}
        assert context.run[op].rows == 3
        assert op.schema == (x, y)

    def test_scan_applies_constants_and_repeats(self):
        constant_scan = Scan(Atom(E, (x, c)))
        assert set(constant_scan.materialize(ctx()).rows) == {(b,)}
        repeat_scan = Scan(Atom(E, (x, x)))
        assert set(repeat_scan.materialize(ctx()).rows) == {(b,)}
        assert repeat_scan.schema == (x,)

    def test_project_deduplicates_both_faces(self):
        context = ctx()
        op = Project(Scan(Atom(E, (x, y))), (x,))
        assert set(op.materialize(context).rows) == {(a,), (b,)}
        plan = chain_plan((x,), Atom(E, (x, y)))
        streamed = list(iter_plan_answers(plan, small_database()))
        assert sorted(streamed, key=str) == [(a,), (b,)]

    def test_stream_head_removes_duplicate_rows(self):
        # The join multiplies rows (three left rows reach d), so the head
        # projection must deduplicate across them.
        plan = chain_plan((z,), Atom(E, (x, y)), Atom(F, (y, z)))
        assert list(iter_plan_answers(plan, small_database())) == [(d,)]

    def test_semijoin_keeps_matching_left_rows(self):
        context = ctx()
        op = SemiJoin(Scan(Atom(E, (x, y))), Scan(Atom(F, (y, z))))
        assert set(op.materialize(context).rows) == {(a, b), (b, c), (b, b)}
        narrowed = SemiJoin(Scan(Atom(F, (y, z))), Scan(Atom(E, (x, y))))
        assert set(narrowed.materialize(ctx()).rows) == {(b, d), (c, d)}

    def test_hashjoin_matches_relation_join(self):
        context = ctx()
        op = HashJoin(Scan(Atom(E, (x, y))), Scan(Atom(F, (y, z))))
        expected = oracle.join(
            oracle.scan_atom(Atom(E, (x, y)), context.database),
            oracle.scan_atom(Atom(F, (y, z)), context.database),
        )
        assert op.materialize(context) == expected
        plan = chain_plan((x, y, z), Atom(E, (x, y)), Atom(F, (y, z)))
        assert set(iter_plan_answers(plan, small_database())) == set(expected.rows)

    def test_hashjoin_cross_product_when_no_shared_variables(self):
        context = ctx()
        op = HashJoin(Scan(Atom(E, (x, y))), Scan(Atom(F, (Variable("u"), Variable("v")))))
        assert op not in context.run
        assert len(op.materialize(context)) == 3 * 2
        assert context.run[op].rows == 6
        assert context.run[op].probes == 0  # a cross product probes nothing

    def test_streaming_counts_rows_and_probes(self, stream_contexts):
        plan = chain_plan((x, y, z), Atom(E, (x, y)), Atom(F, (y, z)))
        streamed = list(iter_plan_answers(plan, small_database()))
        (context,) = stream_contexts
        join = stream_root(plan)
        assert context.run[join].rows == len(streamed) == 3
        assert context.run[join].probes == 3  # one probe per left row

    def test_materialized_join_records_one_probe_per_left_row(self):
        op = HashJoin(Scan(Atom(E, (x, y))), Scan(Atom(F, (y, z))))
        context = ctx()
        before = Partition.total_probes
        op.materialize(context)
        assert context.run[op].probes == 3 == Partition.total_probes - before

    def test_runs_of_one_plan_keep_separate_records(self, stream_contexts):
        op = HashJoin(Scan(Atom(E, (x, y))), Scan(Atom(F, (y, z))))
        first, second = ctx(), ctx()
        assert op.materialize(first) == op.materialize(second)
        assert op.materialize_encoded(first) is not op.materialize_encoded(second)
        assert first.run[op].rows == 3 and first.run[op].probes == 3
        # Two streams of one plan each count into their own run only.
        plan = chain_plan((x, y, z), Atom(E, (x, y)), Atom(F, (y, z)))
        list(iter_plan_answers(plan, small_database()))
        list(iter_plan_answers(plan, small_database()))
        join = stream_root(plan)
        assert [context.run[join].rows for context in stream_contexts] == [3, 3]
        assert [context.run[join].probes for context in stream_contexts] == [3, 3]

    def test_materialized_results_are_cached_per_node(self):
        context = ctx()
        op = Scan(Atom(E, (x, y)))
        assert op.materialize_encoded(context) is op.materialize_encoded(context)
        assert op.materialize(context) == op.materialize(context)

    def test_empty_left_input_short_circuits_binary_operators(self):
        context = ctx()
        empty = Scan(Atom(Predicate("Missing", 1), (x,)))
        join = HashJoin(empty, Scan(Atom(E, (x, y))))
        assert join.materialize(context).is_empty()
        assert join.schema == (x, y)
        semi = SemiJoin(Scan(Atom(Predicate("Missing", 1), (x,))), Scan(Atom(E, (x, y))))
        assert semi.materialize(ctx()).is_empty()


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
class TestCostModel:
    def test_scan_estimate_is_the_relation_size(self):
        model = CostModel(Statistics(small_database()))
        assert model.scan_estimate(Atom(E, (x, y))).rows == 3

    def test_constant_selectivity_uses_the_bucket_histogram(self):
        # Column 1 of E partitions into buckets a→1, b→2; the
        # probe-weighted expected bucket size is Σ size²/rows = (1+4)/3 —
        # read from the real value distribution, not the blind 1/10 of the
        # legacy heuristic.
        model = CostModel(Statistics(small_database()))
        estimate = model.scan_estimate(Atom(E, (a, y)))
        assert estimate.rows == pytest.approx(5 / 3)

    def test_join_estimate_divides_by_the_larger_distinct_count(self):
        model = CostModel(Statistics(small_database()))
        left = model.scan_estimate(Atom(E, (x, y)))
        right = model.scan_estimate(Atom(F, (y, z)))
        # d_E(y) = |{b, c, b}| = 2, d_F(y) = 2 → 3·2/2 = 3.
        assert model.join_estimate(left, right).rows == pytest.approx(3.0)

    def test_annotate_fills_every_node_of_a_dag(self):
        scan = Scan(Atom(E, (x, y)))
        plan = HashJoin(SemiJoin(scan, Scan(Atom(F, (y, z)))), scan)
        model = CostModel(Statistics(small_database()))
        model.annotate(plan)
        estimates = model.row_estimates()
        assert set(estimates) == set(plan.walk())
        assert all(value is not None for value in estimates.values())

    def test_repeated_variable_atom_over_an_empty_predicate(self):
        # Regression: scan_estimate used to skip computing the column
        # statistics of empty base relations but still index them for the
        # repeated-variable selectivity — an IndexError reachable from
        # every planner entry point.
        database = small_database()
        missing = Atom(Predicate("Nowhere", 2), (x, x))
        model = CostModel(Statistics(database))
        assert model.scan_estimate(missing).rows == 0
        query = ConjunctiveQuery((x,), [missing, Atom(E, (x, y))])
        assert list(evaluate_iter(query, database, engine="plan")) == []

    def test_scan_estimates_are_memoised_per_atom(self):
        model = CostModel(Statistics(small_database()))
        atom = Atom(E, (a, y))
        assert model.scan_estimate(atom) is model.scan_estimate(atom)

    def test_statistics_reuse_an_injected_scan_cache(self):
        database = small_database()
        cache = ScanCache(database)
        statistics = Statistics(database, cache)
        relation = statistics.base_relation(E)
        assert statistics.base_relation(E) is relation is cache.base_relation(E)
        assert cache.built == 1


# ----------------------------------------------------------------------
# EXPLAIN rendering
# ----------------------------------------------------------------------
class TestExplain:
    def test_render_marks_estimates_observations_and_sharing(self):
        context = ctx()
        scan = Scan(Atom(E, (x, y)))
        plan = HashJoin(SemiJoin(scan, Scan(Atom(F, (y, z)))), scan)
        model = CostModel(Statistics(context.database))
        model.annotate(plan)
        assert "est=?" in render_plan(plan) and "obs=?" in render_plan(plan)
        plan.materialize(context)
        rendered = render_plan(plan, run=context.run, estimates=model.row_estimates())
        assert "est=?" not in rendered and "obs=?" not in rendered
        assert "probes=" in rendered  # the hash join's run record
        assert "(shared, shown above)" in rendered  # the scan appears twice

    def test_explain_reports_every_route(self):
        database = small_database()
        acyclic = ConjunctiveQuery((x, z), [Atom(E, (x, y)), Atom(F, (y, z))])
        report = explain(acyclic, database)
        assert "route: yannakakis" in report
        assert "Scan[E(x, y)]" in report

        triangle = ConjunctiveQuery(
            (x,), [Atom(E, (x, y)), Atom(E, (y, z)), Atom(E, (z, x))]
        )
        report = explain(triangle, database)
        assert "route: decomposition" in report
        assert "decomposition: width" in report

        report = explain(triangle, database, engine="plan")
        assert "route: plan" in report
        assert "HashJoin" in report

    def test_explain_observed_matches_true_answer_count(self):
        query, database = yannakakis_scaling_workload(150, seed=1)
        report = explain(query, database)
        answers = len(evaluate_generic(query, database))
        # The plan root is the first operator line.
        root = next(line for line in report.splitlines() if "est=" in line)
        assert f"obs={answers}" in root

    def test_explain_estimates_only_without_execution(self):
        query, database = yannakakis_scaling_workload(150, seed=1)
        report = explain(query, database, execute=False)
        assert "obs=?" in report


# ----------------------------------------------------------------------
# Engine ↔ IR differentials (all three routes)
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_yannakakis_plans_agree_with_ground_truth(seed):
    query, database = randomized_acyclic_workload(seed)
    try:
        evaluator = YannakakisEvaluator(query)
    except AcyclicityRequired:
        return  # constant injection made the variable hypergraph cyclic
    expected = evaluate_generic(query, database)
    # Materialising face: reducers + hash joins + projections.
    answer_plan = evaluator.compile_answer_plan()
    relation = answer_plan.materialize(ExecutionContext(database))
    assert relation.answer_tuples(query.head) == expected
    # Streaming face: reducers + cursor enumeration, via the public API.
    streamed = list(evaluator.iter_answers(database))
    assert len(streamed) == len(set(streamed))
    assert set(streamed) == expected
    # limit= yields exactly min(k, |answers|) distinct answers.
    k = seed % 4
    limited = list(evaluate_iter(query, database, limit=k))
    assert len(limited) == min(k, len(expected))
    assert set(limited) <= expected


@pytest.mark.parametrize("evaluator_class", [YannakakisEvaluator, DecompositionEvaluator])
def test_evaluators_compile_each_plan_variant_once(monkeypatch, evaluator_class):
    """Every entry point reuses the evaluator's compiled plans: one answer
    plan and one streaming plan per (reduce, boolean), however often and
    against however many databases the evaluator runs."""
    calls = []
    for name in ("_compile_answer_plan", "_compile_stream_plan"):
        original = getattr(YannakakisEvaluator, name)

        def counted(self, *args, _original=original, _name=name):
            calls.append((_name,) + args)
            return _original(self, *args)

        monkeypatch.setattr(YannakakisEvaluator, name, counted)
    w = Variable("w")
    query = ConjunctiveQuery(
        (w, z), [Atom(E, (w, x)), Atom(E, (x, y)), Atom(F, (y, z))]
    )
    evaluator = evaluator_class(query)
    for database in (small_database(), Database()):
        truth = evaluate_generic(query, database)
        assert oracle.evaluate(evaluator, database) == truth
        assert evaluator.evaluate(database) == truth
        relation = evaluator.answer_relation(database)
        assert relation.answer_tuples(query.head) == truth
        assert set(evaluator.iter_answers(database)) == truth
        streamed = evaluator.iter_answers(database, reduce=False)
        assert set(streamed) == truth
        assert evaluator.boolean(database) == bool(truth)
        assert "obs=" in evaluator.explain(database)
    assert sorted(calls) == [
        ("_compile_answer_plan",),
        ("_compile_stream_plan", False, False),
        ("_compile_stream_plan", False, True),
        ("_compile_stream_plan", True, False),
    ]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_compiled_plan_chains_agree_with_ground_truth(seed):
    query, database = randomized_cyclic_workload(seed)
    expected = evaluate_generic(query, database)
    plan = plan_greedy(query, database)
    ops = compile_plan(plan)
    assert len(ops) == len(plan)
    # Materialising face.
    assert evaluate_with_plan(query, database) == expected
    # Streaming face (pipelined chain), with limit semantics.
    streamed = list(iter_with_plan(query, database))
    assert len(streamed) == len(set(streamed))
    assert set(streamed) == expected
    k = seed % 4
    limited = list(iter_with_plan(query, database, limit=k))
    assert len(limited) == min(k, len(expected))
    assert set(limited) <= expected


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_explain_execution_agrees_with_evaluate_iter(seed):
    """explain() runs the same plans the engines run: its root observation
    equals the streamed answer count, on whichever route auto picks."""
    query, database = randomized_acyclic_workload(seed)
    streamed = set(evaluate_iter(query, database))
    report = explain(query, database)
    root_line = next(line for line in report.splitlines() if "est=" in line)
    distinct_root = len(
        {tuple(answer[i] for i in _first_occurrence_positions(query)) for answer in streamed}
    )
    assert f"obs={distinct_root}," in root_line or f"obs={distinct_root})" in root_line


def _first_occurrence_positions(query):
    seen = []
    for variable in query.head:
        if variable not in seen:
            seen.append(variable)
    return [query.head.index(v) for v in seen]


def test_reformulation_route_explains_and_streams_identically():
    from repro.workloads.paper_examples import example1_query, example1_tgd
    from repro.workloads import music_store_database

    query, tgd = example1_query(), example1_tgd()
    database = music_store_database(seed=11, customers=10, records=12, styles=4)
    expected = set(evaluate_iter(query, database, tgds=[tgd], engine="reformulation"))
    assert expected == evaluate_generic(query, database)
    report = explain(query, database, tgds=[tgd], engine="reformulation")
    assert "route: reformulated" in report
    assert "reformulation:" in report
    root = next(line for line in report.splitlines() if "est=" in line)
    assert f"obs={len(expected)}," in root or f"obs={len(expected)})" in root


# ----------------------------------------------------------------------
# Bounded work: the plan route's streaming face pipelines its prefix
# ----------------------------------------------------------------------
def _probes(run):
    before = Partition.total_probes
    result = run()
    return result, Partition.total_probes - before


def test_iter_with_plan_no_longer_materialises_its_join_prefix(monkeypatch):
    """A plan route that executed every prefix step as a materialised hash
    join would pay probes before the first answer that grow with the
    prefix's intermediate sizes.  The pipelined chain must reach the first
    answers after O(chain · limit) bucket probes instead — checked at one
    row per batch, where the batch bound is the per-row bound (the
    default batch size has its own bound in
    tests/test_columnar_backend.py)."""
    monkeypatch.setattr(join_plans, "BATCH_ROWS", 1)
    query, database = yannakakis_scaling_workload(600, seed=2)
    plan = plan_greedy(query, database)
    _, probes_limited = _probes(
        lambda: list(iter_with_plan(query, database, limit=3))
    )
    _, probes_full = _probes(lambda: list(iter_with_plan(query, database)))
    # The limited run touches a handful of buckets (≈ limit · chain depth),
    # nowhere near the full pipeline, and far below the prefix sizes the
    # old implementation had to pay before the first answer.
    assert probes_limited <= 4 * len(plan)
    assert probes_limited * 10 <= probes_full


def test_iter_with_plan_first_answer_is_cheap_across_sizes(monkeypatch):
    """At one row per batch, probes before the first answer stay flat as
    |D| quadruples (a materialised prefix would grow linearly)."""
    monkeypatch.setattr(join_plans, "BATCH_ROWS", 1)
    first_probes = []
    for size in (300, 1200):
        query, database = yannakakis_scaling_workload(size, seed=1)
        stream = iter_with_plan(query, database)
        _, probes = _probes(lambda: next(stream))
        first_probes.append(probes)
    assert first_probes[0] == first_probes[1]


# ----------------------------------------------------------------------
# Bushy plans: the stream materialises the spine's join build sides
# ----------------------------------------------------------------------
R, S, T, U = (Predicate(name, 2) for name in "RSTU")
w, v = Variable("w"), Variable("v")


def bushy_plan(head):
    """``(R ⋈ S) ⋈ (T ⋈ U)`` over the path ``x-y-z-w-v``, hand-built: the
    planners rarely choose a bushy shape on small workloads."""
    r, s, t, u = Atom(R, (x, y)), Atom(S, (y, z)), Atom(T, (z, w)), Atom(U, (w, v))
    tree = PlanTree(
        left=PlanTree(left=PlanTree(atom=r), right=PlanTree(atom=s)),
        right=PlanTree(left=PlanTree(atom=t), right=PlanTree(atom=u)),
    )
    # Step order follows compile_plan: the leftmost scan, then each join in
    # post-order, named by the leftmost leaf of its right subtree.
    steps = [PlanStep(atom, 0, index > 0) for index, atom in enumerate((r, s, u, t))]
    return JoinPlan(ConjunctiveQuery(head, [r, s, t, u]), steps, tree)


def bushy_database(seed):
    import random

    rng = random.Random(seed)
    domain = [Constant(f"c{i}") for i in range(6)]
    return Database(
        Atom(predicate, (rng.choice(domain), rng.choice(domain)))
        for predicate in (R, S, T, U)
        for _ in range(14)
    )


@pytest.mark.parametrize("batch_rows", [1, 3, 1024])
@pytest.mark.parametrize("seed", range(6))
def test_bushy_plan_streams_its_answers(monkeypatch, seed, batch_rows):
    monkeypatch.setattr(join_plans, "BATCH_ROWS", batch_rows)
    database = bushy_database(seed)
    for head in ((x, v), (y, w, y), (z,)):
        plan = bushy_plan(head)
        streamed = list(iter_plan_answers(plan, database))
        expected = evaluate_generic(plan.query, database)
        assert len(streamed) == len(set(streamed))
        assert set(streamed) == execute_plan(plan, database).answers == expected
        for k in (1, 2, 5):
            limited = list(iter_plan_answers(plan, database, limit=k))
            assert len(limited) == min(k, len(expected))
            assert set(limited) <= expected


def test_bushy_plan_compiles_a_join_build_side():
    plan = bushy_plan((x, v))
    list(iter_plan_answers(plan, bushy_database(0)))
    root = stream_root(plan)
    assert isinstance(root, HashJoin)
    assert isinstance(root.children[0], HashJoin)
    assert isinstance(root.children[1], HashJoin)  # the T ⋈ U build side


def test_empty_build_side_ends_the_stream_before_the_leftmost_scan(stream_contexts):
    database = bushy_database(1)
    missing = Predicate("Missing", 2)
    plan = chain_plan((x, w), Atom(R, (x, y)), Atom(missing, (y, z)), Atom(T, (z, w)))
    before = Partition.total_probes
    assert list(iter_plan_answers(plan, database)) == []
    assert Partition.total_probes - before == 0
    (context,) = stream_contexts
    leftmost = stream_root(plan).children[0].children[0]
    assert isinstance(leftmost, Scan) and leftmost.atom.predicate == R
    assert leftmost not in context.run
