"""Streaming answer enumeration: differential equality and bounded work.

The streaming entry points (:func:`repro.evaluation.evaluate_iter`,
:meth:`YannakakisEvaluator.iter_answers`, :func:`iter_with_plan`, and the
``iter_answers`` face of every evaluator :func:`resolve_route` returns)
promise two things:

1. **Same answers** — for every route (Yannakakis / reformulation-under-tgds
   / plan) the set of streamed tuples equals the materialising evaluation,
   no tuple is yielded twice, and ``limit=k`` yields exactly
   ``min(k, |q(D)|)`` distinct answers.  Checked here with hypothesis over
   randomized workloads including constants and repeated head variables.

   Each hypothesis differential also has a *service* configuration: the
   same workloads and oracle through a standing
   :class:`repro.service.QueryService` (``stream`` and ``submit``), cold
   and then warm from its plan cache.

2. **Bounded work** — the first answer is produced without touching all
   buckets, and ``boolean()`` on a satisfiable query stops after one
   answer.  Checked with the deterministic bucket-probe counters of
   :class:`repro.evaluation.relation.Partition` (``.get`` probes), not with
   wall clocks.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.workloads import randomized_acyclic_workload, randomized_cyclic_workload
from repro.datamodel import Atom, Constant, Database, Predicate, Variable
from repro.evaluation import (
    AcyclicityRequired,
    NotSemanticallyAcyclic,
    ScanCache,
    YannakakisEvaluator,
    evaluate_batch,
    evaluate_generic,
    evaluate_iter,
    evaluate_via_reformulation,
    evaluate_with_plan,
    iter_with_plan,
    resolve_route,
)
from repro.evaluation.relation import Partition
from repro.core import decide_semantic_acyclicity_tgds
from repro.queries.cq import ConjunctiveQuery
from repro.service import QueryService
from repro.workloads.generators import (
    shared_predicate_batch_workload,
    wide_output_workload,
)
from repro.workloads.paper_examples import (
    example1_query,
    example1_tgd,
    guarded_triangle_example,
)
from repro.workloads import music_store_database


# ----------------------------------------------------------------------
# Differential: Yannakakis route
# ----------------------------------------------------------------------
def _assert_streams_like_sets(query, database, seed: int) -> None:
    try:
        evaluator = YannakakisEvaluator(query)
    except AcyclicityRequired:
        # Constant injection can, in rare corners, make the variable
        # hypergraph cyclic; the Yannakakis differential only covers the
        # acyclic domain (the plan route is tested separately).
        return
    expected = evaluate_generic(query, database)
    streamed = list(evaluator.iter_answers(database))
    assert len(streamed) == len(set(streamed)), "a tuple was yielded twice"
    assert set(streamed) == expected
    # evaluate_iter routes acyclic queries to the same streaming phase 4.
    assert set(evaluate_iter(query, database)) == expected
    # Boolean short-circuit is consistent with the answer set.
    assert evaluator.boolean(database) == bool(expected)
    # limit= yields exactly min(k, |answers|) distinct answers.
    k = random.Random(seed).randint(0, 4)
    limited = list(evaluator.iter_answers(database, limit=k))
    assert len(limited) == min(k, len(expected))
    assert len(set(limited)) == len(limited)
    assert set(limited) <= expected


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_streaming_agrees_on_randomized_acyclic_workloads(seed):
    query, database = randomized_acyclic_workload(seed)
    _assert_streams_like_sets(query, database, seed)


def _assert_service_agrees(query, database, k: int, engine: str = "auto") -> None:
    """The service configuration of a differential: ``stream`` (whole and
    with ``limit=k``) and ``submit`` against the generic oracle, on a cold
    service and then warm from the one plan entry it cached."""
    expected = evaluate_generic(query, database)
    service = QueryService(database)
    for _ in range(2):
        streamed = list(service.stream(query, engine=engine))
        assert len(streamed) == len(set(streamed)), "a tuple was yielded twice"
        assert set(streamed) == expected
        assert service.submit(query, engine=engine) == expected
        limited = list(service.stream(query, engine=engine, limit=k))
        assert len(limited) == len(set(limited)) == min(k, len(expected))
        assert set(limited) <= expected
    assert service.plan_misses == 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_service_streams_agree_on_randomized_acyclic_workloads(seed):
    query, database = randomized_acyclic_workload(seed)
    _assert_service_agrees(query, database, random.Random(seed).randint(0, 4))


@pytest.mark.parametrize("seed", range(25))
def test_streaming_agrees_on_seeded_grid(seed):
    """A fixed, deterministic slice of the same space (fast CI signal)."""
    query, database = randomized_acyclic_workload(seed * 4507)
    _assert_streams_like_sets(query, database, seed)


# ----------------------------------------------------------------------
# Differential: plan route (cyclic queries)
# ----------------------------------------------------------------------
def _assert_plan_route_streams(query, database, seed: int) -> None:
    expected = evaluate_with_plan(query, database)
    assert expected == evaluate_generic(query, database)
    streamed = list(evaluate_iter(query, database, engine="plan"))
    assert len(streamed) == len(set(streamed))
    assert set(streamed) == expected
    # Cyclic queries fall back to the plan route under engine="auto" too.
    assert set(evaluate_iter(query, database)) == expected
    k = random.Random(seed).randint(0, 4)
    limited = list(evaluate_iter(query, database, engine="plan", limit=k))
    assert len(limited) == min(k, len(expected))
    assert set(limited) <= expected


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_plan_streaming_agrees_on_randomized_cyclic_workloads(seed):
    query, database = randomized_cyclic_workload(seed)
    _assert_plan_route_streams(query, database, seed)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_service_plan_streaming_agrees_on_randomized_cyclic_workloads(seed):
    query, database = randomized_cyclic_workload(seed)
    k = random.Random(seed).randint(0, 4)
    for engine in ("plan", "auto"):
        _assert_service_agrees(query, database, k, engine)


@pytest.mark.parametrize("seed", range(15))
def test_plan_streaming_agrees_on_seeded_grid(seed):
    query, database = randomized_cyclic_workload(seed * 7211)
    _assert_plan_route_streams(query, database, seed)


# ----------------------------------------------------------------------
# Differential: reformulation route (Proposition 24)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(4))
def test_reformulation_streaming_on_satisfying_databases(seed):
    """engine="reformulation" streams q'(D) = q(D) on databases ⊨ Σ."""
    from repro.chase import chase
    from repro.workloads.generators import random_database

    query, tgds = guarded_triangle_example()
    assert not query.is_acyclic()
    base = random_database(
        seed=seed, schema=query.schema(), facts_per_predicate=8, domain_size=5
    )
    result = chase(base, tgds, max_steps=10_000)
    assert result.terminated
    database = Database()
    database.add_all(result.instance)

    expected = evaluate_generic(query, database)
    streamed = list(evaluate_iter(query, database, tgds=tgds, engine="reformulation"))
    assert len(streamed) == len(set(streamed))
    assert set(streamed) == expected
    # auto routes through the reformulation as well (the query is cyclic).
    assert set(evaluate_iter(query, database, tgds=tgds)) == expected
    for k in (0, 1, 3):
        limited = list(
            evaluate_iter(query, database, tgds=tgds, engine="reformulation", limit=k)
        )
        assert len(limited) == min(k, len(expected))
        assert set(limited) <= expected


def test_semac_evaluation_iter_answers_matches_evaluate():
    query = example1_query()
    tgd = example1_tgd()
    database = music_store_database(seed=11, customers=10, records=12, styles=4)
    answers = evaluate_via_reformulation(query, [tgd], database)

    reformulation = decide_semantic_acyclicity_tgds(query, [tgd]).witness
    evaluation = YannakakisEvaluator(reformulation)
    streamed = list(evaluation.iter_answers(database))
    assert len(streamed) == len(set(streamed))
    assert set(streamed) == answers
    assert len(list(evaluation.iter_answers(database, limit=2))) == min(2, len(answers))


# ----------------------------------------------------------------------
# Routing and API corners
# ----------------------------------------------------------------------
def test_unknown_streaming_engine_is_rejected():
    with pytest.raises(ValueError):
        evaluate_iter(ConjunctiveQuery((), []), Database(), engine="warp")


def test_yannakakis_engine_refuses_cyclic_queries():
    query, database = randomized_cyclic_workload(0)
    with pytest.raises(AcyclicityRequired):
        evaluate_iter(query, database, engine="yannakakis")


def test_reformulation_engine_requires_a_reformulation():
    query = example1_query()  # cyclic; no tgds supplied
    with pytest.raises(NotSemanticallyAcyclic):
        evaluate_iter(query, music_store_database(seed=1), engine="reformulation")


def test_nullary_query_streams_one_empty_answer():
    empty_body = ConjunctiveQuery((), [], name="nullary")
    assert list(evaluate_iter(empty_body, Database(), engine="plan")) == [()]
    assert list(iter_with_plan(empty_body, Database())) == [()]


@pytest.mark.parametrize("with_tgd", [False, True], ids=["no-tgds", "tgd"])
@pytest.mark.parametrize(
    "engine", ["auto", "yannakakis", "reformulation", "decomposition", "plan"]
)
def test_nullary_query_takes_the_plan_route_under_every_engine(engine, with_tgd):
    """A query without atoms has one empty answer on every database; no
    forced engine needs a join tree or a reformulation to give it."""
    empty_body = ConjunctiveQuery((), [], name="nullary")
    tgds = [example1_tgd()] if with_tgd else []
    route, evaluator = resolve_route(empty_body, tgds=tgds, engine=engine)
    assert route == "plan"
    assert evaluator.evaluate(Database()) == {()}
    assert list(evaluate_iter(empty_body, Database(), tgds=tgds, engine=engine)) == [()]


def test_streaming_empty_results():
    E = Predicate("E", 2)
    x, y = Variable("x"), Variable("y")
    query = ConjunctiveQuery((x,), [Atom(E, (x, y))])
    assert list(evaluate_iter(query, Database())) == []
    assert list(evaluate_iter(query, Database(), engine="plan")) == []


def test_streaming_preserves_repeated_head_variables():
    E = Predicate("E", 2)
    database = Database([Atom(E, (Constant("a"), Constant("b")))])
    x, y = Variable("x"), Variable("y")
    query = ConjunctiveQuery((x, x, y), [Atom(E, (x, y))])
    expected = {(Constant("a"), Constant("a"), Constant("b"))}
    assert set(evaluate_iter(query, database)) == expected
    assert set(evaluate_iter(query, database, engine="plan")) == expected


def test_limit_zero_and_negative_yield_nothing():
    query, database = wide_output_workload(2, width=4)
    assert list(evaluate_iter(query, database, limit=0)) == []
    assert list(evaluate_iter(query, database, limit=-3)) == []


# ----------------------------------------------------------------------
# Batch streaming: one route per query, streams over one shared cache
# ----------------------------------------------------------------------
def test_batch_evaluate_iter_matches_evaluate():
    queries, database = shared_predicate_batch_workload(10, size=200, seed=3)
    routes = [resolve_route(query)[1] for query in queries]
    expected = evaluate_batch(queries, database)
    cache = ScanCache(database)
    results = [list(evaluator.iter_answers(database, scans=cache)) for evaluator in routes]
    for streamed, answers in zip(results, expected):
        assert len(streamed) == len(set(streamed))
        assert set(streamed) == answers
    # All generators drew their phase-1 scans from the one shared cache
    # (at most one derived + one base build per distinct signature, vs one
    # serve per query atom).
    assert cache.served >= len(queries)
    assert cache.built <= cache.served + 6


def test_batch_evaluate_iter_mixed_routes_and_limit():
    """One batch exercising all three routes through the streaming face."""
    cyclic_query, tgds = guarded_triangle_example()
    acyclic_probe = ConjunctiveQuery(
        (Variable("px"),),
        [Atom(cyclic_query.body[0].predicate, (Variable("px"), Variable("py")))],
        name="probe",
    )
    # A triangle over a predicate the tgds never mention: no reformulation
    # exists, so it takes the decomposition route.
    T = Predicate("StreamT", 2)
    triangle = ConjunctiveQuery(
        (Variable("a"),),
        [
            Atom(T, (Variable("a"), Variable("b"))),
            Atom(T, (Variable("b"), Variable("c"))),
            Atom(T, (Variable("c"), Variable("a"))),
        ],
        name="triangle",
    )
    from repro.chase import chase
    from repro.workloads.generators import random_database

    base = random_database(
        seed=5, schema=cyclic_query.schema(), facts_per_predicate=8, domain_size=5
    )
    result = chase(base, tgds, max_steps=10_000)
    assert result.terminated
    database = Database()
    database.add_all(result.instance)
    rng = random.Random(5)
    nodes = [Constant(f"t{i}") for i in range(5)]
    for _ in range(18):
        database.add(Atom(T, (rng.choice(nodes), rng.choice(nodes))))

    queries = [cyclic_query, acyclic_probe, triangle]
    routes = [resolve_route(query, tgds=tgds) for query in queries]
    assert [kind for kind, _ in routes] == ["reformulated", "yannakakis", "decomposition"]
    expected = evaluate_batch(queries, database, tgds=tgds)
    shared = ScanCache(database)
    results = [list(evaluator.iter_answers(database, scans=shared)) for _, evaluator in routes]
    assert [set(streamed) for streamed in results] == expected

    limited = [
        list(evaluator.iter_answers(database, scans=shared, limit=2))
        for _, evaluator in routes
    ]
    for streamed, answers in zip(limited, expected):
        assert len(streamed) == min(2, len(answers))
        assert set(streamed) <= answers


def test_batch_evaluate_iter_generators_interleave():
    queries, database = shared_predicate_batch_workload(6, size=150, seed=7)
    expected = evaluate_batch(queries, database)
    shared = ScanCache(database)
    streams = [
        resolve_route(query)[1].iter_answers(database, scans=shared) for query in queries
    ]
    collected = [[] for _ in streams]
    # Round-robin consumption: one answer from each live generator per turn.
    live = list(range(len(streams)))
    while live:
        for index in list(live):
            try:
                collected[index].append(next(streams[index]))
            except StopIteration:
                live.remove(index)
    for streamed, answers in zip(collected, expected):
        assert set(streamed) == answers
        assert len(streamed) == len(answers)


# ----------------------------------------------------------------------
# Bounded work: counter-instrumented bucket probes
# ----------------------------------------------------------------------
def _probes(run):
    before = Partition.total_probes
    result = run()
    return result, Partition.total_probes - before


def test_first_answer_is_produced_without_touching_all_buckets():
    """The probes before the first streamed answer are O(join-tree) —
    identical across widths — while the materialising phase 4 probes grow
    with the data."""
    first_probes = []
    for width in (20, 80):
        query, database = wide_output_workload(3, width=width, seed=1)
        evaluator = YannakakisEvaluator(query)
        answer, probes = _probes(lambda: next(evaluator.iter_answers(database)))
        assert answer in evaluator.evaluate(database)
        assert probes <= 6, f"first answer touched {probes} buckets"
        first_probes.append(probes)
        _, materialise_probes = _probes(lambda: evaluator.evaluate(database))
        assert materialise_probes >= width
    assert first_probes[0] == first_probes[1], "first-answer work grew with width"


def test_limited_enumeration_probes_scale_with_limit_not_output():
    """On the layered chain the probe keys differ per answer (no memo
    sharing), so the probe count is a faithful work meter: a limited run
    must probe far fewer buckets than a full enumeration."""
    from repro.workloads.generators import yannakakis_scaling_workload

    query, database = yannakakis_scaling_workload(600, seed=2)
    evaluator = YannakakisEvaluator(query)
    answers = evaluator.evaluate(database)
    assert len(answers) > 40
    _, probes_5 = _probes(lambda: list(evaluator.iter_answers(database, limit=5)))
    _, probes_all = _probes(lambda: list(evaluator.iter_answers(database)))
    assert probes_5 * 4 <= probes_all


def test_boolean_stops_after_one_answer():
    """boolean() runs the upward semi-join pass alone and tests the reduced
    root for a row.  Semi-join membership is not probe-counted, so its probe
    meter reads 0 at every width, far below one full enumeration."""
    boolean_probes = []
    for width in (20, 80):
        query, database = wide_output_workload(3, width=width, decoys=0, seed=0)
        evaluator = YannakakisEvaluator(query)
        satisfied, probes = _probes(lambda: evaluator.boolean(database))
        assert satisfied is True
        assert probes <= 6, f"boolean touched {probes} buckets"
        boolean_probes.append(probes)
        # The materialising path, by contrast, probes per joined row.
        _, materialise_probes = _probes(lambda: evaluator.evaluate(database))
        assert probes * 4 <= materialise_probes
    assert boolean_probes[0] == boolean_probes[1], "boolean work grew with width"


def test_plan_route_first_answer_costs_one_probe_per_spine_join():
    """The plan route's batches start at one row, so the first answer of a
    chain over raw scans probes each spine join once, at any width."""
    first_probes = []
    for width in (20, 80):
        query, database = wide_output_workload(3, width=width, seed=1)
        answers, probes = _probes(lambda: list(iter_with_plan(query, database, limit=1)))
        assert len(answers) == 1 and set(answers) <= evaluate_generic(query, database)
        assert probes <= len(query.body) - 1, f"first answer touched {probes} buckets"
        first_probes.append(probes)
    assert first_probes[0] == first_probes[1], "first-answer work grew with width"


def _upward_pass_kinds(plan):
    """The operator types of ``plan`` outside decomposition bags."""
    from repro.evaluation import BagNode

    kinds, stack = set(), [plan]
    while stack:
        node = stack.pop()
        kinds.add(type(node))
        if not isinstance(node, BagNode):
            stack.extend(node.children)
    return kinds


def test_boolean_plan_is_the_upward_pass():
    """boolean() compiles the upward-reduced root alone: no top-down pass,
    no join and no projection, on the Yannakakis and decomposition routes."""
    from repro.evaluation import BagNode, DecompositionEvaluator, Scan, SemiJoin
    from repro.parser import parse_query

    star, database = wide_output_workload(3, width=6, seed=0)
    evaluator = YannakakisEvaluator(star)
    plan = evaluator.compile_boolean_plan()
    assert evaluator.compile_boolean_plan() is plan
    assert _upward_pass_kinds(plan) == {Scan, SemiJoin}
    assert sum(isinstance(op, SemiJoin) for op in plan.walk()) == len(star.body) - 1
    assert evaluator.boolean(database) is True

    pentagon = parse_query(
        "q(a, c) :- E(a, b), E(b, c), E(c, d), E(d, e), E(e, a), F(c, g)"
    )
    evaluator = DecompositionEvaluator(pentagon)
    plan = evaluator.compile_boolean_plan()
    assert _upward_pass_kinds(plan) <= {SemiJoin, BagNode}
    assert isinstance(plan, BagNode) and plan.node_id == evaluator.join_tree.root


def test_spanning_head_stream_joins_only_the_nodes_holding_the_head():
    """A head over two rays of a three-ray star streams one join of the two
    reduced rays; the third ray only reduces them."""
    from repro.evaluation import HashJoin, Project

    star, database = wide_output_workload(3, width=5, seed=0)
    query = ConjunctiveQuery(star.head[:2], star.body, name="two_rays")
    evaluator = YannakakisEvaluator(query)
    plan = evaluator.compile_stream_plan()
    assert isinstance(plan, Project) and plan.schema == query.head
    assert sum(isinstance(op, HashJoin) for op in plan.walk()) == 1
    streamed = list(evaluator.iter_answers(database))
    assert len(streamed) == len(set(streamed)) == 25
    assert set(streamed) == evaluator.evaluate(database) == evaluate_generic(query, database)


def test_boolean_is_still_correct_on_unsatisfiable_queries():
    E = Predicate("E", 2)
    database = Database(
        [Atom(E, (Constant("a"), Constant("b"))), Atom(E, (Constant("b"), Constant("c")))]
    )
    x = Variable("x")
    loop = ConjunctiveQuery((), [Atom(E, (x, x))], name="loop")
    assert YannakakisEvaluator(loop).boolean(database) is False
    y, z = Variable("y"), Variable("z")
    path3 = ConjunctiveQuery(
        (), [Atom(E, (x, y)), Atom(E, (y, z)), Atom(E, (z, Variable("w")))]
    )
    assert YannakakisEvaluator(path3).boolean(database) is False


# ----------------------------------------------------------------------
# Head-rooted plans: the upward pass alone answers a head inside one node
# ----------------------------------------------------------------------
_HEAD_SHAPES = ("non-root node", "one node", "across nodes")


@st.composite
def head_shaped_workloads(draw):
    """A query whose head lies where ``shape`` says, plus a small database.

    A random tree of binary atoms (a new atom shares one variable with an
    earlier one, or, when ``disconnected``, sometimes none, which starts
    another component), constants in some positions, and a head drawn with
    repetition.  ``cyclic`` adds a constant-free triangle, so the
    decomposition route runs; an empty relation comes from a predicate
    with no facts.
    """
    shape = draw(st.sampled_from(_HEAD_SHAPES))
    cyclic, disconnected = draw(st.booleans()), draw(st.booleans())
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    predicates = [Predicate(name, 2) for name in ("E", "F", "G")]
    domain = [Constant(f"c{i}") for i in range(rng.randint(2, 5))]
    names = iter(Variable(f"v{i}") for i in range(100))
    body = [Atom(rng.choice(predicates), (next(names), next(names)))]
    for _ in range(rng.randint(1, 4)):
        shared = rng.choice(sorted(rng.choice(body).variables(), key=str))
        terms = [shared, next(names)]
        if disconnected and rng.random() < 0.4:
            terms[0] = next(names)
        rng.shuffle(terms)
        body.append(Atom(rng.choice(predicates), tuple(terms)))
    for index, atom in enumerate(body):
        if rng.random() < 0.15:
            terms = list(atom.terms)
            terms[rng.randrange(2)] = rng.choice(domain)
            body[index] = Atom(atom.predicate, tuple(terms))
    if cyclic:
        a, b, c = next(names), next(names), next(names)
        hook = rng.choice(sorted({v for atom in body for v in atom.variables()}, key=str))
        body += [Atom(predicates[0], (a, b)), Atom(predicates[0], (b, c))]
        body += [Atom(predicates[0], (c, a)), Atom(predicates[1], (a, hook))]
    if shape == "across nodes":
        pool = sorted({v for atom in body for v in atom.variables()}, key=str)
        size = rng.randint(2, 3)
    else:
        atoms = body[1:] if shape == "non-root node" else body
        pool = sorted(rng.choice(atoms).variables(), key=str)
        size = rng.randint(0, 3)
    head = tuple(rng.choice(pool) for _ in range(size)) if pool else ()
    empty = rng.choice(predicates) if rng.random() < 0.2 else None
    facts = [
        Atom(predicate, (rng.choice(domain), rng.choice(domain)))
        for predicate in predicates
        if predicate != empty
        for _ in range(rng.randint(1, 12))
    ]
    return shape, ConjunctiveQuery(head, body, name="shaped"), Database(facts)


@settings(max_examples=120, deadline=None)
@given(workload=head_shaped_workloads(), k=st.integers(min_value=0, max_value=4))
def test_head_rooted_plans_agree_with_the_oracles(workload, k):
    from helpers import tuple_engine as oracle
    from repro.evaluation import DecompositionEvaluator

    shape, query, database = workload
    try:
        evaluator = YannakakisEvaluator(query)
    except AcyclicityRequired:
        evaluator = DecompositionEvaluator(query)
    head = set(query.head)
    rooted = head <= evaluator._node_variables[evaluator.join_tree.root]
    # The root holds the head exactly when some node does.
    assert rooted == any(head <= v for v in evaluator._node_variables.values())
    assert (evaluator.compile_stream_plan() is evaluator.compile_answer_plan()) == rooted
    expected = evaluate_generic(query, database)
    assert evaluator.evaluate(database) == expected
    assert oracle.evaluate(evaluator, database) == expected
    streamed = list(evaluator.iter_answers(database))
    assert len(streamed) == len(set(streamed)) and set(streamed) == expected
    assert set(oracle.iter_answers(evaluator, database)) == expected
    limited = list(evaluator.iter_answers(database, limit=k))
    assert len(limited) == len(set(limited)) == min(k, len(expected))
    assert set(limited) <= expected
    assert evaluator.boolean(database) == oracle.boolean(evaluator, database) == bool(expected)


@settings(max_examples=60, deadline=None)
@given(workload=head_shaped_workloads(), k=st.integers(min_value=0, max_value=4))
def test_head_shaped_queries_agree_through_the_service(workload, k):
    _, query, database = workload
    _assert_service_agrees(query, database, k)


def test_head_in_a_non_root_node_reroots_the_join_tree():
    from repro.hypergraph import build_join_tree

    E, F = Predicate("E", 2), Predicate("F", 2)
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    body = [Atom(E, (x, y)), Atom(F, (y, z))]
    gyo_root = build_join_tree(body).root
    head = tuple(sorted(body[1 - gyo_root].variables(), key=str))
    evaluator = YannakakisEvaluator(ConjunctiveQuery(head, body))
    assert evaluator.join_tree.root == 1 - gyo_root
    database = Database(
        [Atom(E, (Constant("a"), Constant("b"))), Atom(F, (Constant("b"), Constant("c")))]
        + [Atom(F, (Constant("d"), Constant("e")))]
    )
    expected = evaluate_generic(evaluator.query, database)
    assert set(evaluator.iter_answers(database)) == evaluator.evaluate(database) == expected


def test_point_query_plan_is_the_upward_pass_alone():
    """A 2-hop point query: one upward semi-join under the head projection,
    no top-down pass and no assembly join, for both faces."""
    from repro.evaluation import HashJoin, Project, Scan, SemiJoin
    from repro.parser import parse_query

    evaluator = YannakakisEvaluator(parse_query("q(y) :- E('a', x), F(x, y)"))
    plan = evaluator.compile_answer_plan()
    assert evaluator.compile_stream_plan() is plan
    kinds = [type(op) for op in plan.walk()]
    assert HashJoin not in kinds
    assert kinds.count(SemiJoin) == 1 and kinds.count(Scan) == 2
    assert isinstance(plan, Project)
    (upward,) = plan.children
    assert isinstance(upward, SemiJoin)
    assert [str(op) for op in upward.children] == ["Scan[F(x, y)]", "Scan[E(a, x)]"]
