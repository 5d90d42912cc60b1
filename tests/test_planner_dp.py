"""Planner v2 battery: the Selinger DP, its guarantees, and the
decomposition route for cyclic queries.

Three families of checks lock the planner down:

* **Fixtures where greedy provably mispicks.** Chain, star and clique
  workloads constructed so the greedy planner's locally-cheapest choice
  is globally wrong; the DP must beat it on *estimated* and *observed*
  intermediate totals, and on the chain fixture must find the known
  optimal bushy shape ``((A ⋈ B) ⋈ (C ⋈ D))``.
* **Structural invariants.** Cross-product pruning: no join in a DP tree
  over a connected query ever joins variable-disjoint subtrees;
  disconnected queries chain their components at the top of the tree
  only.  Above :data:`DP_ATOM_LIMIT` the planner falls back to greedy's
  left-deep plan, and every plan entry point runs that fallback to the
  generic-join answers, which a fresh tuple-oracle or columnar run of the
  plan route reproduces.
* **Differentials.** On randomized acyclic workloads (constants,
  repeated head variables) the DP, greedy, linear-DP and Yannakakis
  engines agree with the generic-join ground truth and the tuple oracle; on
  randomized cyclic workloads the decomposition route agrees with
  generic join, including its streaming and boolean faces.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import tuple_engine
from helpers.workloads import randomized_acyclic_workload, randomized_cyclic_workload
from repro.datamodel import Atom, Constant, Database, Predicate, Variable
from repro.evaluation import (
    AcyclicityRequired,
    BagNode,
    DP_ATOM_LIMIT,
    DecompositionEvaluator,
    HashJoin,
    Project,
    Scan,
    ScanCache,
    YannakakisEvaluator,
    evaluate_generic,
    evaluate_with_plan,
    execute_plan,
    iter_with_plan,
    plan_dp,
    plan_dp_linear,
    plan_greedy,
    resolve_planner,
    resolve_route,
)
from repro.evaluation.join_plans import PlanTree
from repro.evaluation.operators import ExecutionContext
from repro.parser import parse_query
from repro.queries.cq import ConjunctiveQuery
from repro.service import QueryService

x1, x2, x3, x4, x5 = (Variable(f"x{i}") for i in range(1, 6))


# ----------------------------------------------------------------------
# Fixtures where the greedy planner provably mispicks
# ----------------------------------------------------------------------
def chain_fixture():
    """Selective ends, exploding middle: the bushy shape wins.

    ``A`` and ``D`` are tiny (2 rows); ``B`` and ``C`` are large (100
    rows) and join each other on a 2-value key, so *any* left-deep order
    must pay a ~100-row intermediate after its second join.  The optimal
    plan joins the two selective ends into their neighbours first and
    then joins the two small sub-chains: ``((A ⋈ B) ⋈ (C ⋈ D))`` with a
    total of ~6 intermediate rows, versus ~104 for the best left-deep
    order greedy can reach.
    """
    A, B, C, D = (Predicate(p, 2) for p in "ABCD")
    database = Database()
    for i in range(2):
        database.add(Atom(A, (Constant(f"a{i}"), Constant(f"m{i}"))))
        database.add(Atom(D, (Constant(f"n{i}"), Constant(f"d{i}"))))
    for i in range(100):
        database.add(Atom(B, (Constant(f"m{i}"), Constant(f"h{i % 2}"))))
        database.add(Atom(C, (Constant(f"h{i % 2}"), Constant(f"n{i}"))))
    query = ConjunctiveQuery(
        (x1, x5),
        [Atom(A, (x1, x2)), Atom(B, (x2, x3)), Atom(C, (x3, x4)), Atom(D, (x4, x5))],
    )
    return query, database


def star_fixture():
    """A 3-satellite star where the cheapest *scan* is the wrong start.

    The greedy planner opens with the smallest satellite, but its join
    with the centre explodes (the centre has only 2 distinct values on
    that key); the DP instead starts from the satellite whose key the
    centre is selective on.
    """
    Ctr = Predicate("Ctr", 3)
    S1, S2, S3 = Predicate("S1", 2), Predicate("S2", 2), Predicate("S3", 2)
    sx, sy, sz = Variable("sx"), Variable("sy"), Variable("sz")
    u, v, w = Variable("u"), Variable("v"), Variable("w")
    database = Database()
    for i in range(50):
        database.add(
            Atom(Ctr, (Constant(f"x{i % 2}"), Constant(f"y{i}"), Constant(f"z{i}")))
        )
    for i in range(4):
        database.add(Atom(S1, (Constant(f"x{i}"), Constant(f"u{i}"))))
    for i in range(5):
        database.add(Atom(S2, (Constant(f"y{i}"), Constant(f"v{i}"))))
    for i in range(40):
        database.add(Atom(S3, (Constant(f"z{i}"), Constant(f"w{i}"))))
    query = ConjunctiveQuery(
        (sx, sy, sz),
        [
            Atom(Ctr, (sx, sy, sz)),
            Atom(S1, (sx, u)),
            Atom(S2, (sy, v)),
            Atom(S3, (sz, w)),
        ],
    )
    return query, database


def clique_fixture():
    """A 4-clique with two tiny opposite edges and four large ones.

    Greedy's edge-at-a-time extension from the cheapest scan cannot see
    that interleaving the two tiny edges early keeps every intermediate
    small; the DP's exhaustive connected-subset search does.
    """
    names = ("R12", "R13", "R14", "R23", "R24", "R34")
    R12, R13, R14, R23, R24, R34 = (Predicate(name, 2) for name in names)
    database = Database()
    rng = random.Random(0)

    def fill(predicate, rows, left_domain, right_domain, left_tag, right_tag):
        for _ in range(rows):
            database.add(
                Atom(
                    predicate,
                    (
                        Constant(f"{left_tag}{rng.randrange(left_domain)}"),
                        Constant(f"{right_tag}{rng.randrange(right_domain)}"),
                    ),
                )
            )

    fill(R12, 4, 4, 4, "a", "b")
    fill(R13, 60, 4, 8, "a", "c")
    fill(R14, 60, 4, 8, "a", "d")
    fill(R23, 60, 4, 8, "b", "c")
    fill(R24, 60, 4, 8, "b", "d")
    fill(R34, 4, 8, 8, "c", "d")
    y1, y2, y3, y4 = (Variable(f"y{i}") for i in range(1, 5))
    query = ConjunctiveQuery(
        (y1, y2, y3, y4),
        [
            Atom(R12, (y1, y2)),
            Atom(R13, (y1, y3)),
            Atom(R14, (y1, y4)),
            Atom(R23, (y2, y3)),
            Atom(R24, (y2, y4)),
            Atom(R34, (y3, y4)),
        ],
    )
    return query, database


def estimated_join_total(plan):
    """Σ estimated join-output rows — the quantity the DP minimises."""
    return sum(step.estimated_intermediate_rows for step in plan.steps[1:])


def observed_join_total(plan, database):
    return sum(execute_plan(plan, database).intermediate_sizes[1:])


class TestDpBeatsGreedyOnTheMispickFixtures:
    @pytest.mark.parametrize(
        "fixture", [chain_fixture, star_fixture, clique_fixture], ids=lambda f: f.__name__
    )
    def test_dp_strictly_cheaper_estimated_and_observed(self, fixture):
        query, database = fixture()
        greedy = plan_greedy(query, database)
        dp = plan_dp(query, database)
        assert estimated_join_total(dp) < estimated_join_total(greedy)
        assert observed_join_total(dp, database) < observed_join_total(
            greedy, database
        )
        expected = evaluate_generic(query, database)
        assert expected  # a mispick fixture with no answers proves nothing
        assert execute_plan(dp, database).answers == expected
        assert execute_plan(greedy, database).answers == expected

    def test_chain_fixture_dp_finds_the_known_optimal_bushy_shape(self):
        query, database = chain_fixture()
        dp = plan_dp(query, database)
        assert dp.tree is not None
        assert (
            dp.tree.render()
            == "((A(x1, x2) ⋈ B(x2, x3)) ⋈ (C(x3, x4) ⋈ D(x4, x5)))"
        )
        # The bushy total: 2 (A⋈B) + 2 (C⋈D) + 2 (top join).
        assert estimated_join_total(dp) == 6
        assert observed_join_total(dp, database) == 6

    def test_dp_matches_greedy_on_both_backends(self):
        query, database = chain_fixture()
        expected = tuple_engine.evaluate_with_plan(query, database, plan_greedy)
        assert evaluate_with_plan(query, database, plan_dp) == expected
        assert evaluate_with_plan(query, database, plan_greedy) == expected


# ----------------------------------------------------------------------
# Structural invariants: cross-product pruning, fallback, linear mode
# ----------------------------------------------------------------------
def join_nodes(tree):
    if tree is None or tree.atom is not None:
        return []
    return [tree] + join_nodes(tree.left) + join_nodes(tree.right)


def assert_no_cross_products(tree: PlanTree):
    for node in join_nodes(tree):
        assert node.left.variables() & node.right.variables(), (
            f"disconnected join in {tree.render()}"
        )


class TestStructuralInvariants:
    @pytest.mark.parametrize(
        "fixture", [chain_fixture, star_fixture, clique_fixture], ids=lambda f: f.__name__
    )
    def test_connected_queries_never_join_disconnected_subtrees(self, fixture):
        query, database = fixture()
        dp = plan_dp(query, database)
        assert_no_cross_products(dp.tree)
        # The steps record the same fact for the calibration machinery.
        assert all(step.shares_variables_with_prefix for step in dp.steps[1:])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_connected_queries_have_no_cross_products(self, seed):
        query, database = randomized_acyclic_workload(seed)
        plan = plan_dp(query, database)
        if plan.tree is None:
            return  # single atom, or an (unused here) fallback
        components = _variable_components(query)
        if len(components) == 1:
            assert_no_cross_products(plan.tree)

    def test_disconnected_queries_chain_components_at_the_top_only(self):
        E, F = Predicate("E", 2), Predicate("F", 2)
        database = Database()
        for i in range(6):
            database.add(Atom(E, (Constant(f"a{i}"), Constant(f"b{i}"))))
            database.add(Atom(F, (Constant(f"c{i}"), Constant(f"d{i % 2}"))))
        query = ConjunctiveQuery(
            (x1, x3),
            [Atom(E, (x1, x2)), Atom(F, (x3, x4)), Atom(F, (x4, x5))],
        )
        plan = plan_dp(query, database)
        assert plan.tree is not None
        # Exactly one cross product (2 components), and it is the root.
        crosses = [
            node
            for node in join_nodes(plan.tree)
            if not (node.left.variables() & node.right.variables())
        ]
        assert crosses == [plan.tree]
        assert execute_plan(plan, database).answers == evaluate_generic(
            query, database
        )

    def test_atom_limit_falls_back_to_the_greedy_left_deep_plan(self):
        E = Predicate("E", 2)
        database = Database()
        for i in range(5):
            database.add(Atom(E, (Constant(f"n{i}"), Constant(f"n{i + 1}"))))
        variables = [Variable(f"v{i}") for i in range(DP_ATOM_LIMIT + 2)]
        body = [
            Atom(E, (variables[i], variables[i + 1]))
            for i in range(DP_ATOM_LIMIT + 1)
        ]
        query = ConjunctiveQuery((variables[0],), body)
        plan = plan_dp(query, database)
        assert plan.tree is None
        assert [step.atom for step in plan.steps] == [
            step.atom for step in plan_greedy(query, database).steps
        ]

    def test_linear_mode_returns_a_left_deep_chain(self):
        query, database = chain_fixture()
        plan = plan_dp_linear(query, database)
        assert plan.tree is None  # an ordinary chain plan, streamable
        answers = execute_plan(plan, database).answers
        assert answers == evaluate_generic(query, database)
        # Best left-deep order is strictly worse than the bushy optimum
        # here, but never worse than greedy's choice.
        assert estimated_join_total(plan) <= estimated_join_total(
            plan_greedy(query, database)
        )
        assert estimated_join_total(plan) >= estimated_join_total(
            plan_dp(query, database)
        )


def _variable_components(query):
    atoms = list(query.body)
    remaining = set(range(len(atoms)))
    components = []
    while remaining:
        frontier = [remaining.pop()]
        component = set(frontier)
        while frontier:
            current = frontier.pop()
            linked = [
                other
                for other in remaining
                if atoms[other].variables() & atoms[current].variables()
            ]
            for other in linked:
                remaining.remove(other)
                component.add(other)
                frontier.append(other)
        components.append(component)
    return components


# ----------------------------------------------------------------------
# Planner resolution (the DP by default, left-deep when streaming)
# ----------------------------------------------------------------------
class TestResolvePlanner:
    def test_default_is_the_dp(self):
        assert resolve_planner(None) is plan_dp
        assert resolve_planner() is plan_dp

    def test_streaming_resolves_to_the_linear_dp(self):
        assert resolve_planner(None, streaming=True) is plan_dp_linear
        # An explicit planner is honoured even when streaming.
        assert resolve_planner(plan_greedy, streaming=True) is plan_greedy

    def test_callables_pass_through(self):
        assert resolve_planner(plan_greedy) is plan_greedy


# ----------------------------------------------------------------------
# The greedy fallback, through every plan entry point
# ----------------------------------------------------------------------
def _past_the_dp_limit():
    """Two connected queries of ``DP_ATOM_LIMIT + 2`` atoms, one anchored.

    Both are cycles of that many ``E`` edges.  On the successor graph
    ``i -> i + 1 (mod n)`` with two ``i -> i + 2`` chords, only the all-
    successor walks close, so every node starts exactly one answer; the
    anchored variant pins the cycle's start to the constant 0 (a lifted
    parameter in the service).
    """
    n = DP_ATOM_LIMIT + 2
    E = Predicate("E", 2)
    database = Database()
    for i in range(n):
        database.add(Atom(E, (Constant(i), Constant((i + 1) % n))))
    for i in (0, 5):
        database.add(Atom(E, (Constant(i), Constant((i + 2) % n))))
    v = [Variable(f"v{i}") for i in range(n)]
    cycle = [Atom(E, (v[i], v[(i + 1) % n])) for i in range(n)]
    anchored = [atom.apply({v[0]: Constant(0)}) for atom in cycle]
    return database, [
        ConjunctiveQuery((v[0], v[n // 2]), cycle, name="cycle"),
        ConjunctiveQuery((v[n // 2],), anchored, name="anchored"),
    ]


def _batch_plan_route(query, database, stream):
    """The flat plan route run as a batch runs it: over a shared scan cache."""
    route, evaluator = resolve_route(query, engine="plan")
    assert route == "plan"
    shared = ScanCache(database)
    if stream:
        return set(evaluator.iter_answers(database, scans=shared))
    return evaluator.evaluate(database, scans=shared)


PLAN_ENTRY_POINTS = {
    "evaluate_with_plan": evaluate_with_plan,
    "iter_with_plan": lambda q, db: set(iter_with_plan(q, db)),
    "service_submit": lambda q, db: QueryService(db).submit(q, engine="plan"),
    "service_stream": lambda q, db: set(QueryService(db).stream(q, engine="plan")),
    "batch_evaluate": lambda q, db: _batch_plan_route(q, db, stream=False),
    "batch_evaluate_iter": lambda q, db: _batch_plan_route(q, db, stream=True),
}

#: Fresh one-shot runs of the plan route the entry points are checked
#: against: the tuple engine (ground truth), or the columnar engine with a
#: fresh scan cache (isolating an entry point's own caching and streaming).
PLAN_ORACLES = {
    "tuple": tuple_engine.evaluate_with_plan,
    "columnar": evaluate_with_plan,
}


@pytest.mark.parametrize("oracle", ["tuple", "columnar"])
@pytest.mark.parametrize("entry", sorted(PLAN_ENTRY_POINTS))
def test_greedy_fallback_at_every_plan_entry_point(entry, oracle, monkeypatch):
    """Past :data:`DP_ATOM_LIMIT` atoms the DP hands over to
    :func:`plan_greedy`; every entry point that plans must run that plan
    to the generic-join answers, which a fresh run of the oracle
    reproduces, with every emitted plan verified."""
    from repro.evaluation import planner_dp

    monkeypatch.setenv("REPRO_VERIFY", "1")
    fallbacks = []

    def counted(query, database, **kwargs):
        fallbacks.append(len(query.body))
        return plan_greedy(query, database, **kwargs)

    monkeypatch.setattr(planner_dp, "plan_greedy", counted)
    database, queries = _past_the_dp_limit()
    for query in queries:
        expected = evaluate_generic(query, database)
        assert expected, query.name
        assert PLAN_ORACLES[oracle](query, database) == expected
        assert PLAN_ENTRY_POINTS[entry](query, database) == expected
    assert fallbacks and set(fallbacks) == {DP_ATOM_LIMIT + 2}


# ----------------------------------------------------------------------
# Differentials: every planner and engine agrees with generic join
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_dp_greedy_and_yannakakis_agree_on_acyclic_workloads(seed):
    query, database = randomized_acyclic_workload(seed)
    expected = evaluate_generic(query, database)
    for planner in (plan_dp, plan_dp_linear, plan_greedy):
        assert evaluate_with_plan(query, database, planner) == expected, planner.__name__
        assert tuple_engine.evaluate_with_plan(query, database, planner) == expected
    try:
        evaluator = YannakakisEvaluator(query)
    except AcyclicityRequired:
        return  # constant injection made the variable hypergraph cyclic
    assert evaluator.evaluate(database) == expected


def randomized_cyclic_workload_with_constants(seed):
    """The cyclic triangle workload with database constants injected into
    non-head positions (selections inside the bags)."""
    query, database = randomized_cyclic_workload(seed)
    rng = random.Random(seed + 1)
    domain = sorted(database.constants(), key=str)
    head = set(query.head)
    body = []
    for atom in query.body:
        terms = list(atom.terms)
        for position, term in enumerate(terms):
            if term not in head and domain and rng.random() < 0.2:
                terms[position] = rng.choice(domain)
        body.append(Atom(atom.predicate, tuple(terms)))
    return ConjunctiveQuery(query.head, body, name=query.name), database


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_decomposition_route_agrees_with_generic_on_cyclic_workloads(seed):
    query, database = randomized_cyclic_workload_with_constants(seed)
    expected = evaluate_generic(query, database)
    evaluator = DecompositionEvaluator(query)
    assert tuple_engine.evaluate(evaluator, database) == expected
    assert evaluator.evaluate(database) == expected
    assert set(evaluator.iter_answers(database)) == expected
    assert evaluator.boolean(database) == bool(expected)
    # The flat plans agree too (the differential closes the triangle).
    assert evaluate_with_plan(query, database, plan_dp) == expected


def cycle_query(length, pendants=0, predicate=Predicate("E", 2), prefix="c"):
    """A directed ``predicate``-cycle through ``{prefix}0..`` with pendant
    edges (pendant ``i`` hangs off cycle vertex ``i mod length``, pointing
    out for even ``i`` and in for odd ``i``); the head is ``({prefix}0)``."""
    cycle = [Variable(f"{prefix}{i}") for i in range(length)]
    body = [
        Atom(predicate, (cycle[i], cycle[(i + 1) % length])) for i in range(length)
    ]
    for i in range(pendants):
        vertex, pendant = cycle[i % length], Variable(f"{prefix}p{i}")
        body.append(
            Atom(predicate, (vertex, pendant) if i % 2 == 0 else (pendant, vertex))
        )
    return ConjunctiveQuery((cycle[0],), body)


def cycle_workload(seed):
    """A k-cycle (k = 4–7) with pendants and injected constants, sometimes
    beside a second, disconnected cycle (its bags hang off the first
    cycle's by empty separators), and sometimes over an empty relation."""
    rng = random.Random(seed)
    E, F = Predicate("E", 2), Predicate("F", 2)
    domain = [Constant(f"n{i}") for i in range(rng.randint(4, 8))]
    database = Database()
    for _ in range(rng.randint(6, 18)):
        database.add(Atom(E, (rng.choice(domain), rng.choice(domain))))
    if rng.random() < 0.7:  # else F stays an empty relation
        for _ in range(rng.randint(3, 15)):
            database.add(Atom(F, (rng.choice(domain), rng.choice(domain))))
    # The generic oracle enumerates every homomorphism, whose number
    # multiplies across components: the two-cycle queries stay small.
    disconnected = rng.random() < 0.4
    query = cycle_query(
        rng.randint(4, 5 if disconnected else 7), pendants=rng.randint(0, 2)
    )
    body = list(query.body)
    if rng.random() < 0.2:
        body.append(Atom(F, (query.head[0], Variable("f0"))))
    if disconnected:
        body.extend(cycle_query(3, predicate=rng.choice((E, F)), prefix="d").body)
    variables = sorted({v for atom in body for v in atom.variables()}, key=str)
    head_pool = [(), (query.head[0],), tuple(rng.sample(variables, 2))]
    head = rng.choice(head_pool)
    if head and rng.random() < 0.2:
        head = head + head[:1]  # a repeated head variable
    injected = []
    for atom in body:
        terms = tuple(
            rng.choice(domain)
            if term not in head and rng.random() < 0.1
            else term
            for term in atom.terms
        )
        injected.append(Atom(atom.predicate, terms))
    return ConjunctiveQuery(head, injected), database


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_decomposition_route_agrees_with_generic_on_cycle_workloads(seed):
    query, database = cycle_workload(seed)
    expected = evaluate_generic(query, database)
    evaluator = DecompositionEvaluator(query)
    assert evaluator.evaluate(database) == expected
    streamed = list(evaluator.iter_answers(database))
    assert len(streamed) == len(set(streamed))
    assert set(streamed) == expected
    k = seed % 4
    limited = list(evaluator.iter_answers(database, limit=k))
    assert len(limited) == len(set(limited)) == min(k, len(expected))
    assert set(limited) <= expected
    assert evaluator.boolean(database) == bool(expected)
    assert tuple_engine.evaluate(evaluator, database) == expected


def _operators(plan):
    """Every node of a plan DAG once, parents before children."""
    seen = set()
    stack = [plan]
    while stack:
        op = stack.pop()
        if id(op) in seen:
            continue
        seen.add(id(op))
        yield op
        stack.extend(op.children)


def _bag_operators(bag):
    """The operators of one bag's own sub-DAG (child bags excluded)."""
    stack = list(bag.children)
    while stack:
        op = stack.pop()
        if isinstance(op, BagNode):
            continue
        yield op
        stack.extend(op.children)


def regular_digraph(seed, domain=60, degree=3, predicate=Predicate("N_0", 2)):
    """The union of ``degree`` random permutations of a ``domain``-node set
    (every node has in- and out-degree at most ``degree``)."""
    rng = random.Random(seed)
    targets = list(range(domain))
    edges = set()
    for _ in range(degree):
        rng.shuffle(targets)
        edges.update(enumerate(targets))
    return Database(
        Atom(predicate, (Constant(f"c{a}"), Constant(f"c{b}"))) for a, b in edges
    )


class TestFusedBagsBoundTheWork:
    """The N_0 5-cycle, which has no acyclic reformulation: its middle bag
    ``{v1, v2, v4}`` contains a single atom.  A bag built from a Cartesian
    guard went through |N_0|² rows; a bag joined with its children's
    separators stays within its reduced size times the fan-out."""

    query = cycle_query(5, predicate=Predicate("N_0", 2), prefix="v")

    def test_no_bag_joins_without_a_shared_variable(self):
        plan = DecompositionEvaluator(self.query).compile_answer_plan()
        bags = [op for op in _operators(plan) if isinstance(op, BagNode)]
        assert len(bags) == 3
        for bag in bags:
            for op in _bag_operators(bag):
                if isinstance(op, HashJoin):
                    left, right = op.children
                    assert set(left.schema) & set(right.schema), op.label()

    @pytest.mark.parametrize("seed", [1, 2, 16])
    def test_bag_rows_stay_within_reduced_size_times_fan_out(self, seed):
        database = regular_digraph(seed)
        fan_out = 3  # the digraph's maximum in- and out-degree
        evaluator = DecompositionEvaluator(self.query)
        plan = evaluator.compile_answer_plan()
        context = ExecutionContext(database)
        answers = plan.materialize_encoded(context).answer_tuples(self.query.head)
        assert answers == evaluate_generic(self.query, database)
        tree = evaluator.join_tree
        for bag in (op for op in _operators(plan) if isinstance(op, BagNode)):
            # The bag arrives bottom-up reduced: it is the projection of
            # the join of every atom inside a bag of its subtree.
            subtree, frontier = [], [bag.node_id]
            while frontier:
                node = frontier.pop()
                subtree.extend(evaluator._bag_cover[node])
                frontier.extend(tree.children(node))
            head = tuple(sorted(bag.bag, key=str))
            reduced = evaluate_generic(ConjunctiveQuery(head, subtree), database)
            assert context.run[bag].rows == len(reduced)
            scans = [op for op in _bag_operators(bag) if isinstance(op, Scan)]
            largest_scan = max(context.run[op].rows for op in scans)
            bound = fan_out * max(len(reduced), largest_scan)
            for op in _bag_operators(bag):
                if isinstance(op, HashJoin) or (
                    isinstance(op, Project) and isinstance(op.children[0], HashJoin)
                ):
                    assert context.run[op].rows <= bound, (op.label(), bound)


# ----------------------------------------------------------------------
# Decomposition route: structure
# ----------------------------------------------------------------------
class TestDecompositionStructure:
    def triangle(self):
        E = Predicate("E", 2)
        database = Database()
        rng = random.Random(3)
        for _ in range(30):
            database.add(
                Atom(E, (Constant(f"n{rng.randrange(6)}"), Constant(f"n{rng.randrange(6)}")))
            )
        query = ConjunctiveQuery(
            (x1,), [Atom(E, (x1, x2)), Atom(E, (x2, x3)), Atom(E, (x3, x1))]
        )
        return query, database

    def test_triangle_collapses_to_one_bag_of_width_two(self):
        query, database = self.triangle()
        evaluator = DecompositionEvaluator(query)
        assert evaluator.decomposition.width == 2
        assert len(list(evaluator.decomposition.nodes())) == 1
        assert evaluator.evaluate(database) == evaluate_generic(query, database)

    def test_bag_schemas_cover_their_bags(self):
        """Cover atoms ∪ child separators ⊇ bag: a bag is built from the
        atoms inside it and its children's separators alone, so no guard
        is needed on these shapes."""
        queries = [
            randomized_cyclic_workload(7)[0],
            cycle_query(5),
            cycle_query(6, pendants=2),
            parse_query(
                "q(x) :- E(x, y), E(y, z), E(z, x), F(z, w), F(w, v), F(v, z)"
            ),
        ]
        for query in queries:
            evaluator = DecompositionEvaluator(query)
            tree = evaluator.join_tree
            for node in evaluator.decomposition.nodes():
                bag = frozenset(evaluator.decomposition.bag(node))
                bag_atom = evaluator._bag_atoms[node]
                assert frozenset(bag_atom.terms) == bag
                covered = set()
                for atom in evaluator._bag_cover[node]:
                    covered |= atom.variables()
                for child in tree.children(node):
                    covered |= bag & frozenset(evaluator.decomposition.bag(child))
                assert bag <= covered, query
                assert evaluator._bag_guards[node] == [], query

    def test_guards_supply_variables_shared_with_the_parent_only(self, monkeypatch):
        """A bag variable in no contained atom and no child separator comes
        from a guard atom projected onto the bag, never joined in full."""
        from repro.evaluation import planner_dp
        from repro.hypergraph import TreeDecomposition

        a, b, c, d, e = (Variable(name) for name in "abcde")
        # Valid but not minimal: bag 1 holds c only because bag 0 does.
        decomposition = TreeDecomposition(
            {0: {a, b, c}, 1: {a, c, d}, 2: {a, d, e}}, [(0, 1), (1, 2)]
        )
        monkeypatch.setattr(
            planner_dp, "tree_decomposition_min_fill", lambda graph: decomposition
        )
        query = parse_query("q(a, c) :- E(a, b), E(b, c), E(a, d), E(d, e), E(e, a)")
        evaluator = DecompositionEvaluator(query)
        assert [str(atom) for atom in evaluator._bag_guards[1]] == ["E(b, c)"]
        plan = evaluator.compile_answer_plan()
        guard_projections = [
            op
            for op in _operators(plan)
            if isinstance(op, Project)
            and isinstance(op.children[0], Scan)
            and str(op.children[0].atom) == "E(b, c)"
        ]
        assert [op.schema for op in guard_projections] == [(c,)]
        rng = random.Random(11)
        E = Predicate("E", 2)
        database = Database(
            Atom(E, (Constant(f"n{rng.randrange(6)}"), Constant(f"n{rng.randrange(6)}")))
            for _ in range(25)
        )
        expected = evaluate_generic(query, database)
        assert evaluator.evaluate(database) == expected
        assert set(evaluator.iter_answers(database)) == expected
        assert tuple_engine.evaluate(evaluator, database) == expected

    def test_explain_renders_the_bag_boundaries(self):
        query, database = self.triangle()
        report = DecompositionEvaluator(query).explain(database)
        assert "Bag[0: " in report
