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
    DP_ATOM_LIMIT,
    DecompositionEvaluator,
    YannakakisEvaluator,
    evaluate_generic,
    evaluate_with_plan,
    execute_plan,
    iter_with_plan,
    plan_dp,
    plan_dp_linear,
    plan_greedy,
    resolve_planner,
)
from repro.evaluation.join_plans import PlanTree
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
    from repro.evaluation import BatchEvaluator, semacyclic_eval

    with pytest.MonkeyPatch.context() as patch:
        route = semacyclic_eval.resolve_route
        patch.setattr(
            semacyclic_eval,
            "resolve_route",
            lambda q, tgds=(): route(q, tgds=tgds, engine="plan"),
        )
        batch = BatchEvaluator([query])
    assert batch.routes() == ["plan"]
    if stream:
        return set(batch.evaluate_iter(database)[0])
    return batch.evaluate(database)[0]


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
        query, database = randomized_cyclic_workload(7)
        evaluator = DecompositionEvaluator(query)
        for node in evaluator.decomposition.nodes():
            bag = frozenset(evaluator.decomposition.bag(node))
            bag_atom = evaluator._bag_atoms[node]
            assert frozenset(bag_atom.terms) == bag
            covered = set()
            for atom in evaluator._bag_cover[node]:
                covered |= atom.variables()
            assert bag <= covered

    def test_explain_renders_the_bag_boundaries(self):
        query, database = self.triangle()
        report = DecompositionEvaluator(query).explain(database)
        assert "Bag[0: " in report
