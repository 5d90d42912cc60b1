"""Routing under keys: every entry point reformulates under egds and FDs.

Theorem 23 makes queries semantically acyclic under keys that are not
acyclic otherwise.  :func:`~repro.evaluation.resolve_route` decides through
:func:`~repro.core.decide_semantic_acyclicity`, so ``evaluate_iter`` and
:class:`~repro.service.QueryService` run the egd witness on the
reformulated route exactly as they run a tgd witness.  Like a tgd
reformulation (Proposition 24), the witness equals the query only on
databases that satisfy the keys, so the databases here come from
``database_satisfying``.  The queries are cyclic; some of them hold two
atoms that a key forces to agree on two distinct constants, so their egd
chase fails and the query is empty on every such database.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import tuple_engine
from repro.core import decide_semantic_acyclicity
from repro.datamodel import Atom, Constant, Predicate, Schema, Variable
from repro.dependencies import fds_to_egds
from repro.evaluation import evaluate_iter, resolve_route
from repro.queries.cq import ConjunctiveQuery
from repro.service import QueryService
from repro.workloads.generators import database_satisfying, random_keys

SCHEMA = Schema([Predicate("R", 2), Predicate("S", 2), Predicate("T", 3)])
POOL = [Variable(f"x{i}") for i in range(5)]


@st.composite
def keyed_workloads(draw):
    """Random keys over ``SCHEMA``, a database satisfying them and a cyclic
    query: a triangle over the binary predicates, random atoms and, in two
    thirds of the draws, two atoms that a key relates."""
    seed = draw(st.integers(0, 10_000))
    keys = random_keys(seed, SCHEMA)
    database = database_satisfying(
        keys, seed=seed, schema=SCHEMA, facts_per_predicate=8, domain_size=4
    )
    predicates = SCHEMA.predicates()
    variable = st.sampled_from(POOL)

    def atom(predicate):
        return Atom(predicate, tuple(draw(variable) for _ in range(predicate.arity)))

    binary = st.sampled_from([p for p in predicates if p.arity == 2])
    body = [Atom(draw(binary), (POOL[i], POOL[(i + 1) % 3])) for i in range(3)]
    body += [atom(draw(st.sampled_from(predicates))) for _ in range(draw(st.integers(0, 3)))]
    # Two atoms that agree on a key's determinant: the key merges their
    # other positions, and fails on two distinct constants there.
    pair = draw(st.sampled_from(["none", "merging", "failing"]))
    if pair != "none":
        fd = draw(st.sampled_from(keys))
        first = list(atom(fd.predicate).terms)
        second = [
            first[i - 1] if i in fd.determinant else draw(variable)
            for i in range(1, fd.predicate.arity + 1)
        ]
        if pair == "failing":
            position = min(fd.dependent) - 1
            first[position], second[position] = Constant("a0"), Constant("a1")
        body += [Atom(fd.predicate, tuple(first)), Atom(fd.predicate, tuple(second))]
    variables = sorted({v for item in body for v in item.variables()}, key=str)
    head = draw(st.lists(st.sampled_from(variables), max_size=2))
    query = ConjunctiveQuery(tuple(head), draw(st.permutations(body)), name="q")
    assume(not query.is_acyclic())
    return query, keys, database


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(workload=keyed_workloads())
def test_key_routes_agree_with_the_tuple_oracle(workload):
    query, keys, database = workload
    expected = tuple_engine.evaluate_route(query, database)
    route, _ = resolve_route(query, tgds=keys)
    witness = decide_semantic_acyclicity(query, keys).witness
    assert route == ("decomposition" if witness is None else "reformulated")
    assert set(evaluate_iter(query, database, tgds=keys)) == expected
    service = QueryService(database)
    assert service.submit(query, tgds=keys) == expected
    assert set(service.stream(query, tgds=keys)) == expected
    # The FDs and their egds are one Σ: they share one plan entry.
    assert service.submit(query, tgds=fds_to_egds(keys)) == expected
    assert service.plan_misses == 1 and service.plan_hits == 2
