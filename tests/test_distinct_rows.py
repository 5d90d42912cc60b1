"""Every operator's encoded output has distinct rows.

The ``Project`` docstring states the invariant and the engine leans on it:
a ``Project`` that keeps every column of its child is a column view (no
deduplication), and a bag input whose variables are all bound joins as a
``SemiJoin``.  The property below runs the acyclic, reformulated and
decomposition routes, on both storages, and a ``QueryService`` across a
write, recording every execution context, and checks every memoised
``NodeRun.encoded`` of every run.  The named cases pin the decomposition
route on the core of a cyclic query.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import tuple_engine
from helpers.workloads import randomized_acyclic_workload, randomized_cyclic_workload
from repro import parse_query, parse_tgd
from repro.datamodel import Atom, Constant, Database, Predicate
from repro.evaluation import Project, YannakakisEvaluator, evaluate_generic, operators
from repro.evaluation.encoding import EncodedRelation
from repro.evaluation.operators import ExecutionContext
from repro.evaluation.semacyclic_eval import resolve_route
from repro.service import QueryService

GUARDED = [parse_tgd("E(x, y) -> A(x)"), parse_tgd("A(x) -> E(x, x)")]
PLAIN = [parse_tgd("N_0(x, y) -> B(x)")]


@contextmanager
def recorded_contexts():
    """Collect every :class:`ExecutionContext` created inside the block."""
    contexts = []
    original = ExecutionContext.__init__

    def recording(self, *args, **kwargs):
        original(self, *args, **kwargs)
        contexts.append(self)

    ExecutionContext.__init__ = recording
    try:
        yield contexts
    finally:
        ExecutionContext.__init__ = original


def assert_runs_distinct(contexts):
    checked = 0
    for context in contexts:
        for node, record in context.run.items():
            if record.encoded is None:
                continue
            rows = record.encoded.rows
            assert len(set(rows)) == len(rows), f"{node.label()} emitted a duplicate row"
            checked += 1
    assert checked, "no operator output was recorded"


def _edges(rng, name, domain, count):
    return {
        Atom(Predicate(name, 2), (Constant(rng.randrange(domain)), Constant(rng.randrange(domain))))
        for _ in range(count)
    }


def closed_graph_database(seed):
    """Random ``E`` and ``N_0`` edges closed under :data:`GUARDED` and :data:`PLAIN`."""
    rng = random.Random(seed)
    domain = rng.randint(3, 7)
    facts = _edges(rng, "E", domain, rng.randint(4, 14))
    facts |= _edges(rng, "N_0", domain, rng.randint(4, 14))
    for fact in list(facts):
        source = fact.terms[0]
        if fact.predicate.name == "E":
            facts.add(Atom(Predicate("A", 1), (source,)))
            facts.add(Atom(Predicate("E", 2), (source, source)))
        else:
            facts.add(Atom(Predicate("B", 1), (source,)))
    return Database(sorted(facts, key=str))


def cycle_with_pendants(predicate, length, pendants, head=("v0",)):
    cycle = [f"v{i}" for i in range(length)]
    atoms = [f"{predicate}({cycle[i]}, {cycle[(i + 1) % length]})" for i in range(length)]
    for i in range(pendants):
        vertex = cycle[i % length]
        atoms.append(
            f"{predicate}({vertex}, p{i})" if i % 2 == 0 else f"{predicate}(p{i}, {vertex})"
        )
    return parse_query(f"q({', '.join(head)}) :- {', '.join(atoms)}")


def workloads(seed):
    """``(route expected, query, tgds, database)`` for one seed."""
    rng = random.Random(seed)
    acyclic, acyclic_db = randomized_acyclic_workload(seed)
    cyclic, cyclic_db = randomized_cyclic_workload(seed)
    graph = closed_graph_database(seed)
    return [
        (None, acyclic, [], acyclic_db),
        ("decomposition", cyclic, [], cyclic_db),
        ("reformulated", cycle_with_pendants("E", 3, rng.randint(0, 3)), GUARDED, graph),
        (
            "decomposition",
            cycle_with_pendants("N_0", rng.randint(3, 5), rng.randint(0, 2)),
            PLAIN,
            graph,
        ),
    ]


@pytest.mark.parametrize("numpy_storage", ["0", "1"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_every_operator_output_has_distinct_rows(numpy_storage, seed):
    if numpy_storage == "1":
        pytest.importorskip("numpy")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_NUMPY", numpy_storage)
        for expected_route, query, tgds, database in workloads(seed):
            with recorded_contexts() as contexts:
                route, evaluator = resolve_route(query, tgds=tgds)
                answers = evaluator.evaluate(database)
                streamed = set(evaluator.iter_answers(database))
            if expected_route is not None:
                assert route == expected_route
            assert answers == streamed == evaluate_generic(query, database)
            assert_runs_distinct(contexts)

        # A standing service, read before and after a write.
        _, query, tgds, database = workloads(seed)[3]
        service = QueryService(Database(database))
        with recorded_contexts() as contexts:
            before = service.submit(query, tgds=tgds)
            edge = min(service.database.atoms_with_predicate(Predicate("N_0", 2)), key=str)
            service.delete(edge)
            service.insert(Atom(Predicate("N_0", 2), (edge.terms[1], edge.terms[0])))
            service.insert(Atom(Predicate("B", 1), (edge.terms[1],)))
            after = service.submit(query, tgds=tgds)
        assert before == evaluate_generic(query, database)
        assert after == evaluate_generic(query, service.database)
        assert_runs_distinct(contexts)


def test_plain_cycle_with_pendants_runs_on_its_core():
    """An N_0 triangle with two pendants decides from its core (the tgd
    cannot reach N_0), and the decomposition route evaluates that core:
    the bare cycle, with no pendant bags."""
    query = cycle_with_pendants("N_0", 3, 2)
    route, evaluator = resolve_route(query, tgds=PLAIN)
    assert route == "decomposition"
    bare = cycle_with_pendants("N_0", 3, 0)
    assert len(evaluator.query) == 3
    assert set(evaluator.query.body) == set(bare.body)
    assert evaluator.query.head == query.head


def test_core_route_answers_on_a_database_violating_the_tgd():
    """The core is equivalent to the query on every database, so the answers
    do not lean on ``N_0(x, y) -> B(x)`` holding: here no ``B`` fact exists."""
    query = cycle_with_pendants("N_0", 3, 2)
    database = Database(
        Atom(Predicate("N_0", 2), (Constant(a), Constant(b)))
        for a, b in [(1, 2), (2, 3), (3, 1), (1, 1), (4, 5), (5, 4)]
    )
    _, evaluator = resolve_route(query, tgds=PLAIN)
    expected = evaluate_generic(query, database)
    assert expected
    assert evaluator.evaluate(database) == expected
    assert set(evaluator.iter_answers(database)) == expected


def projects(plan):
    """The distinct ``Project`` operators of a plan DAG."""
    seen, stack = {}, [plan]
    while stack:
        op = stack.pop()
        if op not in seen:
            seen[op] = None
            stack.extend(op.children)
    return [op for op in seen if isinstance(op, Project)]


def drops(op):
    return len(op.schema) < len(op.children[0].schema)


def root_chain(plan):
    chain = []
    while isinstance(plan, Project):
        chain.append(plan)
        plan = plan.children[0]
    return chain


def chain_database(width=12, fanout=3, seed=5):
    rng = random.Random(seed)
    facts = []
    for layer in (1, 2, 3):
        predicate = Predicate(f"S{layer}", 2)
        for _ in range(width * fanout):
            facts.append(
                Atom(
                    predicate,
                    (Constant(f"L{layer - 1}_{rng.randrange(width)}"),
                     Constant(f"L{layer}_{rng.randrange(width)}")),
                )
            )
    return Database(facts)


CHAIN = "S1(x0, x1), S2(x1, x2), S3(x2, x3)"


@pytest.mark.parametrize("numpy_storage", ["0", "1"])
def test_evaluate_deduplicates_at_the_root_project_before_decoding(numpy_storage, monkeypatch):
    """On a chain with many paths per answer the root ``Project`` drops most
    joined rows; ``evaluate`` runs it on int codes instead of decoding every
    repeat into the answer set."""
    if numpy_storage == "1":
        pytest.importorskip("numpy")
    monkeypatch.setenv("REPRO_NUMPY", numpy_storage)
    calls = []
    project, parallel_project = EncodedRelation.project, operators.parallel_project

    def counted_project(self, *args, **kwargs):
        calls.append("project")
        return project(self, *args, **kwargs)

    def counted_parallel(*args, **kwargs):
        result = parallel_project(*args, **kwargs)
        if result is not None:
            calls.append("parallel_project")
        return result

    monkeypatch.setattr(EncodedRelation, "project", counted_project)
    monkeypatch.setattr(operators, "parallel_project", counted_parallel)

    database = chain_database(fanout=8)
    evaluator = YannakakisEvaluator(parse_query(f"q(x0, x3) :- {CHAIN}"))
    plan = evaluator.compile_answer_plan()
    dropping = [op for op in projects(plan) if drops(op)]
    assert [op for op in root_chain(plan) if drops(op)] == [plan]
    answers = evaluator.evaluate(database)
    assert len(calls) == len(dropping)
    if numpy_storage == "1":
        assert set(calls) == {"parallel_project"}
    joined = plan.children[0].materialize_encoded(ExecutionContext(database))
    assert len(joined) > 2 * len(answers)
    assert answers == tuple_engine.evaluate(evaluator, database)
    assert answers == set(evaluator.iter_answers(database))


@pytest.mark.parametrize("numpy_storage", ["0", "1"])
@pytest.mark.parametrize(
    "text, tgds, route",
    [
        (f"q(x0, x3, x0) :- {CHAIN}", [], "yannakakis"),
        (f"q(x1, x1) :- {CHAIN}", [], "yannakakis"),
        ("q(x1) :- S1(x0, x1), S2(x1, x2)", [], "yannakakis"),
        ("q(x0, x2) :- S1(x0, x1), S2(x1, x2), S1(x0, x2)", [], "decomposition"),
        ("q(x0, x0) :- S1(x0, x1), S2(x1, x2), S1(x0, x2)", [], "decomposition"),
    ],
)
def test_evaluate_equals_the_tuple_oracle(numpy_storage, text, tgds, route, monkeypatch):
    if numpy_storage == "1":
        pytest.importorskip("numpy")
    monkeypatch.setenv("REPRO_NUMPY", numpy_storage)
    database = chain_database()
    query = parse_query(text)
    found, evaluator = resolve_route(query, tgds=tgds)
    assert found == route
    answers = evaluator.evaluate(database)
    assert answers == tuple_engine.evaluate(evaluator, database)
    assert answers == set(evaluator.iter_answers(database))
    assert answers == query.evaluate(database)
