"""SemAc under egds when the egd chase of the query fails.

Such a query is empty on every database satisfying the egds, so it is
semantically acyclic (method ``failing-chase``).  Its witness must be
*equivalent* to it under the egds, not merely acyclic: ``repro evaluate``
runs the witness in the query's place (the reformulated route), so a
witness with answers of its own gives wrong answers.  The witness is the
query with all its variables collapsed into one.
"""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.containment import contained_under_egds
from repro.core import decide_semantic_acyclicity
from repro.datamodel import Atom, Constant, Database, Predicate, Variable
from repro.evaluation import YannakakisEvaluator, evaluate_generic, resolve_route
from repro.parser import parse_egd, parse_query
from repro.queries.cq import ConjunctiveQuery

QUERY = "q(x) :- R(x, y), R(y, z), R(z, x), K(x, 'a'), K(x, 'b')"
KEY = "K(u, v), K(u, w) -> v = w"
FACTS = "R(1, 2)\nR(2, 3)\nR(3, 1)\nK(1, 'a')\n"


def _assert_equivalent_acyclic_witness(query, egds):
    decision = decide_semantic_acyclicity(query, egds)
    assert decision.semantically_acyclic
    assert decision.method == "failing-chase"
    witness = decision.witness
    assert witness.is_acyclic()
    assert contained_under_egds(query, witness, egds)
    assert contained_under_egds(witness, query, egds)
    return witness


def test_the_witness_is_the_collapsed_query():
    query, egds = parse_query(QUERY), [parse_egd(KEY)]
    witness = _assert_equivalent_acyclic_witness(query, egds)
    assert str(witness) == "q_collapsed(x) :- R(x, x) ∧ K(x, a) ∧ K(x, b)"


def test_repro_evaluate_answers_nothing_on_every_engine(tmp_path):
    data = tmp_path / "facts.txt"
    data.write_text(FACTS, encoding="utf-8")
    for engine, route in [
        ("auto", "reformulated+yannakakis"),
        ("generic", "generic"),
        ("decomposition", "decomposition"),
    ]:
        out = io.StringIO()
        argv = ["evaluate", "--query", QUERY, "--dependency", KEY, "--data", str(data)]
        assert cli.main(argv + ["--engine", engine], out=out) == 0
        assert out.getvalue().splitlines() == [f"evaluation: {route}", "answers: 0"]


E, R, K = Predicate("E", 2), Predicate("R", 2), Predicate("K", 2)
EGDS = [parse_egd("R(u, v), R(u, w) -> v = w"), parse_egd(KEY)]
POOL = [Variable(f"x{i}") for i in range(5)]
DOMAIN = [Constant(i) for i in range(4)]


@st.composite
def failing_chase_workloads(draw):
    """A cyclic query whose egd chase fails, and a database satisfying the egds.

    The query holds a triangle over ``E`` (no egd touches it, so the query
    stays cyclic), random ``E``/``R`` atoms, and ``K(a, 'a'), K(b, 'b')``.
    When ``a`` and ``b`` differ, ``R(c, a), R(c, b)`` makes the key of
    ``R`` equate them, so the key of ``K`` then equates ``'a'`` and ``'b'``.
    The database keys ``R`` and ``K`` on their first column.
    """
    variable = st.sampled_from(POOL)
    body = [Atom(E, (POOL[0], POOL[1])), Atom(E, (POOL[1], POOL[2])), Atom(E, (POOL[2], POOL[0]))]
    for _ in range(draw(st.integers(0, 4))):
        predicate = draw(st.sampled_from([E, R]))
        body.append(Atom(predicate, (draw(variable), draw(variable))))
    a, b, c = draw(variable), draw(variable), draw(variable)
    if a != b:
        body += [Atom(R, (c, a)), Atom(R, (c, b))]
    body += [Atom(K, (a, Constant("a"))), Atom(K, (b, Constant("b")))]
    body = draw(st.permutations(body))
    variables = sorted({v for atom in body for v in atom.variables()}, key=str)
    head = draw(st.lists(st.sampled_from(variables), max_size=3))
    query = ConjunctiveQuery(tuple(head), body, name="q")

    value = st.sampled_from(DOMAIN)
    facts = [Atom(E, (draw(value), draw(value))) for _ in range(draw(st.integers(0, 10)))]
    for key in DOMAIN:
        if draw(st.booleans()):
            facts.append(Atom(R, (key, draw(value))))
        label = draw(st.sampled_from([None, "a", "b"]))
        if label is not None:
            facts.append(Atom(K, (key, Constant(label))))
    return query, Database(facts)


@settings(max_examples=60, deadline=None)
@given(workload=failing_chase_workloads())
def test_failing_chase_witness_agrees_with_the_generic_oracle(workload):
    query, database = workload
    witness = _assert_equivalent_acyclic_witness(query, EGDS)
    expected = evaluate_generic(query, database)
    assert YannakakisEvaluator(witness).evaluate(database) == expected
    route, evaluator = resolve_route(query, tgds=EGDS)
    assert route == "reformulated"
    assert set(evaluator.iter_answers(database)) == expected
