"""Differential: cached evaluation under mutation vs a fresh-cache oracle.

Hypothesis drives random interleavings of ``insert`` / ``delete`` /
``evaluate`` against one long-lived :class:`QueryService` (cache reused
across the whole interleaving, mutations absorbed incrementally) and
checks every evaluation against a fresh-scan-per-call oracle: the tuple
engine (``tests/helpers/tuple_engine.py``, ground truth) or the columnar
engine itself (which isolates a caching bug from a kernel bug).  This is
the repo's established
differential-oracle pattern applied to the mutation axis: any divergence
means a cached partition, statistic, or encoding survived a write it
should not have.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel import Atom, Constant, Database, Predicate, Variable
from repro.evaluation import YannakakisEvaluator, evaluate_iter
from repro.queries.cq import ConjunctiveQuery
from repro.service import QueryService

from helpers import tuple_engine

E = Predicate("E", 2)
F = Predicate("F", 1)
x, y, z = Variable("x"), Variable("y"), Variable("z")

#: Acyclic and cyclic-free shapes that exercise joins, semijoins, and
#: constant-anchored scans over the mutated predicates.
QUERIES = [
    ConjunctiveQuery((x, z), [Atom(E, (x, y)), Atom(E, (y, z))], name="path"),
    ConjunctiveQuery((x,), [Atom(E, (x, y)), Atom(F, (y,))], name="filtered"),
    ConjunctiveQuery((y,), [Atom(E, (Constant(0), y))], name="anchored"),
]

#: One interleaving step: insert/delete an E or F fact, or evaluate one of
#: the query shapes.  The tiny term domain forces heavy key collisions —
#: exactly where stale buckets would show.
_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["+", "-"]),
            st.sampled_from(["E", "F"]),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=4),
        ),
        st.tuples(st.just("?"), st.integers(min_value=0, max_value=len(QUERIES) - 1)),
    ),
    min_size=1,
    max_size=25,
)


def _fact(predicate_name, a, b):
    if predicate_name == "E":
        return Atom(E, (Constant(a), Constant(b)))
    return Atom(F, (Constant(a),))


#: The fresh-scan oracles a warm service is checked against, by name.
ORACLES = {
    "tuple": tuple_engine.evaluate,
    "columnar": lambda evaluator, database: evaluator.evaluate(database),
}


def _run_interleaving(steps, oracle):
    database = Database()
    service = QueryService(database)
    evaluators = {query.name: YannakakisEvaluator(query) for query in QUERIES}

    def want(query):
        return ORACLES[oracle](evaluators[query.name], database)  # fresh scans

    evaluated = 0
    for step in steps:
        if step[0] == "?":
            query = QUERIES[step[1]]
            got = service.submit(query)
            assert got == want(query), (
                f"{query.name} diverged after {service.writes} writes "
                f"(oracle={oracle})"
            )
            evaluated += 1
        elif step[0] == "+":
            service.insert(_fact(step[1], step[2], step[3]))
        else:
            service.delete(_fact(step[1], step[2], step[3]))
    # Final sweep: every shape must agree on the terminal state.
    for query in QUERIES:
        assert service.submit(query) == want(query)
    return evaluated


@pytest.mark.parametrize("oracle", ["tuple", "columnar"])
@settings(max_examples=40, deadline=None)
@given(steps=_STEPS)
def test_interleavings_match_fresh_cache_oracle(oracle, steps):
    _run_interleaving(steps, oracle)


@pytest.mark.parametrize("oracle", ["tuple", "columnar"])
def test_seeded_long_interleaving(oracle):
    """A fixed, long interleaving (fast deterministic CI signal)."""
    import random

    rng = random.Random(42)
    steps = []
    for _ in range(300):
        if rng.random() < 0.3:
            steps.append(("?", rng.randrange(len(QUERIES))))
        else:
            steps.append(
                (
                    rng.choice(["+", "-"]),
                    rng.choice(["E", "F"]),
                    rng.randrange(5),
                    rng.randrange(5),
                )
            )
    assert _run_interleaving(steps, oracle) > 10


def test_open_plain_generator_survives_mutation(monkeypatch):
    """Without the service guard, an open stream must not crash on writes.

    The plain (non-service) ``evaluate_iter`` generators snapshot their
    scans lazily; a mutation mid-stream may or may not be visible in the
    remaining answers, but pulling the generator to exhaustion must stay
    well-defined (no exception, distinct tuples).  The seam is pinned off:
    under ``REPRO_SERVICE=1`` this stream would instead be guarded and
    fail loudly (covered by the service tests).
    """
    monkeypatch.setenv("REPRO_SERVICE", "0")
    database = Database()
    for a, b in [(1, 2), (2, 3), (3, 4), (4, 5)]:
        database.add(Atom(E, (Constant(a), Constant(b))))
    query = QUERIES[0]
    stream = evaluate_iter(query, database)
    first = next(stream)
    database.add(Atom(E, (Constant(9), Constant(10))))
    rest = list(stream)
    answers = [first, *rest]
    assert len(answers) == len(set(answers))
    assert all(len(answer) == 2 for answer in answers)
