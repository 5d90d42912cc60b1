"""The semi-naive chase against a naive one, on random full and linear tgds.

The chase checks a full tgd's head by membership and takes a linear tgd's
unified delta fact as its trigger; both fast paths skip a homomorphism
search.  On full tgds the result must equal the naive Datalog fixpoint of
``tests/helpers/naive_chase.py``; on linear tgds with existential variables,
a terminated chase must be homomorphically equivalent to the naive
restricted chase.  The termination flags must hold either way.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.naive_chase import naive_chase, violations
from repro.chase import chase
from repro.dependencies.tgd import TGD
from repro.queries.homomorphism import homomorphically_equivalent
from repro.workloads.generators import (
    random_database,
    random_full_tgds,
    random_guarded_tgds,
    random_schema,
)


def _setting(seed):
    rng = random.Random(seed)
    schema = random_schema(rng, predicate_count=rng.randint(2, 4), max_arity=rng.randint(1, 3))
    database = random_database(
        rng, schema, facts_per_predicate=rng.randint(1, 4), domain_size=rng.randint(2, 5)
    )
    return rng, schema, database


def _assert_flags_hold(result, tgds, max_steps):
    assert result.terminated == (not result.budget_exhausted)
    if result.terminated:
        assert violations(list(result.instance), tgds) == []
    else:
        assert result.step_count == max_steps


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_chase_of_full_tgds_is_the_naive_datalog_fixpoint(seed):
    rng, schema, database = _setting(seed)
    tgds = random_full_tgds(rng, schema, count=rng.randint(1, 4), max_body_atoms=rng.randint(1, 3))
    result = chase(database, tgds, max_steps=100_000)
    facts, fixpoint = naive_chase(database, tgds, max_rounds=10_000)
    assert fixpoint
    assert result.terminated and not result.budget_exhausted
    assert set(result.instance) == set(facts)
    _assert_flags_hold(result, tgds, 100_000)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_chase_of_linear_tgds_agrees_with_the_naive_chase(seed):
    rng, schema, database = _setting(seed)
    tgds = [
        TGD([tgd.guard()], tgd.head, label=tgd.label)
        for tgd in random_guarded_tgds(rng, schema, count=rng.randint(1, 4))
    ]
    max_steps = 40
    result = chase(database, tgds, max_steps=max_steps)
    _assert_flags_hold(result, tgds, max_steps)
    if result.terminated:
        facts, fixpoint = naive_chase(database, tgds, max_rounds=max_steps)
        assert fixpoint
        assert homomorphically_equivalent(result.instance, facts)
