"""The resumable chase: advancing a run in chunks equals one uninterrupted run.

:class:`repro.chase.ChaseRun` pauses at the step-budget check and resumes
there with its semi-naive delta and pending triggers intact, so a run
advanced in chunks whose budgets sum to ``N`` must end in exactly the state
of ``chase(max_steps=N)``: the same atoms (nulls included), the same depths,
the same steps and the same ``terminated`` / ``budget_exhausted`` flags.
"""

import gc
import weakref

import pytest

from repro.chase import ChaseBudgetExceeded, ChaseRun, chase
from repro.containment import ContainmentOutcome
from repro.containment.constrained import ContainmentConfig, contained_under_tgds
from repro.parser import parse_query, parse_tgd


def frozen(text):
    database, _ = parse_query(text).freeze()
    return database


CASES = {
    # Non-terminating: an infinite R-chain.
    "chain": (frozen("R(x, y)"), ["R(x, y) -> R(y, z)"], {}),
    # Guarded: E-edges mark their source, marks grow self-loops and fresh
    # successors; terminates after a few dozen steps.
    "guarded": (
        frozen("E(x, y), E(y, z), E(z, x)"),
        ["E(x, y) -> A(x)", "A(x) -> E(x, x)", "E(x, x), A(x) -> F(x, w)"],
        {},
    ),
    # Non-terminating but cut by the depth budget before the step budget.
    "depth_bounded": (
        frozen("R(x, y), S(y)"),
        ["R(x, y) -> R(y, z)", "R(x, y), S(y) -> S(x)"],
        {"max_depth": 6},
    ),
    # The oblivious variant keeps its fired-trigger set across chunks.
    "oblivious": (
        frozen("R(x, y)"),
        ["R(x, y) -> R(x, z)"],
        {"variant": "oblivious"},
    ),
}


def state(result):
    return (
        sorted(map(str, result.instance)),
        {str(atom): depth for atom, depth in result.atom_depth.items()},
        [
            (step.tgd_index, sorted(map(str, step.new_atoms)), step.premise_atoms, step.depth)
            for step in result.steps
        ],
        result.terminated,
        result.budget_exhausted,
    )


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("chunk", [1, 7, 200])
@pytest.mark.parametrize("total", [0, 1, 50, 401])
def test_chunked_run_equals_one_uninterrupted_chase(name, chunk, total):
    instance, texts, options = CASES[name]
    tgds = [parse_tgd(text) for text in texts]
    expected = chase(instance, tgds, max_steps=total, **options)

    run = ChaseRun(instance, tgds, **options)
    spent = 0
    while True:
        step = min(chunk, total - spent)
        result = run.advance(step)
        spent += step
        if spent >= total or run.finished:
            break
    assert state(result) == state(expected)


def test_chase_flags_of_the_cases():
    # The cases cover a fixpoint, a step cut and a depth cut.
    chain = chase(CASES["chain"][0], [parse_tgd(t) for t in CASES["chain"][1]], max_steps=400)
    assert not chain.terminated and chain.budget_exhausted and chain.step_count == 400
    guarded = chase(CASES["guarded"][0], [parse_tgd(t) for t in CASES["guarded"][1]])
    assert guarded.terminated and not guarded.budget_exhausted
    instance, texts, options = CASES["depth_bounded"]
    bounded = chase(instance, [parse_tgd(t) for t in texts], max_steps=10_000, **options)
    assert not bounded.terminated and bounded.budget_exhausted
    assert bounded.step_count < 10_000 and bounded.max_depth() == 6


def test_finished_run_ignores_further_budget():
    instance, texts, _ = CASES["guarded"]
    run = ChaseRun(instance, [parse_tgd(t) for t in texts])
    run.advance(10_000)
    assert run.finished
    before = state(run.result)
    assert state(run.advance(10)) == before


def test_raise_on_step_budget_only():
    instance, texts, options = CASES["depth_bounded"]
    tgds = [parse_tgd(t) for t in texts]
    chase(instance, tgds, max_steps=10_000, on_budget="raise", **options)
    with pytest.raises(ChaseBudgetExceeded):
        chase(instance, tgds, max_steps=5, on_budget="raise", **options)


def test_witness_loop_on_a_non_terminating_chase():
    tgds = [parse_tgd("R(x, y) -> R(y, z)")]
    left = parse_query("R(x, y)")
    config = ContainmentConfig(max_steps=2_000, check_interval=7)
    deep = parse_query("R(a, b), R(b, c), R(c, d), R(d, e)")
    assert contained_under_tgds(left, deep, tgds, config) is ContainmentOutcome.TRUE
    assert contained_under_tgds(left, parse_query("S(x, y)"), tgds, config) is (
        ContainmentOutcome.UNKNOWN
    )
    bounded = ContainmentConfig(max_steps=2_000, max_depth=2, check_interval=7)
    assert contained_under_tgds(left, deep, tgds, bounded) is ContainmentOutcome.UNKNOWN


def test_a_paused_run_is_freed_by_reference_counting():
    # The suspended loop must not point back at its run: a reference cycle
    # would keep every truncated chase alive until the cycle collector ran.
    instance, texts, _ = CASES["chain"]
    gc.disable()
    try:
        run = ChaseRun(instance, [parse_tgd(t) for t in texts])
        run.advance(5)
        alive = weakref.ref(run)
        del run
        assert alive() is None
    finally:
        gc.enable()
