"""SemAc decisions on the paper's examples, pinned field by field.

The tgd decider reads ``q ⊆_Σ q'`` off its own chase of ``q`` instead of
re-chasing ``q`` per candidate, and the chase-sub-instance generator tests
subsets against an index of homomorphism images.  Neither may change what
the search does: the verdict, the witness and the method below were
recorded with the per-candidate chase and the per-subset homomorphism
search, and must stay exactly as they are.  The number of candidates
checked may only fall, and only where the decider skips candidates that
were certain to fail (a sub-instance below a refuted one, or a chase whose
homomorphism images are all cyclic graphs); ``marked_cycle`` checked 52
before that pruning.
The verifier's outcomes on the shared chase of ``q`` are checked directly:
``TRUE`` on a hit, ``FALSE`` on a miss only when that chase terminated,
``UNKNOWN`` otherwise.
"""

import pytest

from repro.chase import chase_query
from repro.core.semantic_acyclicity import (
    SemAcConfig,
    _TgdVerifier,
    decide_semantic_acyclicity,
)
from repro.parser import parse_query, parse_tgd
from repro.workloads.paper_examples import (
    example1_query,
    example1_tgd,
    example2_tgd,
    example4_chased_shape,
    example4_key,
    figure1_non_sticky_set,
    figure1_sticky_set,
    guarded_triangle_example,
    k2_collapse_example,
)


CASES = {
    "example1": lambda: (example1_query(), [example1_tgd()]),
    "guarded_triangle": guarded_triangle_example,
    "k2_collapse": k2_collapse_example,
    "example4_chased_shape": lambda: (example4_chased_shape(), [example4_key()]),
    "example2_cycle": lambda: (
        parse_query("q() :- R(x, y), R(y, z), R(z, x), P(x)"),
        [example2_tgd()],
    ),
    "figure1_sticky_cycle": lambda: (
        parse_query("q(x) :- R(x, y), P(y, z), R(z, x)"),
        figure1_sticky_set(),
    ),
    "figure1_non_sticky_cycle": lambda: (
        parse_query("q(x) :- R(x, y), P(y, z), R(z, x), T(x, y, w)"),
        figure1_non_sticky_set(),
    ),
    # A cycle no rule can break: the search runs through the chase
    # sub-instances and ends negative.
    "marked_cycle": lambda: (
        parse_query("q(a) :- N(a, b), N(b, c), N(c, d), N(d, a), N(a, p), N(r, b)"),
        [parse_tgd("N(x, y) -> T(x, y, z)")],
    ),
    # A guarded set whose chase never terminates: every containment on
    # the query side is read off a truncated chase.
    "guarded_non_terminating": lambda: (
        parse_query("q(x) :- E(x, y), E(y, z), E(z, x)"),
        [parse_tgd("E(x, y) -> E(y, w)"), parse_tgd("E(x, y) -> A(x)")],
    ),
}

CONFIGS = {
    "fast": SemAcConfig(chase_max_steps=300),
    "exhaustive": SemAcConfig(chase_max_steps=300, exhaustive=True),
}

#: (case, config) -> (verdict, witness, method, candidates_checked)
EXPECTED = {
    ('example1', 'fast'): (True, 'music_store_sub(x, y) :- Interest(x, z) ∧ Class(y, z)', 'fast/non-recursive', 1),
    ('example1', 'exhaustive'): (True, 'music_store_sub(x, y) :- Interest(x, z) ∧ Class(y, z)', 'fast/non-recursive', 1),
    ('guarded_triangle', 'fast'): (True, 'guarded_triangle_sub() :- E(x, y) ∧ E(y, z)', 'fast/guarded', 1),
    ('guarded_triangle', 'exhaustive'): (True, 'guarded_triangle_sub() :- E(x, y) ∧ E(y, z)', 'fast/guarded', 1),
    ('k2_collapse', 'fast'): (True, 'k2_collapse_img() :- A(Q0, Q1) ∧ B(Q1, Q1)', 'fast/egds', 7),
    ('k2_collapse', 'exhaustive'): (True, 'k2_collapse_img() :- A(Q0, Q1) ∧ B(Q1, Q1)', 'fast/egds', 7),
    ('example4_chased_shape', 'fast'): (False, None, 'search/egds', 13),
    ('example4_chased_shape', 'exhaustive'): (False, None, 'search/egds', 361),
    ('example2_cycle', 'fast'): (True, 'q_sub() :- R(x, y) ∧ R(y, z) ∧ P(x)', 'fast/non-recursive', 1),
    ('example2_cycle', 'exhaustive'): (True, 'q_sub() :- R(x, y) ∧ R(y, z) ∧ P(x)', 'fast/non-recursive', 1),
    ('figure1_sticky_cycle', 'fast'): (False, None, 'search/non-recursive', 5),
    ('figure1_sticky_cycle', 'exhaustive'): (False, None, 'search/non-recursive', 359),
    ('figure1_non_sticky_cycle', 'fast'): (False, None, 'search/non-recursive', 16),
    ('figure1_non_sticky_cycle', 'exhaustive'): (False, None, 'search/non-recursive', 373),
    ('guarded_non_terminating', 'fast'): (False, None, 'search/guarded', 5),
    ('marked_cycle', 'fast'): (False, None, 'search/guarded', 4),
}


@pytest.mark.parametrize("case, config", sorted(EXPECTED))
def test_decision_equals_the_recorded_one(case, config):
    query, constraints = CASES[case]()
    decision = decide_semantic_acyclicity(query, constraints, CONFIGS[config])
    witness = None if decision.witness is None else str(decision.witness)
    assert (
        decision.semantically_acyclic,
        witness,
        decision.method,
        decision.candidates_checked,
    ) == EXPECTED[case, config]



def verifier_on(query_text, tgd_texts, steps):
    query = parse_query(query_text)
    tgds = [parse_tgd(text) for text in tgd_texts]
    chase_result, freezing = chase_query(query, tgds, max_steps=steps)
    answer = tuple(freezing[v] for v in query.head)
    config = SemAcConfig(chase_max_steps=steps)
    return _TgdVerifier(query, tgds, config, "chase", chase_result, answer)


def test_query_side_outcomes_on_the_shared_chase():
    # Truncated chase of q: a hit is TRUE, a miss is UNKNOWN.
    verifier = verifier_on("q(x) :- R(x, y)", ["R(x, y) -> R(y, z)"], steps=5)
    assert verifier.query_contained_in_candidate(parse_query("q(a) :- R(a, b), R(b, c)"))
    assert not verifier.saw_unknown
    assert not verifier.query_contained_in_candidate(parse_query("q(a) :- S(a)"))
    assert verifier.saw_unknown
    # Terminated chase of q: a miss is FALSE.
    verifier = verifier_on("q(x) :- R(x, y)", ["R(x, y) -> P(x)"], steps=5)
    assert verifier.query_contained_in_candidate(parse_query("q(a) :- P(a)"))
    assert not verifier.query_contained_in_candidate(parse_query("q(a) :- S(a)"))
    assert not verifier.query_contained_in_candidate(parse_query("q(a, b) :- R(a, b)"))
    assert not verifier.saw_unknown
