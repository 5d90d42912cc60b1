"""E5 — Proposition 12 / Theorem 11: guarded tgds preserve acyclicity; SemAc(G).

Paper claims: (i) chasing an acyclic CQ with a guarded set keeps the result
acyclic (the guarded chase forest is a join tree of the chase), and (ii) the
SemAc(G) decision procedure guesses an acyclic witness of size ≤ 2|q|.  The
benchmark measures acyclicity preservation over random acyclic queries and
the decision procedure over a growing guarded instance family, and runs the
restricted-vs-oblivious chase ablation called out in DESIGN.md.

The search benchmark (``make bench-semac``) times the decision on four
families of cyclic shapes: ``guarded`` E-triangles with pendants that a
self-loop rule folds, ``closing`` k-cycles whose first k-1 edges imply the
closing one, ``plain`` N-cycles with pendants that no rule can make
acyclic (every candidate fails), and ``unreachable``, the same N-cycles
under a rule that derives only unary atoms outside the query's
predicates, so the core decides them without a search.  For each shape it
records the decision time (median and quartiles) and
``candidates_checked`` of the decider and of the unpruned reference in
``tests/helpers/unpruned_semac.py``, with the host, into
``BENCH_semac_search.json``.  ``BENCH_SMOKE=1`` keeps one shape
per family and two repeats, and writes no snapshot.
"""

from typing import List, Tuple

import pytest

from repro.chase import chase_query, guarded_chase_join_tree, tgd_chase_preserves_acyclicity
from repro.core import SemAcConfig, decide_semantic_acyclicity_tgds
from repro.hypergraph import instance_connectors, is_valid_join_tree
from repro.parser import parse_query, parse_tgd
from repro.workloads import random_acyclic_query, random_guarded_tgds, random_schema
from conftest import (
    BenchSnapshot,
    fmt,
    interleaved,
    print_series,
    scaled_sizes,
    smoke_mode,
    summary,
)
from helpers.unpruned_semac import decide_tgds_unpruned


@pytest.mark.parametrize("seed", scaled_sizes([0, 1, 2], [0]))
def test_guarded_chase_preserves_acyclicity(benchmark, seed):
    schema = random_schema(seed=seed, predicate_count=3, max_arity=3)
    query = random_acyclic_query(seed=seed, schema=schema, atom_count=5)
    tgds = random_guarded_tgds(seed=seed, schema=schema, count=3)

    report = benchmark(
        lambda: tgd_chase_preserves_acyclicity(query, tgds, max_steps=400, max_depth=3)
    )

    tree, forest = guarded_chase_join_tree(query, tgds, max_steps=400, max_depth=3)
    print_series(
        f"E5: guarded preservation (seed {seed})",
        [
            ("query acyclic", report.query_acyclic),
            ("chase acyclic", report.chase_acyclic),
            ("chase size", report.chase_size),
            ("explicit join tree of the chase is valid",
             is_valid_join_tree(tree, forest.chase.instance.sorted_atoms(), instance_connectors)),
        ],
    )
    assert report.preserved


def _triangle_with_loop_rules(extra_edges: int):
    """A cyclic query plus linear tgds making it equivalent to a single edge."""
    atoms = ["E(x, y)", "E(y, z)", "E(z, x)"]
    for index in range(extra_edges):
        atoms.append(f"E(x, w{index})")
    query = parse_query(", ".join(atoms))
    tgds = [parse_tgd("E(x, y) -> A(x)"), parse_tgd("A(x) -> E(x, x)")]
    return query, tgds


@pytest.mark.parametrize("extra_edges", scaled_sizes([0, 2, 4], [0, 2]))
def test_semac_guarded_scaling_in_query_size(benchmark, extra_edges):
    query, tgds = _triangle_with_loop_rules(extra_edges)

    decision = benchmark(lambda: decide_semantic_acyclicity_tgds(query, tgds))

    print_series(
        f"E5: SemAc(G) with |q| = {len(query)}",
        [
            ("semantically acyclic", decision.semantically_acyclic),
            ("witness size", len(decision.witness) if decision.witness else None),
            ("size bound 2|q|", decision.size_bound),
            ("candidates checked", decision.candidates_checked),
        ],
    )
    assert decision.semantically_acyclic
    assert decision.witness.is_acyclic()


@pytest.mark.parametrize("variant", ["restricted", "oblivious"])
def test_ablation_restricted_vs_oblivious_chase(benchmark, variant):
    query, tgds = _triangle_with_loop_rules(2)

    result, _ = benchmark(
        lambda: chase_query(query, tgds, variant=variant, max_steps=2_000)
    )

    print_series(
        f"E5 ablation: {variant} chase",
        [("chase size", len(result.instance)), ("steps", result.step_count)],
    )


# ----------------------------------------------------------------------
# The reformulation search on guarded, closing, plain and unreachable shapes
# ----------------------------------------------------------------------
SEARCH_REPEATS = 2 if smoke_mode() else 7

SEARCH_TGDS = {
    "guarded": ("E(x, y) -> A(x)", "A(x) -> E(x, x)"),
    "closing": tuple(
        ", ".join(f"R{k}_{i}(x{i}, x{i + 1})" for i in range(1, k)) + f" -> R{k}_{k}(x{k}, x1)"
        for k in (3, 4, 5)
    ),
    "plain": ("N(x, y) -> T(x, y, z)",),
    "unreachable": ("N(x, y) -> B(x)",),
}


def _cycle_with_pendants(predicate: str, length: int, pendants: int) -> str:
    """A ``predicate``-cycle on ``v0..`` with pendants alternating out and in."""
    atoms = [f"{predicate}(v{i}, v{(i + 1) % length})" for i in range(length)]
    for i in range(pendants):
        vertex, pendant = f"v{i % length}", f"p{i}"
        atoms.append(
            f"{predicate}({vertex}, {pendant})" if i % 2 == 0 else f"{predicate}({pendant}, {vertex})"
        )
    return f"q(v0) :- {', '.join(atoms)}"


def _closing_cycle(k: int) -> str:
    atoms = [f"R{k}_{i + 1}(v{i}, v{(i + 1) % k})" for i in range(k)]
    return f"q(v0, v1) :- {', '.join(atoms)}"


def search_shapes() -> List[Tuple[str, str, str]]:
    """(family, name, query text) of every shape, one per family when smoke."""
    guarded = [("guarded", f"triangle+{p}", _cycle_with_pendants("E", 3, p)) for p in (0, 2, 4)]
    closing = [("closing", f"{k}-cycle", _closing_cycle(k)) for k in (3, 4, 5)]
    plain, unreachable = (
        [
            (family, f"{k}-cycle+{p}", _cycle_with_pendants("N", k, p))
            for k in (3, 4, 5)
            for p in (0, 1, 2)
        ]
        for family in ("plain", "unreachable")
    )
    if smoke_mode():
        return [guarded[0], closing[0], plain[0], unreachable[0]]
    return guarded + closing + plain + unreachable


def test_semac_search_on_guarded_closing_and_plain_shapes():
    rows = []
    for family, name, text in search_shapes():
        query = parse_query(text)
        tgds = [parse_tgd(rule) for rule in SEARCH_TGDS[family]]
        config = SemAcConfig()
        runs = {
            "pruned": lambda: decide_semantic_acyclicity_tgds(query, tgds, config),
            "reference": lambda: decide_tgds_unpruned(query, tgds, config),
        }
        pruned, reference = runs["pruned"](), runs["reference"]()
        samples = interleaved(runs, SEARCH_REPEATS, per=1e-3)
        acyclic = family in ("guarded", "closing")
        assert pruned.semantically_acyclic == reference.semantically_acyclic == acyclic
        if family == "unreachable":
            assert (pruned.method, pruned.candidates_checked, pruned.exhaustive) == ("core", 1, True)
        assert str(pruned.witness) == str(reference.witness)
        assert pruned.candidates_checked <= reference.candidates_checked
        rows.append(
            {
                "family": family,
                "shape": name,
                "atoms": len(query),
                "decision_ms": summary(samples["pruned"]),
                "candidates_checked": pruned.candidates_checked,
                "unpruned_decision_ms": summary(samples["reference"]),
                "unpruned_candidates_checked": reference.candidates_checked,
            }
        )

    print_series(
        f"SemAc search per shape (median ms of {SEARCH_REPEATS})",
        [
            (
                row["family"],
                row["shape"],
                fmt(row["decision_ms"]["median"], digits=2),
                row["candidates_checked"],
                fmt(row["unpruned_decision_ms"]["median"], digits=2),
                row["unpruned_candidates_checked"],
            )
            for row in rows
        ],
        header=("family", "shape", "ms", "checked", "unpruned ms", "unpruned checked"),
    )
    snapshot = BenchSnapshot("semac_search")
    snapshot.record("repeats", SEARCH_REPEATS)
    for row in rows:
        snapshot.add_row("shapes", row)
    snapshot.write()

    if smoke_mode():
        return
    # A plain k-cycle fails on its k maximal acyclic subqueries, and the
    # lattice rules out every other candidate.
    for row in rows:
        if row["family"] == "plain":
            assert row["candidates_checked"] == int(row["shape"].split("-")[0])
