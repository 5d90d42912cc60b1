"""E12b — the cover-game propagation complexity gap, round-based vs worklist.

The existential 1-cover game (Lemma 28 / Proposition 29) is the paper's
constraint-free evaluation route for semantically acyclic CQs under guarded
tgds (Theorem 25).  The original fixpoint re-derived every atom's surviving
image set from scratch each round, touching every (image, neighbour,
neighbour-image) triple per round; the AC-4-style worklist engine
(:mod:`repro.evaluation.cover_game`) counts supports per shared-key bucket
and touches each support pair O(1) times.

This benchmark runs both engines on the layered decoy workload of
:func:`repro.workloads.generators.cover_game_scaling_workload` — dead-ending
decoy chains force a deletion cascade across every layer — at doubling
database sizes and reports, per size, the runtime and the growth factor
relative to the previous size.  Expected shape:

* naive round-based engine: growth factor ≈ 4 per doubling (each round is
  quadratic in ``|D|`` and the cascade depth adds rounds);
* worklist engine: growth factor < 3 per doubling (≈ linear).

Both engines are also cross-checked on a panel of membership probes (the
pure chain query plus chain queries pinned to a reachable and to an
unreachable constant) at every size, so the benchmark doubles as a
differential test — including of the constant-pebble bugfix.

Run standalone with ``pytest benchmarks/bench_cover_game_scaling.py -s``.
``BENCH_SMOKE=1`` shrinks the sizes to milliseconds and skips the timing
assertions (tiny inputs are noise-dominated); the tier-1 suite uses that
mode to keep this file executable in CI.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from helpers.cover_game_naive import existential_one_cover_naive
from repro.datamodel import Atom, Constant, Predicate, Variable
from repro.evaluation import membership_generic, membership_via_cover_game_guarded
from repro.queries.cq import ConjunctiveQuery
from repro.reporting import BenchSnapshot
from repro.workloads.generators import cover_game_scaling_workload
from conftest import print_series, scaled_sizes, smoke_mode


FULL_SIZES = [400, 800, 1600, 3200]
SMOKE_SIZES = [60, 120]
SIZES = scaled_sizes(FULL_SIZES, SMOKE_SIZES)

LAYERS = 4

#: Acceptance thresholds (see ISSUE 2): the worklist engine's per-doubling
#: growth factor must stay strictly below the naive engine's, and under this
#: absolute bound (quadratic would be ≈ 4×).
MAX_LINEAR_GROWTH = 3.0


def _probe_queries(layers: int = LAYERS) -> List[Tuple[str, ConjunctiveQuery]]:
    """The membership probe panel: pure chain, reachable pin, unreachable pin.

    The pinned variants replace the chain's last variable by a constant —
    the spine's final node (always reachable) and a layer-0 node (never a
    target of the final relation) — exercising the constant-pebble path of
    the game on both a positive and a negative instance.
    """
    variables = [Variable(f"x{i}") for i in range(layers + 1)]
    chain = [
        Atom(Predicate(f"S{i + 1}", 2), (variables[i], variables[i + 1]))
        for i in range(layers)
    ]

    def pinned(target: Constant) -> List[Atom]:
        return chain[:-1] + [
            Atom(Predicate(f"S{layers}", 2), (variables[layers - 1], target))
        ]

    return [
        ("chain", ConjunctiveQuery((), chain, name="probe_chain")),
        (
            "pin-reachable",
            ConjunctiveQuery((), pinned(Constant(f"L{layers}_0")), name="probe_hit"),
        ),
        (
            "pin-unreachable",
            ConjunctiveQuery((), pinned(Constant("L0_0")), name="probe_miss"),
        ),
    ]


def _best_of(run, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of ``run()`` (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def run_scaling(
    sizes: Sequence[int] = SIZES,
    layers: int = LAYERS,
    fanout: int = 2,
    seed: int = 0,
    include_naive: bool = True,
    repeats: int = 3,
) -> List[Dict[str, object]]:
    """Time both engines at each size; return one row of measurements per size.

    Every row also records whether the two engines agreed on the whole
    membership probe panel, so the benchmark doubles as a differential test
    on large inputs; at the smallest size the probes are additionally
    checked against the generic homomorphism oracle.
    """
    probes = _probe_queries(layers)
    rows: List[Dict[str, object]] = []
    for size in sizes:
        query, database = cover_game_scaling_workload(
            size, layers=layers, fanout=fanout, seed=seed
        )
        wins = membership_via_cover_game_guarded(query, database)
        worklist_time = _best_of(
            lambda: membership_via_cover_game_guarded(query, database),
            repeats,
        )

        naive_time: Optional[float] = None
        answers_agree = True
        if include_naive:
            # Single timed run: the naive engine is seconds-slow at the
            # larger sizes, where timer noise is negligible anyway — and the
            # run doubles as the differential check on the main query.
            start = time.perf_counter()
            naive_wins = membership_via_cover_game_guarded(
                query, database, engine=existential_one_cover_naive
            )
            naive_time = time.perf_counter() - start
            answers_agree = naive_wins == wins
            for label, probe in probes:
                worklist_answer = membership_via_cover_game_guarded(probe, database)
                naive_answer = membership_via_cover_game_guarded(
                    probe, database, engine=existential_one_cover_naive
                )
                agree = worklist_answer == naive_answer
                if size == min(sizes):
                    # The probes are acyclic chains, so the game must equal
                    # plain membership (Lemma 32 degenerate case).
                    agree = agree and worklist_answer == membership_generic(
                        probe, database, ()
                    )
                answers_agree = answers_agree and agree

        rows.append(
            {
                "size": len(database),
                "wins": wins,
                "worklist_time": worklist_time,
                "naive_time": naive_time,
                "answers_agree": answers_agree,
            }
        )
    return rows


def _growth(rows: List[Dict[str, object]], key: str) -> List[Optional[float]]:
    factors: List[Optional[float]] = [None]
    for previous, current in zip(rows, rows[1:]):
        if previous[key] and current[key] is not None:
            factors.append(current[key] / previous[key])  # type: ignore[operator]
        else:
            factors.append(None)
    return factors


def _format(value: Optional[float], unit: str = "") -> str:
    return "—" if value is None else f"{value:.4f}{unit}"


def test_worklist_engine_outgrows_naive_engine():
    rows = run_scaling()
    worklist_growth = _growth(rows, "worklist_time")
    naive_growth = _growth(rows, "naive_time")
    print_series(
        "E12b: cover-game scaling (worklist supports vs round-based fixpoint)",
        [
            (
                row["size"],
                row["wins"],
                _format(row["worklist_time"], "s"),
                _format(wg, "×"),
                _format(row["naive_time"], "s"),
                _format(ng, "×"),
            )
            for row, wg, ng in zip(rows, worklist_growth, naive_growth)
        ],
        header=["|D|", "wins", "worklist", "growth", "naive", "growth"],
    )
    largest = rows[-1]
    speedup = largest["naive_time"] / largest["worklist_time"]  # type: ignore[operator]
    print(f"    speedup at |D| = {largest['size']}: {speedup:.1f}×")

    # The differential probe panel must agree at every size, smoke or not.
    for row in rows:
        assert row["answers_agree"], f"engines disagreed at |D| = {row['size']}"

    snapshot = BenchSnapshot("cover_game_scaling")
    snapshot.record("sizes", [row["size"] for row in rows])
    snapshot.record("worklist_growth", worklist_growth)
    snapshot.record("naive_growth", naive_growth)
    snapshot.record("speedup_at_largest", speedup)
    for row in rows:
        snapshot.add_row("curve", row)
    snapshot.write()

    if smoke_mode():
        return  # tiny inputs are noise-dominated; correctness was checked above

    # Per-doubling growth: the worklist engine must stay ≈ linear and
    # strictly below the round-based engine on every step.
    for worklist_factor, naive_factor in zip(worklist_growth[1:], naive_growth[1:]):
        assert worklist_factor is not None and naive_factor is not None
        assert worklist_factor < MAX_LINEAR_GROWTH, (
            f"worklist engine grew {worklist_factor:.2f}× on a doubling "
            f"(expected < {MAX_LINEAR_GROWTH}×)"
        )
        assert worklist_factor < naive_factor, (
            f"worklist growth {worklist_factor:.2f}× not below naive growth "
            f"{naive_factor:.2f}×"
        )


@pytest.mark.parametrize("size", SIZES)
def test_worklist_engine_throughput(benchmark, size):
    query, database = cover_game_scaling_workload(size, layers=LAYERS)
    wins = benchmark(
        lambda: membership_via_cover_game_guarded(query, database)
    )
    print_series(
        f"E12b: worklist engine, |D| = {len(database)}",
        [("duplicator wins", wins)],
    )
    # The spine guarantees the chain query always holds.
    assert wins
