"""Streaming vs materialising phase 4: time-to-first-answer and delay.

The streaming enumerator
(:meth:`repro.evaluation.yannakakis.YannakakisEvaluator.iter_answers`)
exists for the wide-output regime: queries whose answer set dwarfs their
database, where a materialising phase 4 pays for the *entire* output before
returning anything.  This benchmark runs both forms on the free-star
workload of :func:`repro.workloads.generators.wide_output_workload` — the
database stays essentially constant while the answer count grows
geometrically with the ray count — and reports, per size:

* ``materialise`` — wall time of ``evaluate()`` (full answer set);
* ``tuple`` / ``ratio`` — the same materialising plan on the tuple-at-a-time
  oracle (``tests/helpers/tuple_engine.py``), and its time over the
  engine's;
* ``first`` — wall time until ``next(iter_answers(...))`` returns the first
  answer (the semi-join passes plus one bucket probe per chain join);
* ``delay`` — mean inter-answer delay of the streaming path over the first
  ``DELAY_SAMPLE`` answers;
* ``drain`` — wall time of the full stream, ``list(iter_answers(...))``;
* ``probes first/mat`` — deterministic :class:`Partition.get` bucket-probe
  counts (see :attr:`repro.evaluation.relation.Partition.total_probes`) for
  the first streamed answer vs the materialising run — the timing claim,
  restated without a clock.

A second series, ``head in one node``, runs the same stars with the head
cut to the first ray, ``q(x_1)``.  That head lies inside one join-tree
node, so the evaluator roots the tree there and both faces run one plan:
the upward semi-join pass, projected onto the head.  It reports the
first-answer and full-drain times and bucket probes of ``iter_answers``
(the stream iterates the projection, so the first answer costs what the
drain costs).  Its probes read 0: the plan has no hash join, and semi-join
membership checks are not probe-counted.

Expected shape: ``materialise`` grows with the output while ``first`` stays
(near-)flat and ``delay`` stays bounded, so the streaming advantage at the
largest size is output-sized.  Every size cross-checks streamed against
materialised answers (capped at :data:`CROSSCHECK_CAP` answers), so the
benchmark doubles as a differential test on large outputs.

Run standalone with ``pytest benchmarks/bench_enumeration.py -s`` (or
``make bench-enum``).  ``BENCH_SMOKE=1`` shrinks the workload to
milliseconds and skips the timing assertions (tiny inputs are
noise-dominated); the tier-1 suite uses that mode to keep this file
executable in CI.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List, Optional, Sequence

import pytest

from helpers import tuple_engine
from repro.evaluation import YannakakisEvaluator
from repro.evaluation.relation import Partition
from repro.reporting import BenchSnapshot
from repro.queries.cq import ConjunctiveQuery
from repro.workloads.generators import wide_output_workload
from conftest import host_metadata, print_series, scaled_sizes, smoke_mode


FULL_RAYS = [2, 3, 4]
SMOKE_RAYS = [2, 3]
RAYS = scaled_sizes(FULL_RAYS, SMOKE_RAYS)

FULL_WIDTH = 24
SMOKE_WIDTH = 4
WIDTH = SMOKE_WIDTH if smoke_mode() else FULL_WIDTH

#: Full set-equality cross-check cap: above this the streamed prefix is
#: checked for distinctness and containment instead (keeps the benchmark's
#: own runtime bounded while still differential-testing every size).
CROSSCHECK_CAP = 50_000

#: How many streamed answers the inter-answer-delay measurement consumes.
DELAY_SAMPLE = 1_000

#: Acceptance thresholds (see ISSUE 4): time-to-first-answer must stay
#: near-flat across sizes (the database barely grows) while the
#: materialising path must grow with the output, and at the largest size
#: the first streamed answer must beat full materialisation by a wide
#: margin.
MAX_FIRST_ANSWER_GROWTH = 5.0
MIN_MATERIALISE_GROWTH = 20.0
MIN_FIRST_ANSWER_SPEEDUP = 10.0


def _best_of(run, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of ``run()`` (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _probed(run) -> int:
    """The :class:`Partition` bucket probes ``run()`` issues."""
    before = Partition.total_probes
    run()
    return Partition.total_probes - before


def run_enumeration(
    rays_list: Sequence[int] = RAYS,
    width: int = WIDTH,
    seed: int = 0,
    repeats: int = 3,
) -> List[Dict[str, object]]:
    """Measure streaming vs materialising phase 4 at each ray count.

    Every size cross-checks the streamed answers against ``evaluate()``
    (full set equality up to :data:`CROSSCHECK_CAP` answers, prefix
    distinctness + containment above) and checks ``limit=`` semantics, so
    the benchmark doubles as a differential test.
    """
    rows: List[Dict[str, object]] = []
    for rays in rays_list:
        query, database = wide_output_workload(rays, width=width, seed=seed)
        evaluator = YannakakisEvaluator(query)

        answers = evaluator.evaluate(database)
        assert len(answers) == width**rays
        if len(answers) <= CROSSCHECK_CAP:
            streamed = list(evaluator.iter_answers(database))
            assert len(streamed) == len(answers)  # no duplicates yielded
            assert set(streamed) == answers
        else:
            prefix = list(
                itertools.islice(evaluator.iter_answers(database), 2_000)
            )
            assert len(set(prefix)) == len(prefix)
            assert set(prefix) <= answers
        limited = list(evaluator.iter_answers(database, limit=5))
        assert len(limited) == min(5, len(answers))

        materialise_time = _best_of(lambda: evaluator.evaluate(database), repeats)
        first_time = _best_of(
            lambda: next(evaluator.iter_answers(database)), repeats
        )

        # The tuple oracle on the same materialising plan: cross-checks the
        # answers and measures what the columnar engine saves.
        assert tuple_engine.evaluate(evaluator, database) == answers
        tuple_time = _best_of(
            lambda: tuple_engine.evaluate(evaluator, database), repeats
        )

        sample = min(DELAY_SAMPLE, len(answers))
        start = time.perf_counter()
        consumed = sum(
            1 for _ in evaluator.iter_answers(database, limit=sample)
        )
        sample_time = time.perf_counter() - start
        assert consumed == sample
        delay = max(0.0, sample_time - first_time) / max(1, sample - 1)
        drain_time = _best_of(lambda: list(evaluator.iter_answers(database)), repeats)

        materialise_probes = _probed(lambda: evaluator.evaluate(database))
        first_probes = _probed(lambda: next(evaluator.iter_answers(database)))

        rows.append(
            {
                "rays": rays,
                "db": len(database),
                "answers": len(answers),
                "materialise_time": materialise_time,
                "tuple_time": tuple_time,
                "oracle_ratio": tuple_time / materialise_time,
                "first_time": first_time,
                "delay": delay,
                "drain_time": drain_time,
                "materialise_probes": materialise_probes,
                "first_probes": first_probes,
            }
        )
    return rows


def run_head_in_one_node(
    rays_list: Sequence[int] = RAYS,
    width: int = WIDTH,
    seed: int = 0,
    repeats: int = 3,
) -> List[Dict[str, object]]:
    """The stars of :func:`run_enumeration` with the head cut to ``(x_1)``.

    The head then fits in the first ray's node, so the stream iterates the
    answer plan (the upward pass projected onto ``x_1``), not a join chain.
    """
    rows: List[Dict[str, object]] = []
    for rays in rays_list:
        star, database = wide_output_workload(rays, width=width, seed=seed)
        query = ConjunctiveQuery(star.head[:1], star.body, name="one_ray")
        evaluator = YannakakisEvaluator(query)
        assert evaluator.compile_stream_plan() is evaluator.compile_answer_plan()

        answers = evaluator.evaluate(database)
        assert len(answers) == width
        streamed = list(evaluator.iter_answers(database))
        assert len(streamed) == len(answers) and set(streamed) == answers
        rows.append(
            {
                "rays": rays,
                "db": len(database),
                "answers": len(answers),
                "first_time": _best_of(
                    lambda: next(evaluator.iter_answers(database)), repeats
                ),
                "drain_time": _best_of(
                    lambda: list(evaluator.iter_answers(database)), repeats
                ),
                "first_probes": _probed(lambda: next(evaluator.iter_answers(database))),
                "drain_probes": _probed(lambda: list(evaluator.iter_answers(database))),
            }
        )
    return rows


def _format(value: Optional[float], unit: str = "") -> str:
    return "—" if value is None else f"{value:.6f}{unit}"


def test_streaming_first_answer_flat_materialising_grows():
    rows = run_enumeration()
    print_series(
        f"Streaming vs materialising phase 4 (wide-output star, width = {WIDTH})",
        [
            (
                row["rays"],
                row["db"],
                row["answers"],
                _format(row["materialise_time"], "s"),
                _format(row["tuple_time"], "s"),
                f"{row['oracle_ratio']:.2f}×",
                _format(row["first_time"], "s"),
                _format(row["delay"], "s"),
                _format(row["drain_time"], "s"),
                f"{row['first_probes']}/{row['materialise_probes']}",
            )
            for row in rows
        ],
        header=[
            "rays",
            "|D|",
            "answers",
            "materialise",
            "tuple",
            "ratio",
            "first answer",
            "delay",
            "drain",
            "probes first/mat",
        ],
    )
    one_node = run_head_in_one_node()
    print_series(
        f"Head in one node: the star's head cut to x_1 (width = {WIDTH})",
        [
            (
                row["rays"],
                row["db"],
                row["answers"],
                _format(row["first_time"], "s"),
                _format(row["drain_time"], "s"),
                f"{row['first_probes']}/{row['drain_probes']}",
            )
            for row in one_node
        ],
        header=["rays", "|D|", "answers", "first answer", "drain", "probes first/drain"],
    )
    snapshot = BenchSnapshot("enumeration")
    snapshot.record("host", host_metadata())
    for row in one_node:
        snapshot.add_row("head_in_one_node", row)
    snapshot.record("rays", [row["rays"] for row in rows])
    snapshot.record("answers", [row["answers"] for row in rows])
    snapshot.record("oracle_ratios", [row["oracle_ratio"] for row in rows])
    snapshot.record(
        "first_probes", [row["first_probes"] for row in rows]
    )
    snapshot.record(
        "materialise_probes", [row["materialise_probes"] for row in rows]
    )
    for row in rows:
        snapshot.add_row("curve", row)
    snapshot.write()
    smallest, largest = rows[0], rows[-1]
    print(
        f"    first-answer speedup over materialising at {largest['answers']} "
        f"answers: {largest['materialise_time'] / largest['first_time']:.1f}×"
    )

    # The probe counts are deterministic, so they are asserted even in smoke
    # mode: the first streamed answer touches O(join-tree) buckets — far
    # fewer than the materialising run, and not growing with the output.
    for row in rows:
        assert row["first_probes"] <= 4 * row["rays"]  # type: ignore[operator]
        assert row["first_probes"] <= row["materialise_probes"] // 2  # type: ignore[operator]

    if smoke_mode():
        return  # tiny inputs are noise-dominated; correctness was checked above

    first_growth = largest["first_time"] / smallest["first_time"]  # type: ignore[operator]
    assert first_growth <= MAX_FIRST_ANSWER_GROWTH, (
        f"time-to-first-answer grew {first_growth:.1f}× from {smallest['answers']} "
        f"to {largest['answers']} answers (expected ≤ {MAX_FIRST_ANSWER_GROWTH}× — "
        "near-flat)"
    )
    materialise_growth = largest["materialise_time"] / smallest["materialise_time"]  # type: ignore[operator]
    assert materialise_growth >= MIN_MATERIALISE_GROWTH, (
        f"materialising phase 4 only grew {materialise_growth:.1f}× while the "
        f"output grew {largest['answers'] / smallest['answers']:.0f}× "
        f"(expected ≥ {MIN_MATERIALISE_GROWTH}×)"
    )
    speedup = largest["materialise_time"] / largest["first_time"]  # type: ignore[operator]
    assert speedup >= MIN_FIRST_ANSWER_SPEEDUP, (
        f"first streamed answer only {speedup:.1f}× faster than full "
        f"materialisation at {largest['answers']} answers "
        f"(expected ≥ {MIN_FIRST_ANSWER_SPEEDUP}×)"
    )


@pytest.mark.parametrize("rays", RAYS)
def test_first_answer_latency(benchmark, rays):
    query, database = wide_output_workload(rays, width=WIDTH)
    evaluator = YannakakisEvaluator(query)
    first = benchmark(lambda: next(evaluator.iter_answers(database)))
    print_series(
        f"first streamed answer, rays = {rays}, |D| = {len(database)}",
        [("first answer", first)],
    )
    assert first in evaluator.evaluate(database)
