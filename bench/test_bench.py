"""Checks of the benchmark itself: ``python -m pytest bench -q``.

Each workload runs end to end at ``--smoke`` size (seconds), traced and
untraced; failure accounting, environment hygiene, input generation and
``compare.py`` are checked in-process.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(run.WORKLOADS)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def bench(*arguments, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    done = bench("--smoke", "--workload", workload, "--trace", "0")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    names = [m["name"] for m in spec()["end_to_end"]]
    assert sorted(line["metrics"]) == sorted(names)
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_trace_reports_every_per_layer_metric(workload):
    done = bench("--smoke", "--workload", workload, "--trace")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"]
    assert sorted(line["metrics"]) == sorted(m["name"] for m in spec()["per_layer"])
    assert line["metrics"]["trace.coverage"]["value"] >= 0.9
    results_path = done.stdout.strip().splitlines()[-2].split("results: ", 1)[1]
    with open(os.path.join(ROOT, results_path)) as handle:
        result = json.load(handle)["workloads"][workload]
    # Every metric is measured or missing with a reason, never silently absent.
    assert set(result["per_layer"]) | set(result["missing"]) >= set(line["metrics"])
    assert all(result["missing"].values())
    with open(os.path.join(ROOT, result["trace_file"])) as handle:
        trace_document = json.load(handle)
    assert trace_document["spans"] and not trace_document["missing"]


def _failing_session(fault):
    session = workloads.ServeScan(1, workloads.SMOKE)
    session.setup()
    service = session.service
    submit = service.submit

    def faulty(query, **kwargs):
        answers = submit(query, **kwargs)
        if fault == "raise":
            raise RuntimeError("injected")
        answers.pop()
        return answers

    service.submit = faulty
    return session


@pytest.mark.parametrize("fault", ["drop", "raise"])
def test_wrong_answers_and_exceptions_land_in_ops_failed(fault):
    loop = worker.measure(_failing_session(fault), 3)
    assert loop.attempted >= 3
    assert loop.failed == loop.attempted
    assert loop.failures


def test_a_correct_session_fails_nothing():
    session = workloads.ServeMixed(1, workloads.SMOKE)
    warmed = session.setup()
    assert [op.check(answer) for op, answer in warmed] == [None] * len(warmed)
    loop = worker.measure(session, 300)
    assert loop.attempted == 300 and loop.failed == 0, loop.failures
    # Every block asks for the same mix: 80 reads and 20 writes.
    assert [reads for reads, _ in loop.blocks] == [80] * 3
    assert len(loop.samples["write"]) == 60 and not loop.pending


def test_point_reads_come_in_balanced_rounds():
    classes = workloads.ServePoint(1, workloads.SMOKE).classes
    warm = set(classes.warm_classes())
    for _ in range(3):
        dealt = [classes.next() for _ in range(workloads.ROUND_READS)]
        shapes = [shape for shape, _ in dealt]
        assert all(shapes.count(shape) == 2 for shape in workloads.SHAPES)
        assert sum(chosen not in warm for chosen in dealt) == workloads.COLD_PER_ROUND


def test_timings_are_scaled_to_the_reference_speed(monkeypatch):
    # The reference join takes twice its frozen time before and after the
    # operations: the host ran at half speed, so they count half.
    monkeypatch.setattr(worker, "reference_seconds", lambda: 2 * worker.REFERENCE_S)
    loop = worker.Loop()
    ops = [workloads.Op("read", None, None), workloads.Op("write", None, None)]
    loop.record(ops[0], 0.004, None)
    loop.record(ops[1], 0.002, None)
    assert loop.settle() == pytest.approx(0.003)
    assert loop.samples == {"read": [pytest.approx(0.002)], "write": [pytest.approx(0.001)]}
    assert loop.references == [2 * worker.REFERENCE_S]


def test_worker_env_drops_inherited_settings(monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "1")
    monkeypatch.setenv("REPRO_PLANNER", "greedy")
    monkeypatch.setenv("BENCH_SMOKE", "1")
    env = run.worker_env("serve_scan")
    assert not [k for k in env if k.startswith("BENCH_")]
    assert {k: v for k, v in env.items() if k.startswith("REPRO_")} == run.WORKLOADS[
        "serve_scan"]["env"]


def test_chain_inputs_replay_the_program_generator():
    from repro.workloads.generators import yannakakis_scaling_workload

    _, database = yannakakis_scaling_workload(2_000, layers=4, fanout=2, seed=5)
    session = workloads.ServePoint(5, workloads.SMOKE)
    assert set(session.atoms) == set(database)


def test_cold_database_satisfies_every_family():
    from repro import Database, chase, parse_tgd

    session = workloads.ColdTgds(3, workloads.SMOKE)
    tgds = [parse_tgd(t) for texts in workloads.TGD_FAMILIES.values() for t in texts]
    result = chase(Database(session.atoms), tgds, max_steps=100)
    assert result.terminated and result.step_count == 0


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    done = bench("--smoke", "--workload", "serve_point", cwd=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()


def _document(values, failed=0):
    metric = {
        "value": sorted(values)[1], "unit": "ms", "better": "lower", "bound": 0.1,
        "runs": values, "quartiles": [min(values), max(values)], "samples": 100,
    }
    workload = {"ops_attempted": 100, "ops_failed": failed, "metrics": {"query_p50_ms": metric}}
    return {"mode": "measure", "workloads": {"serve_point": workload}}


def test_compare_verdicts():
    same = compare.compare(_document([1.0, 1.01, 1.02]), _document([1.0, 1.01, 1.02]))
    assert {row[2] for row in same} == {"unchanged"}
    worse = compare.compare(_document([1.0, 1.01, 1.02]), _document([1.3, 1.31, 1.32]))
    assert [row[2] for row in worse if row[1] == "query_p50_ms"] == ["worse"]
    noisy = compare.compare(_document([0.8, 1.0, 1.2]), _document([0.85, 1.05, 1.3]))
    assert [row[2] for row in noisy if row[1] == "query_p50_ms"] == ["unresolved"]
    # Noisy, and B loses every repeat: worse only if the medians are also
    # further apart than the bound.
    far = compare.compare(_document([1.0, 1.02, 1.5]), _document([1.51, 1.52, 1.53]))
    assert [row[2] for row in far if row[1] == "query_p50_ms"] == ["worse"]
    close = compare.compare(_document([0.7, 1.0, 1.01]), _document([1.02, 1.03, 1.04]))
    assert [row[2] for row in close if row[1] == "query_p50_ms"] == ["unresolved"]
    failing = compare.compare(_document([1.0, 1.0, 1.0]), _document([1.0, 1.0, 1.0], 1))
    assert [row[2] for row in failing if row[1] == "failure_rate"] == ["worse"]


def test_every_workload_reports_query_p50_and_p90():
    for settings in run.WORKLOADS.values():
        assert {"query_p50_ms", "query_p90_ms"} <= set(settings["extra"])
