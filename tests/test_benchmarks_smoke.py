"""Smoke-run the benchmark suite at tiny sizes from the tier-1 test run.

The files under ``benchmarks/`` are not collected by plain ``pytest`` (they
are named ``bench_*.py``), so an import error or a stale API use in a
benchmark would only surface at the next explicit benchmark run.  This
module imports every benchmark with ``BENCH_SMOKE=1`` (see
``benchmarks/conftest.py``) and executes the scaling benchmark's measurement
loop at toy sizes, keeping the whole check well under a second.  It also
pins the harness's snapshot writer, ``BenchSnapshot``: silent in smoke
runs, and a stable file with a host block otherwise.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest


BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
BENCHMARK_FILES = sorted(p.name for p in BENCHMARKS_DIR.glob("bench_*.py"))


def _load_module(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        # Never leave a half-initialised module registered (later imports
        # of e.g. "conftest" would pick up the broken one).
        sys.modules.pop(name, None)
        raise
    return module


@pytest.fixture
def smoke_benchmarks(monkeypatch):
    """Import machinery for the benchmark modules, in smoke mode.

    The benchmark modules do ``from conftest import ...`` expecting
    *their* conftest; pytest may already hold a different module under that
    name, so the benchmarks' conftest is loaded explicitly and temporarily
    installed as ``conftest``.
    """
    monkeypatch.setenv("BENCH_SMOKE", "1")
    monkeypatch.syspath_prepend(str(BENCHMARKS_DIR))
    saved = sys.modules.get("conftest")
    _load_module(BENCHMARKS_DIR / "conftest.py", "conftest")

    loaded = []

    def load(filename: str):
        name = f"_bench_smoke_{filename[:-3]}"
        module = _load_module(BENCHMARKS_DIR / filename, name)
        loaded.append(name)
        return module

    try:
        yield load
    finally:
        for name in loaded:
            sys.modules.pop(name, None)
        if saved is not None:
            sys.modules["conftest"] = saved
        else:
            sys.modules.pop("conftest", None)


@pytest.fixture
def harness(smoke_benchmarks, monkeypatch, tmp_path):
    """``benchmarks/conftest.py`` in smoke mode, run from an empty directory
    and with no snapshot directory set."""
    monkeypatch.delenv("BENCH_SNAPSHOT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    return sys.modules["conftest"]


def _snapshot(harness):
    snapshot = harness.BenchSnapshot("probe")
    snapshot.record("sizes", [3, 1, 2])
    snapshot.add_row("curve", {"size": 1, "time": 0.5})
    return snapshot


def test_smoke_runs_write_no_snapshot(harness, tmp_path):
    assert _snapshot(harness).write() is None
    assert list(tmp_path.iterdir()) == []


def test_a_snapshot_carries_its_host_with_sorted_keys(harness, monkeypatch, tmp_path):
    monkeypatch.setenv("BENCH_SNAPSHOT_DIR", str(tmp_path / "snapshots"))
    path = _snapshot(harness).write()
    assert path == tmp_path / "snapshots" / "BENCH_probe.json"
    text = path.read_text()
    payload = json.loads(text)
    assert text.endswith("}\n")
    assert set(payload["host"]) == {"cores", "python", "numpy", "machine", "commit", "dirty"}
    for block in (payload, payload["host"], payload["curve"][0]):
        assert list(block) == sorted(block)
    assert payload["sizes"] == [3, 1, 2]


def test_two_writes_of_one_payload_are_byte_identical(harness, tmp_path):
    snapshot = _snapshot(harness)
    first = snapshot.write(tmp_path / "a").read_bytes()
    assert snapshot.write(tmp_path / "b").read_bytes() == first


@pytest.mark.parametrize("name", ["a/b", "a\\b", ""])
def test_a_snapshot_name_with_a_path_separator_raises(harness, name):
    with pytest.raises(ValueError):
        harness.BenchSnapshot(name)


def test_benchmark_directory_is_nonempty():
    assert "bench_yannakakis_scaling.py" in BENCHMARK_FILES


@pytest.mark.parametrize("filename", BENCHMARK_FILES)
def test_benchmark_module_imports(filename, smoke_benchmarks):
    """Every benchmark module must import cleanly (smoke sizes applied)."""
    module = smoke_benchmarks(filename)
    assert module is not None


def test_scaling_benchmark_runs_at_smoke_sizes(smoke_benchmarks):
    """Execute the scaling measurement loop end to end on toy inputs."""
    module = smoke_benchmarks("bench_yannakakis_scaling.py")
    assert module.SIZES == module.SMOKE_SIZES
    rows = module.run_scaling(sizes=[20, 40], repeats=1)
    assert [row["size"] for row in rows] == sorted(row["size"] for row in rows)
    for row in rows:
        # run_scaling cross-checks hash vs dict answers internally; here we
        # only sanity-check the measurement record.
        assert row["answers"] > 0
        assert row["hash_time"] > 0 and row["dict_time"] > 0


def test_scaling_assertions_are_skipped_in_smoke_mode(smoke_benchmarks):
    """The timing assertions must not fire on noise-dominated tiny inputs."""
    module = smoke_benchmarks("bench_yannakakis_scaling.py")
    module.test_hash_engine_linear_dict_engine_quadratic()


def test_cover_game_scaling_runs_at_smoke_sizes(smoke_benchmarks):
    """Execute the cover-game scaling measurement loop end to end on toys."""
    module = smoke_benchmarks("bench_cover_game_scaling.py")
    assert module.SIZES == module.SMOKE_SIZES
    rows = module.run_scaling(sizes=[30, 60], repeats=1)
    assert [row["size"] for row in rows] == sorted(row["size"] for row in rows)
    for row in rows:
        # The spine guarantees the duplicator wins, and run_scaling
        # cross-checks the probe panel (worklist vs naive vs, at the
        # smallest size, the generic homomorphism oracle) internally.
        assert row["wins"] is True
        assert row["answers_agree"]
        assert row["worklist_time"] > 0 and row["naive_time"] > 0


def test_batch_eval_runs_at_smoke_sizes(smoke_benchmarks):
    """Execute the batched-vs-sequential measurement loop on toy inputs."""
    module = smoke_benchmarks("bench_batch_eval.py")
    assert module.BATCHES == module.SMOKE_BATCHES
    rows = module.run_batches(batch_sizes=[2, 4], size=60, repeats=1)
    assert [row["batch"] for row in rows] == [2, 4]
    for row in rows:
        # run_batches cross-checks batched vs sequential answers internally;
        # here we only sanity-check the measurement record.
        assert row["batched_time"] > 0 and row["sequential_time"] > 0
        assert row["scans_served"] >= row["batch"]
    # The cache never materialises more than one relation per distinct
    # signature plus one base relation per predicate (6 in this workload).
    assert rows[-1]["scans_built"] <= rows[-1]["scans_served"] + 6


def test_batch_eval_assertions_are_skipped_in_smoke_mode(smoke_benchmarks):
    """The timing assertions must not fire on noise-dominated tiny inputs."""
    module = smoke_benchmarks("bench_batch_eval.py")
    module.test_batched_evaluation_amortises_scans()


def test_enumeration_runs_at_smoke_sizes(smoke_benchmarks):
    """Execute the streaming-vs-materialising measurement loop on toys."""
    module = smoke_benchmarks("bench_enumeration.py")
    assert module.RAYS == module.SMOKE_RAYS
    rows = module.run_enumeration(rays_list=[2, 3], width=3, repeats=1)
    assert [row["rays"] for row in rows] == [2, 3]
    for row in rows:
        # run_enumeration cross-checks streamed vs materialised answers and
        # limit= semantics internally; here we sanity-check the record.
        assert row["answers"] == 3 ** row["rays"]
        assert row["materialise_time"] > 0 and row["first_time"] > 0
        assert row["first_probes"] <= 4 * row["rays"]


def test_enumeration_assertions_hold_in_smoke_mode(smoke_benchmarks):
    """Timing assertions are skipped on tiny inputs, but the deterministic
    bucket-probe assertions (first answer touches O(join-tree) buckets)
    still must hold."""
    module = smoke_benchmarks("bench_enumeration.py")
    module.test_streaming_first_answer_flat_materialising_grows()


def test_cover_game_assertions_are_skipped_in_smoke_mode(smoke_benchmarks):
    """The growth-factor assertions must not fire on tiny inputs — but the
    engine-agreement assertions still must."""
    module = smoke_benchmarks("bench_cover_game_scaling.py")
    module.test_worklist_engine_outgrows_naive_engine()
