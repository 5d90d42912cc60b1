"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python bench/run.py                       # every workload, 3 repeats each
    python bench/run.py --workload serve_point --seed 2
    python bench/run.py --trace               # one traced repeat per workload
    python bench/run.py --smoke               # tiny inputs, seconds in total

Each repeat runs in a fresh process (``worker.py``) started with every
inherited ``REPRO_*`` and ``BENCH_*`` variable removed and only the
workload's own settings applied, so nothing such as ``REPRO_VERIFY`` leaks
into a run.  The load generator is seeded by ``--seed``; the program sees
only the generated inputs.  A repeat sends a frozen number of requests
(:data:`REQUESTS`), so two commits always run the same work however fast
they are.  ``--seconds`` (default ``run_seconds`` of ``BENCHMARK.json``)
sets how many repeats run: one per :data:`REPEAT_SECONDS` of it.

The results — metrics with their sample counts, per-repeat values and
quartiles, host metadata, the seed and the environment — are written to
``bench/results/<run>/results.json``; a traced run also writes
``<workload>.trace.json`` next to it.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the ``end_to_end`` metrics of ``BENCHMARK.json``, or its ``per_layer``
metrics with ``--trace``).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

#: The seed results are reported for, and the one held out for checking a
#: claimed gain on inputs its change was not tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

#: Requests (operations) per repeat, frozen at the commit that added the
#: benchmark: a repeat's timed loop took 4 to 7 s there, at the reference
#: speed (``worker.REFERENCE_S``), and the runs' spreads over ten seeds stayed
#: below a third of their bounds.  Each is a whole number of the workload's
#: blocks (``cold_tgds``: rounds of its 17 classes).
REQUESTS = {"serve_point": 2_800, "serve_scan": 90, "serve_mixed": 1_500, "cold_tgds": 68}
SMOKE_REQUESTS = {"serve_point": 200, "serve_scan": 5, "serve_mixed": 100, "cold_tgds": 17}

#: A measuring run makes one fresh-process repeat per ``REPEAT_SECONDS`` of
#: ``--seconds`` and reports the median over them.
REPEAT_SECONDS = 4.0

#: The largest ``--seconds``: a workload's repeats must finish within
#: :data:`WORKLOAD_DEADLINE_S`, set-up and oracle checks included.
MAX_SECONDS = 60.0
WORKLOAD_DEADLINE_S = 170.0

#: Per workload: the ``REPRO_*`` settings that are fastest for it at the
#: seed commit, and the latency percentiles it reports beyond
#: ``BENCHMARK.json`` (which lists only what every workload reports).  A
#: percentile only where a repeat has ten samples or more beyond it: the
#: 99th of reads on ``serve_point`` and ``serve_mixed``, the 90th of the
#: 300 writes of a ``serve_mixed`` repeat.
WORKLOADS: Dict[str, Dict[str, object]] = {
    "serve_point": {
        "env": {"REPRO_BACKEND": "columnar"},
        "extra": ("query_p50_ms", "query_p90_ms", "query_p99_ms"),
    },
    "serve_scan": {
        "env": {"REPRO_BACKEND": "columnar", "REPRO_NUMPY": "1", "REPRO_PARALLEL": "2"},
        "extra": ("query_p50_ms", "query_p90_ms"),
        "needs_numpy": True,
    },
    "serve_mixed": {
        "env": {"REPRO_BACKEND": "columnar"},
        "extra": ("query_p50_ms", "query_p90_ms", "query_p99_ms", "write_p50_ms", "write_p90_ms"),
    },
    "cold_tgds": {
        "env": {"REPRO_BACKEND": "columnar"},
        "extra": ("query_p50_ms", "query_p90_ms"),
    },
}

#: The workload-specific metrics: every one is a latency percentile, with
#: the bound of ``BENCHMARK.json``'s ``query_rps``.
EXTRA_METRICS: Dict[str, Dict[str, object]] = {
    name: {"unit": "ms", "better": "lower", "bound": 0.25}
    for name in ("query_p50_ms", "query_p90_ms", "query_p99_ms", "write_p50_ms", "write_p90_ms")
}

#: Native thread pools (BLAS) capped at one thread: the benchmark runs at
#: most ``REPRO_PARALLEL`` worker threads, and no more than the host's cores.
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark cannot run or a repeat failed; no result is printed."""


def load_spec() -> Dict[str, object]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        raise BenchError(f"cannot read {path}: {error}") from None


def worker_env(workload: str) -> Dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "BENCH_"))
    }
    env.update(THREAD_CAPS)
    env.update(WORKLOADS[workload]["env"])  # type: ignore[arg-type]
    env["PYTHONPATH"] = SRC
    return env


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear interpolation between the closest ranks (``values`` non-empty)."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0], values[0]] if values else [0.0, 0.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def repeat_metrics(repeat: Dict[str, object]) -> Dict[str, float]:
    """Every end-to-end metric of one repeat.

    The worker reports every time already at the reference host speed
    (``worker.REFERENCE_S``).
    """
    reads: List[float] = repeat["samples"]["read"]  # type: ignore[index]
    writes: List[float] = repeat["samples"]["write"]  # type: ignore[index]
    values = {
        "setup_s": statistics.median(repeat["setups"]),  # type: ignore[arg-type]
        "peak_rss_mb": float(repeat["peak_rss_mb"]),  # type: ignore[arg-type]
    }
    if reads:
        values["query_p50_ms"] = 1000.0 * percentile(reads, 0.5)
        values["query_p90_ms"] = 1000.0 * percentile(reads, 0.9)
        values["query_p99_ms"] = 1000.0 * percentile(reads, 0.99)
        # The median over blocks of reads per second of client time, writes
        # included.
        values["query_rps"] = statistics.median(
            reads / seconds for reads, seconds in repeat["blocks"]  # type: ignore[union-attr]
        )
    if writes:
        values["write_p50_ms"] = 1000.0 * percentile(writes, 0.5)
        values["write_p90_ms"] = 1000.0 * percentile(writes, 0.9)
    return values


def aggregate(
    workload: str, repeats: List[Dict[str, object]], spec: Dict[str, object]
) -> Dict[str, Dict[str, object]]:
    """The workload's end-to-end metrics: medians over its repeats.

    Each metric keeps its per-repeat values, their quartiles, and its sample
    count: the operations timed over all repeats for a latency, the blocks
    for ``query_rps``, the set-ups for ``setup_s``, the repeats for
    ``peak_rss_mb``.
    """
    definitions = {m["name"]: m for m in spec["end_to_end"]}  # type: ignore[index]
    for name in WORKLOADS[workload]["extra"]:  # type: ignore[union-attr]
        definitions[name] = EXTRA_METRICS[name]
    runs = [repeat_metrics(r) for r in repeats]
    metrics: Dict[str, Dict[str, object]] = {}
    for name, definition in definitions.items():
        values = [run[name] for run in runs if name in run]
        if len(values) < len(runs):
            raise BenchError(f"{workload}: a repeat produced no samples for {name}")
        if name == "query_rps":
            samples = sum(len(r["blocks"]) for r in repeats)  # type: ignore[arg-type]
        elif name == "setup_s":
            samples = sum(len(r["setups"]) for r in repeats)  # type: ignore[arg-type]
        elif name.startswith(("query_", "write_")):
            kind = "write" if name.startswith("write_") else "read"
            samples = sum(len(r["samples"][kind]) for r in repeats)  # type: ignore[index]
        else:
            samples = len(values)
        metrics[name] = {
            "value": statistics.median(values),
            "unit": definition["unit"],
            "better": definition["better"],
            "bound": definition["bound"],
            "samples": samples,
            "runs": values,
            "quartiles": quartiles(values),
        }
    return metrics


def run_repeat(
    workload: str, seed: int, smoke: bool, deadline: float, trace_out: Optional[str] = None,
) -> Dict[str, object]:
    requests = (SMOKE_REQUESTS if smoke else REQUESTS)[workload]
    command = [
        sys.executable, os.path.join(BENCH, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--requests", str(requests),
        "--src", SRC,
    ]
    if smoke:
        command.append("--smoke")
    if trace_out is not None:
        command += ["--trace-out", trace_out]
    try:
        finished = subprocess.run(
            command, cwd=ROOT, env=worker_env(workload), capture_output=True,
            text=True, timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: a repeat did not finish in time") from None
    tail = "\n".join(finished.stderr.strip().splitlines()[-15:])
    if finished.returncode != 0:
        raise BenchError(f"{workload}: repeat exited with {finished.returncode}\n{tail}")
    try:
        return json.loads(finished.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload}: repeat printed no result\n{tail}") from None


def repeat_count(args: argparse.Namespace) -> int:
    if args.trace or args.smoke:
        return 1
    return max(1, round(args.seconds / REPEAT_SECONDS))


def run_workload(
    workload: str, args: argparse.Namespace, spec: Dict[str, object], out_dir: str
) -> Dict[str, object]:
    settings = WORKLOADS[workload]
    if settings.get("needs_numpy") and importlib.util.find_spec("numpy") is None:
        raise BenchError(
            f"{workload} needs numpy: without it REPRO_NUMPY=1 silently falls back "
            "to the pure-python columns and the run would measure something else"
        )
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    repeats_wanted = repeat_count(args)
    repeats = []
    for index in range(repeats_wanted):
        print(f"{workload}: repeat {index + 1}/{repeats_wanted}", file=sys.stderr)
        trace_out = os.path.join(out_dir, f"{workload}.trace.json") if args.trace else None
        repeats.append(run_repeat(workload, args.seed, args.smoke, deadline, trace_out))
    result: Dict[str, object] = {
        "env": settings["env"],
        "requests_per_repeat": (SMOKE_REQUESTS if args.smoke else REQUESTS)[workload],
        # The host's speed during the run: the median time of the reference
        # join, to set against worker.REFERENCE_S.
        "reference_s": statistics.median(
            reference for r in repeats for reference in r["references"]  # type: ignore[union-attr]
        ),
        "ops_attempted": sum(r["attempted"] for r in repeats),  # type: ignore[misc]
        "ops_failed": sum(r["failed"] for r in repeats),  # type: ignore[misc]
        "failures": [f for r in repeats for f in r["failures"]][:10],  # type: ignore[union-attr]
        "repeat_share": statistics.median(r["repeat_share"] for r in repeats),  # type: ignore[misc]
    }
    if args.trace:
        repeat = repeats[0]
        result["per_layer"] = repeat["per_layer"]
        result["missing"] = repeat["missing"]
        result["trace_file"] = os.path.relpath(trace_out, ROOT)  # type: ignore[arg-type]
    else:
        result["metrics"] = aggregate(workload, repeats, spec)
    return result


def host_metadata() -> Dict[str, object]:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version: Optional[str] = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        **git_metadata(),
    }


def git_metadata() -> Dict[str, object]:
    """The commit and whether the tree is dirty; ``None`` outside a git checkout."""
    def git(*arguments: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", "-C", ROOT, *arguments], capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    if not os.path.exists(os.path.join(ROOT, ".git")):
        return {"commit": None, "dirty": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def print_table(workload: str, result: Dict[str, object], units: Dict[str, str]) -> None:
    print(f"\n{workload}  env {json.dumps(result['env'])}")
    print(
        f"  ops_attempted {result['ops_attempted']}  ops_failed {result['ops_failed']}"
        f"  repeat_share {result['repeat_share']:.3f}"
    )
    for failure in result["failures"]:  # type: ignore[union-attr]
        print(f"  failure: {failure}")
    if "metrics" in result:
        for name, metric in result["metrics"].items():  # type: ignore[union-attr]
            q1, q3 = metric["quartiles"]
            print(
                f"  {name:<16} {metric['value']:>12.4f} {metric['unit']:<5}"
                f" n={metric['samples']:<6} repeats q1..q3 {q1:.4f}..{q3:.4f}"
            )
        return
    for name, value in sorted(result["per_layer"].items()):  # type: ignore[union-attr]
        print(f"  {name:<52} {value:>12.4f} {units.get(name, '')}")
    for name, reason in sorted(result["missing"].items()):  # type: ignore[union-attr]
        print(f"  {name:<52} missing: {reason}")


def summary_line(
    results: Dict[str, Dict[str, object]], spec: Dict[str, object], traced: bool
) -> Dict[str, object]:
    """The final JSON line; metric names are prefixed when several workloads ran."""
    section = "per_layer" if traced else "end_to_end"
    metrics: Dict[str, Dict[str, object]] = {}
    for workload, result in results.items():
        prefix = "" if len(results) == 1 else f"{workload}."
        for definition in spec[section]:  # type: ignore[union-attr]
            name = definition["name"]
            if traced:
                value = result["per_layer"].get(name, 0.0)  # type: ignore[union-attr]
            else:
                value = result["metrics"][name]["value"]  # type: ignore[index]
            metrics[prefix + name] = {"value": value, "unit": definition["unit"]}
    failed = sum(r["ops_failed"] for r in results.values())  # type: ignore[misc]
    return {
        "correct": failed == 0,
        "attempted": sum(r["ops_attempted"] for r in results.values()),  # type: ignore[misc]
        "failed": failed,
        "metrics": metrics,
    }


def parse_args(argv: Optional[Sequence[str]], default_seconds: float) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.", epilog="See bench/README.md."
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=default_seconds,
        help=f"one repeat per {REPEAT_SECONDS:g} s of it (default {default_seconds:g})",
    )
    # An optional 0 or 1, so that both "--trace" and "--trace 0|1" work: the
    # second is how a harness running BENCHMARK.json's command passes it.
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="one traced repeat per workload, per-layer metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one repeat")
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be above 0 and at most {MAX_SECONDS:g}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        spec = load_spec()
        args = parse_args(argv, float(spec.get("run_seconds", 10)))
        if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
            raise BenchError(f"no program to measure: {SRC}/repro is missing")
        run_id = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
        out_dir = os.path.join(BENCH, "results", run_id)
        os.makedirs(out_dir)
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        results = {w: run_workload(w, args, spec, out_dir) for w in workloads}
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}  # type: ignore[union-attr]
    document = {
        "run": run_id,
        "mode": "trace" if args.trace else "measure",
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "repeats": repeat_count(args),
        "loop": "closed, one client, no think time",
        "host": host_metadata(),
        "workloads": results,
    }
    path = os.path.join(out_dir, "results.json")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
    for workload, result in results.items():
        print_table(workload, result, units)
    print(f"\nresults: {os.path.relpath(path, ROOT)}")
    print(json.dumps(summary_line(results, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
