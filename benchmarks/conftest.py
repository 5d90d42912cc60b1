"""The benchmark harness: sizes, timing, tables and snapshots.

Every benchmark module regenerates one artefact of the paper (an example,
a figure, or the algorithmic content of a theorem).  Benchmarks both
*measure* (via pytest-benchmark) and *print* the series the paper's
artefact reports, so running

    pytest benchmarks/ --benchmark-only -s

prints every table; the ``make bench-*`` targets also persist theirs as
``BENCH_<name>.json`` snapshots.  This module is everything the
benchmarks share:

* **sizes** — :func:`smoke_mode` and :func:`scaled_sizes`;
* **timing** — :func:`interleaved` takes the runs in turn and returns the
  raw samples; :func:`summary` reduces samples to ``min``, ``median`` and
  quartiles, :func:`timed` is both for one run, and :func:`median_ratio`
  compares two runs repeat by repeat;
* **tables** — :func:`growth`, :func:`fmt` and :func:`print_series`;
* **snapshots** — :class:`BenchSnapshot`, which stamps every file with
  :func:`host_metadata`.

Smoke mode
----------
Setting ``BENCH_SMOKE=1`` in the environment switches every benchmark to
tiny inputs (lint rule 3 makes each one consult :func:`scaled_sizes` or
:func:`smoke_mode`), and the timing assertions are skipped there.  The
tier-1 test suite uses this to import and execute the benchmark modules in
milliseconds — so a broken benchmark fails fast in CI instead of at the
next full benchmark run.  Smoke runs write no snapshot unless
``BENCH_SNAPSHOT_DIR`` names a directory.

Test helpers
------------
The baselines some benchmarks time — the assignment-dict Yannakakis, the
round-based cover game, the ablation-only join planners — are test-only
oracles under ``tests/helpers/``.  This conftest puts ``tests/`` on
``sys.path``, so benchmarks import them as ``helpers.*`` exactly as the
tier-1 tests do.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

_ROOT = Path(__file__).resolve().parent.parent
_TESTS_DIR = str(_ROOT / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.append(_TESTS_DIR)

#: Where :class:`BenchSnapshot` files land (default: the current
#: directory).  Under ``BENCH_SMOKE`` it is also the opt-in: smoke runs
#: write no snapshot unless it is set.
SNAPSHOT_DIR_ENV = "BENCH_SNAPSHOT_DIR"


def smoke_mode() -> bool:
    """Return ``True`` when the suite runs with ``BENCH_SMOKE=1``."""
    return os.environ.get("BENCH_SMOKE", "").strip().lower() not in ("", "0", "false", "no")


def scaled_sizes(full, smoke):
    """Return ``smoke`` sizes under ``BENCH_SMOKE=1``, else the ``full`` sizes."""
    return smoke if smoke_mode() else full


def interleaved(
    runs: Mapping[str, Callable[[], object]], repeats: int, per: float = 1
) -> Dict[str, List[float]]:
    """``repeats`` wall-time samples of each run: its seconds over ``per``.

    ``per`` is the operations one run makes, for seconds per operation,
    times the unit: ``1e-3`` gives milliseconds, ``n * 1e-9`` nanoseconds
    per each of ``n`` operations.  Every repeat takes the runs in turn, so
    a change of the host's speed lands on all of them alike.  Each run
    starts right after a full collection, so garbage the previous run left
    does not land in it.
    """
    samples: Dict[str, List[float]] = {name: [] for name in runs}
    for _ in range(repeats):
        for name, run in runs.items():
            gc.collect()
            started = time.perf_counter()
            run()
            samples[name].append((time.perf_counter() - started) / per)
    return samples


def summary(samples: Sequence[float]) -> Dict[str, float]:
    """The ``min``, ``median`` and quartiles ``q1``/``q3`` of ``samples``.

    The quartiles interpolate between the samples (``"inclusive"``, numpy's
    default), so they never leave the samples' range; one sample is all
    four.
    """
    if len(samples) == 1:
        q1 = median = q3 = samples[0]
    else:
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"min": min(samples), "median": median, "q1": q1, "q3": q3}


def timed(run: Callable[[], object], repeats: int, per: float = 1) -> Dict[str, float]:
    """The :func:`summary` of ``repeats`` samples of one run."""
    return summary(interleaved({"run": run}, repeats, per)["run"])


def median_ratio(numerators: Sequence[float], denominators: Sequence[float]) -> float:
    """The median of the per-repeat ratios of two runs' samples.

    Both samples of a repeat were taken back to back by
    :func:`interleaved`, so the host's drift cancels out of each ratio.
    """
    return statistics.median(a / b for a, b in zip(numerators, denominators))


def growth(rows: Sequence[Mapping[str, Any]], key: str) -> List[Optional[float]]:
    """``rows[i][key] / rows[i - 1][key]`` per row; ``None`` for the first
    row and wherever either value is missing (or the previous one is 0)."""
    factors: List[Optional[float]] = [None]
    for previous, current in zip(rows, rows[1:]):
        if previous[key] and current[key] is not None:
            factors.append(current[key] / previous[key])
        else:
            factors.append(None)
    return factors


def fmt(value: Optional[float], unit: str = "", digits: int = 4) -> str:
    """``value`` to ``digits`` decimals followed by ``unit``; ``—`` for ``None``."""
    return "—" if value is None else f"{value:.{digits}f}{unit}"


def print_series(title: str, rows, header=None) -> None:
    """Print a small aligned table (one experiment series)."""
    print()
    print(f"=== {title} ===")
    if header:
        print("    " + " | ".join(str(h) for h in header))
    for row in rows:
        print("    " + " | ".join(str(cell) for cell in row))


def host_metadata() -> Dict[str, object]:
    """The host block of a ``BENCH_*.json`` snapshot.

    Cores, python, numpy (``None`` without it), machine, the checkout's
    commit and whether the tracked tree, snapshots aside, differs from it
    (``None`` for either outside a git checkout).  Snapshots are left out
    of the check so that the first snapshot a run writes does not mark the
    later ones dirty.
    """

    def git(*arguments: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", "-C", str(_ROOT), *arguments],
                capture_output=True,
                text=True,
                timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    try:
        import numpy
    except ImportError:
        numpy_version = None
    else:
        numpy_version = numpy.__version__
    status = git(
        "status", "--porcelain", "--untracked-files=no", "--", ".", ":(exclude)BENCH_*.json"
    )
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
    }


class BenchSnapshot:
    """One benchmark run's measurements, persisted as ``BENCH_<name>.json``.

    Usage from a benchmark module::

        snapshot = BenchSnapshot("yannakakis_scaling")
        snapshot.record("sizes", sizes)
        snapshot.add_row("curve", {"size": 500, "hash_time": 0.01})
        path = snapshot.write()          # None when skipped (smoke mode)

    ``write`` adds the ``host`` block itself, so no snapshot can lack it.
    The JSON is written with sorted keys and a trailing newline, so reruns
    with identical measurements on one checkout produce byte-identical
    files.
    """

    def __init__(self, name: str) -> None:
        if not name or any(c in name for c in "/\\"):
            raise ValueError(f"invalid snapshot name {name!r}")
        self.name = name
        self.payload: Dict[str, Any] = {"name": name}

    def record(self, key: str, value: Any) -> None:
        """Set one top-level measurement (a scalar, list or mapping)."""
        self.payload[key] = value

    def add_row(self, series: str, row: Mapping[str, Any]) -> None:
        """Append one row to a named series (created on first use)."""
        self.payload.setdefault(series, []).append(dict(row))

    def write(self, directory: Optional[Union[str, Path]] = None) -> Optional[Path]:
        """Write the snapshot; return its path, or ``None`` when skipped.

        The directory is ``directory``, else ``BENCH_SNAPSHOT_DIR``, else
        the current directory.  Under ``BENCH_SMOKE`` nothing is written
        unless one of the first two is given: tier-1 executes the
        benchmarks on tiny inputs, whose measurements are noise and must
        not clobber committed snapshots.
        """
        if directory is None:
            directory = os.environ.get(SNAPSHOT_DIR_ENV, "").strip() or None
        if directory is None and smoke_mode():
            return None
        target = Path.cwd() if directory is None else Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        path = target / f"BENCH_{self.name}.json"
        payload = dict(self.payload, host=host_metadata())
        path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
        return path
