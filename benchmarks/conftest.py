"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one artefact of the paper (an example,
a figure, or the algorithmic content of a theorem).  Benchmarks both
*measure* (via pytest-benchmark) and *print* the series the paper's
artefact reports, so running

    pytest benchmarks/ --benchmark-only -s

prints every table; the ``make bench-*`` targets also persist theirs as
``BENCH_<name>.json`` snapshots.

Smoke mode
----------
Setting ``BENCH_SMOKE=1`` in the environment switches every benchmark that
sizes itself through :func:`scaled_sizes` (currently the Yannakakis
benchmarks; thread it through the others as they are touched) to tiny
inputs.  The tier-1 test suite uses this to import and execute the
benchmark modules in milliseconds — so a broken benchmark fails fast in CI
instead of at the next full benchmark run.

Test helpers
------------
The baselines some benchmarks time — the assignment-dict Yannakakis, the
round-based cover game, the ablation-only join planners — are test-only
oracles under ``tests/helpers/``.  This conftest puts ``tests/`` on
``sys.path``, so benchmarks import them as ``helpers.*`` exactly as the
tier-1 tests do.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

import pytest

_TESTS_DIR = str(Path(__file__).resolve().parent.parent / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.append(_TESTS_DIR)


def smoke_mode() -> bool:
    """Return ``True`` when the suite runs with ``BENCH_SMOKE=1``."""
    return os.environ.get("BENCH_SMOKE", "").strip().lower() not in ("", "0", "false", "no")


def scaled_sizes(full, smoke):
    """Return ``smoke`` sizes under ``BENCH_SMOKE=1``, else the ``full`` sizes."""
    return smoke if smoke_mode() else full


def host_metadata() -> Dict[str, object]:
    """The host block of a ``BENCH_*.json`` snapshot.

    Cores, python, numpy (``None`` without it), machine, the checkout's
    commit and whether the tracked tree differs from it (``None`` for
    either outside a git checkout).
    """
    root = Path(__file__).resolve().parent.parent

    def git(*arguments: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", "-C", str(root), *arguments],
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
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
    }


def print_series(title: str, rows, header=None) -> None:
    """Print a small aligned table (one experiment series)."""
    print()
    print(f"=== {title} ===")
    if header:
        print("    " + " | ".join(str(h) for h in header))
    for row in rows:
        print("    " + " | ".join(str(cell) for cell in row))


@pytest.fixture
def series_printer():
    return print_series
