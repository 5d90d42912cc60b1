"""Benchmark snapshots: the persisted perf trajectory.

Every benchmark in ``benchmarks/`` regenerates one of the paper's artefacts
(an example, a figure, or the algorithmic content of a theorem).  Each
``make bench-*`` run writes one ``BENCH_<name>.json`` through
:class:`BenchSnapshot` with the measured series (sizes, growth factors,
probe counts, backend ratios), so re-anchoring can diff performance across
PRs instead of re-running history.

Nothing here depends on the rest of the library; the benchmarks import it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union


#: Environment override for where :class:`BenchSnapshot` files land.  Also
#: acts as the opt-in under ``BENCH_SMOKE``: smoke runs (the tier-1 suite
#: importing the benchmark modules) never write snapshots unless a
#: directory is given explicitly.
SNAPSHOT_DIR_ENV = "BENCH_SNAPSHOT_DIR"


class BenchSnapshot:
    """One benchmark run's measurements, persisted as ``BENCH_<name>.json``.

    Usage from a benchmark module::

        snapshot = BenchSnapshot("yannakakis_scaling")
        snapshot.record("sizes", sizes)
        snapshot.record("speedup", speedup)
        snapshot.add_row("curve", {"size": 500, "hash_time": 0.01})
        path = snapshot.write()          # None when skipped (smoke mode)

    The JSON is written with sorted keys and a trailing newline so reruns
    with identical measurements produce byte-identical files.  ``write``
    resolves the target directory as: explicit argument >
    ``BENCH_SNAPSHOT_DIR`` environment variable > current directory; under
    ``BENCH_SMOKE`` it is a no-op unless ``BENCH_SNAPSHOT_DIR`` is set
    (tier-1 executes the benchmark modules on tiny inputs — those
    measurements are noise and must not clobber committed snapshots).
    """

    def __init__(self, name: str) -> None:
        if not name or any(c in name for c in "/\\"):
            raise ValueError(f"invalid snapshot name {name!r}")
        self.name = name
        self.payload: Dict[str, Any] = {"name": name}

    def record(self, key: str, value: Any) -> None:
        """Set one top-level measurement (a scalar, list or mapping)."""
        self.payload[key] = value

    def add_row(self, series: str, row: Dict[str, Any]) -> None:
        """Append one row to a named series (created on first use)."""
        self.payload.setdefault(series, []).append(dict(row))

    def filename(self) -> str:
        return f"BENCH_{self.name}.json"

    def write(self, directory: Optional[Union[str, Path]] = None) -> Optional[Path]:
        """Write the snapshot; return its path, or ``None`` when skipped."""
        env_dir = os.environ.get(SNAPSHOT_DIR_ENV, "").strip()
        if directory is None and env_dir:
            directory = env_dir
        smoke = os.environ.get("BENCH_SMOKE", "").strip().lower() not in (
            "",
            "0",
            "false",
            "no",
        )
        if smoke and directory is None:
            return None
        target = Path(directory) if directory is not None else Path.cwd()
        target.mkdir(parents=True, exist_ok=True)
        path = target / self.filename()
        rendered = json.dumps(self.payload, indent=2, sort_keys=True, default=str)
        path.write_text(rendered + "\n")
        return path
