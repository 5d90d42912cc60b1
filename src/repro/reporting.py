"""Plain-text reporting helpers shared by the benchmark harness.

Every benchmark in ``benchmarks/`` regenerates one of the paper's artefacts
(an example, a figure, or the algorithmic content of a theorem) and prints
the rows/series it measured.  This module keeps that output uniform:

* :class:`Table` — a fixed-column ASCII/markdown table with typed cells;
* :class:`BenchSnapshot` — the persisted perf trajectory: each
  ``make bench-*`` run writes one ``BENCH_<name>.json`` with the measured
  series (sizes, growth factors, probe counts, backend ratios), so
  re-anchoring can diff performance across PRs instead of re-running
  history.

Nothing here depends on the rest of the library; the benchmarks import it,
and the tests exercise the formatting directly.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union


Cell = Union[str, int, float, bool, None]


def format_cell(value: Cell, float_digits: int = 3) -> str:
    """Render one table cell: floats get fixed precision, ``None`` a dash."""
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{float_digits}f}"
    return str(value)


class Table:
    """A small fixed-column table renderable as ASCII or markdown."""

    def __init__(self, columns: Sequence[str], title: Optional[str] = None) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self.columns = list(columns)
        self.title = title
        self._rows: List[List[str]] = []

    def add_row(self, *values: Cell, **named: Cell) -> None:
        """Add a row either positionally or by column name (not both)."""
        if values and named:
            raise ValueError("pass the row positionally or by name, not both")
        if named:
            unknown = set(named) - set(self.columns)
            if unknown:
                raise ValueError(f"unknown columns: {sorted(unknown)}")
            values = tuple(named.get(column) for column in self.columns)
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self._rows.append([format_cell(value) for value in values])

    @property
    def rows(self) -> List[List[str]]:
        return [list(row) for row in self._rows]

    def __len__(self) -> int:
        return len(self._rows)

    # ------------------------------------------------------------------
    def _widths(self) -> List[int]:
        widths = [len(column) for column in self.columns]
        for row in self._rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        return widths

    def render(self) -> str:
        """ASCII rendering with aligned columns (used by ``pytest -s`` output)."""
        widths = self._widths()
        lines: List[str] = []
        if self.title:
            lines.append(self.title)
        header = "  ".join(
            column.ljust(width) for column, width in zip(self.columns, widths)
        )
        lines.append(header)
        lines.append("  ".join("-" * width for width in widths))
        for row in self._rows:
            lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """GitHub-flavoured markdown rendering."""
        lines: List[str] = []
        if self.title:
            lines.append(f"**{self.title}**")
            lines.append("")
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self._rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


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
