"""Compare two benchmark results files: ``python bench/compare.py A.json B.json``.

``A`` is the baseline (the parent commit), ``B`` the candidate.  For every
end-to-end metric of every workload found in both, one verdict:

* ``unchanged`` — the run-to-run spread is within the metric's bound and
  the medians differ by no more than the bound;
* ``better`` / ``worse`` — the medians differ by more than the bound, and
  either the spread is within the bound or every repeat of one side beats
  every repeat of the other;
* ``unresolved`` — the spread is wider than the bound and the medians are
  within the bound of each other or neither side wins every repeat (or the
  metric is on one side only).

The spread of a side is the distance between the quartiles of its repeats,
as a share of its median; the comparison uses the wider side.  The bound
of a metric on a workload is the one the baseline's results file recorded
(``run.py``'s per-workload bounds, none wider than ``BENCHMARK.json``'s).
The failure rate ``ops_failed / ops_attempted`` is compared too: any
increase is ``worse``.

Exits with 1 when any verdict is ``worse``, else 0.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple


def _spread(metric: Dict[str, object]) -> float:
    q1, q3 = metric["quartiles"]  # type: ignore[misc]
    value = float(metric["value"])  # type: ignore[arg-type]
    return (q3 - q1) / abs(value) if value else 0.0


def verdict(a: Dict[str, object], b: Dict[str, object], bound: float) -> Tuple[str, float, float]:
    """(verdict, signed change of B against A as a share, wider spread)."""
    lower = a["better"] == "lower"
    base = float(a["value"])  # type: ignore[arg-type]
    change = (float(b["value"]) - base) / base if base else 0.0  # type: ignore[arg-type]
    worse_by = change if lower else -change
    spread = max(_spread(a), _spread(b))
    runs_a: List[float] = a["runs"]  # type: ignore[assignment]
    runs_b: List[float] = b["runs"]  # type: ignore[assignment]
    if lower:
        b_wins, a_wins = max(runs_b) < min(runs_a), max(runs_a) < min(runs_b)
    else:
        b_wins, a_wins = min(runs_b) > max(runs_a), min(runs_a) > max(runs_b)
    if spread > bound:
        # With a few repeats a side wins all of them by chance now and
        # then; the medians must also be further apart than the bound.
        if abs(worse_by) <= bound:
            result = "unresolved"
        else:
            result = "better" if b_wins else "worse" if a_wins else "unresolved"
    elif worse_by > bound:
        result = "worse"
    elif worse_by < -bound:
        result = "better"
    else:
        result = "unchanged"
    return result, change, spread


def failure_rate(workload: Dict[str, object]) -> float:
    attempted = int(workload["ops_attempted"])  # type: ignore[arg-type]
    return int(workload["ops_failed"]) / attempted if attempted else 1.0  # type: ignore[arg-type]


def compare(a: Dict[str, object], b: Dict[str, object]) -> List[Tuple[str, str, str, str]]:
    """Rows of (workload, metric, verdict, detail)."""
    rows: List[Tuple[str, str, str, str]] = []
    for name in (a, b):
        if name.get("mode") != "measure":
            raise ValueError("compare measuring runs, not traced ones")
    workloads_a: Dict[str, Dict] = a["workloads"]  # type: ignore[assignment]
    workloads_b: Dict[str, Dict] = b["workloads"]  # type: ignore[assignment]
    for workload in sorted(set(workloads_a) | set(workloads_b)):
        if workload not in workloads_a or workload not in workloads_b:
            side = "A" if workload in workloads_a else "B"
            rows.append((workload, "*", "unresolved", f"workload only in {side}"))
            continue
        wa, wb = workloads_a[workload], workloads_b[workload]
        rate_a, rate_b = failure_rate(wa), failure_rate(wb)
        rate_verdict = "worse" if rate_b > rate_a else "better" if rate_b < rate_a else "unchanged"
        rows.append((workload, "failure_rate", rate_verdict, f"{rate_a:.4%} -> {rate_b:.4%}"))
        metrics_a, metrics_b = wa["metrics"], wb["metrics"]
        for metric in sorted(set(metrics_a) | set(metrics_b)):
            if metric not in metrics_a or metric not in metrics_b:
                side = "A" if metric in metrics_a else "B"
                rows.append((workload, metric, "unresolved", f"only in {side}"))
                continue
            ma, mb = metrics_a[metric], metrics_b[metric]
            bound = float(ma["bound"])
            result, change, spread = verdict(ma, mb, bound)
            detail = (
                f"{ma['value']:.4f} -> {mb['value']:.4f} {mb['unit']}"
                f"  change {change:+.1%}  spread {spread:.1%}  bound {bound:.0%}"
            )
            rows.append((workload, metric, result, detail))
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    documents = []
    for path in args:
        with open(path) as handle:
            documents.append(json.load(handle))
    try:
        rows = compare(documents[0], documents[1])
    except ValueError as error:
        print(f"compare: {error}", file=sys.stderr)
        return 2
    for workload, metric, result, detail in rows:
        print(f"{workload:<12} {metric:<14} {result:<10} {detail}")
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row[2]] = counts.get(row[2], 0) + 1
    print(", ".join(f"{count} {name}" for name, count in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
