"""The convention lint itself runs under tier-1, so a violating change
fails `make test` even before CI runs `make lint`."""

import importlib.util
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / name)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )


def test_convention_lint_is_clean():
    result = run_script("lint_conventions.py")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "conventions hold" in result.stdout


def _lint_module():
    spec = importlib.util.spec_from_file_location(
        "lint_conventions", REPO_ROOT / "scripts" / "lint_conventions.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_operator_run_state_outside_init_is_flagged():
    snippet = """
class Operator:
    def __init__(self, schema):
        self.schema = schema

class Counting(Operator):
    def __init__(self, schema):
        super().__init__(schema)
        self.calls = 0

    def _materialize_encoded(self, context):
        self.calls += 1
        self.last, other = context, None
        context.run[self].rows = 0

class NotAnOperator:
    def pull(self):
        self.source = None
"""
    violations = _lint_module().check_operator_immutability(snippet)
    assert len(violations) == 2
    assert all("Counting._materialize_encoded" in line for line in violations)
    assert any("self.calls" in line for line in violations)
    assert any("self.last" in line for line in violations)


def test_operator_streams_of_their_own_are_flagged():
    """An in-memory mutation of operators.py giving HashJoin a cursor-style
    stream is flagged at its class."""
    lint = _lint_module()
    source = lint.OPERATORS_FILE.read_text(encoding="utf-8")
    assert lint.check_operator_faces(source) == []
    marker = "class HashJoin(Operator):\n"
    assert marker in source
    mutated = source.replace(
        marker,
        marker + "    def iter_rows_encoded(self, context):\n        yield from ()\n\n",
    )
    line = source[: source.index(marker)].count("\n") + 1
    violations = lint.check_operator_faces(mutated)
    assert len(violations) == 1
    assert f":{line}: operator HashJoin defines the stream iter_rows_encoded" in violations[0]


def test_second_operator_faces_are_flagged():
    snippet = """
class Operator:
    def materialize_encoded(self, context):
        return self._materialize_encoded(context)

class Streaming(Operator):
    def _materialize_encoded(self, context):
        return context

    def iter_batches(self, context):
        yield context

    def label(self):
        return "Streaming"

class Tupled(Operator):
    def _materialize(self, context):
        return context

    def label(self):
        return "Tupled"

class Plain(Operator):
    def _materialize_encoded(self, context):
        return context

    def label(self):
        return "Plain"
"""
    violations = _lint_module().check_operator_faces(snippet)
    assert len(violations) == 3
    assert any(
        ":6: operator Streaming defines the stream iter_batches" in line
        for line in violations
    )
    assert any(
        ":16: operator Tupled defines the tuple face _materialize" in line
        for line in violations
    )
    assert any("Tupled has no materialising face" in line for line in violations)
    assert not any("Plain" in line for line in violations)


def test_fact_reads_outside_the_scan_cache_are_flagged():
    snippet = """
def scan(atom, database, scans):
    rows = [fact.terms for fact in database.atoms_with_predicate(atom.predicate)]
    relation = Relation.from_atom(atom, database)
    return scans.scan(atom), scans.base_relation(atom.predicate)
"""
    violations = _lint_module().check_scan_path({"operators.py": snippet})
    assert len(violations) == 2
    assert any("operators.py:3: calls atoms_with_predicate" in line for line in violations)
    assert any("operators.py:4: calls from_atom" in line for line in violations)


def test_comparison_sorts_in_the_kernels_are_flagged():
    snippet = """
def _stable_order(columns, base):
    return numpy.argsort(columns[0].astype(numpy.uint16), kind="stable")

def parallel_project(keys):
    _, first = numpy.unique(keys, return_index=True)
    first.sort()
    return numpy.argsort(keys, kind="stable"), sorted(first)
"""
    violations = _lint_module().check_kernel_sorts(snippet)
    assert len(violations) == 4
    assert any(":6: uses unique" in line for line in violations)
    assert any(":7: uses sort" in line for line in violations)
    assert any(":8: uses argsort" in line for line in violations)
    assert any(":8: uses sorted" in line for line in violations)


def test_probe_counts_inside_kernel_loops_are_flagged():
    snippet = """
def join_index(keys, buckets):
    for key in keys:
        Partition.add_probes(1)
        while buckets.get(key):
            add_probes(1)
    hits = [Partition.add_probes(1) for key in keys if key in buckets]
    Partition.add_probes(len(keys))
    return [bucket for bucket in buckets.values()], Partition.add_probes(len(hits))

def get(self, key):
    Partition.add_probes(1)
    return self.buckets.get(key, ())
"""
    violations = _lint_module().check_probe_counts({"encoding.py": snippet})
    assert len(violations) == 3
    assert any("encoding.py:4: calls add_probes inside a loop" in line for line in violations)
    assert any("encoding.py:6: calls add_probes" in line for line in violations)
    assert any("encoding.py:7: calls add_probes" in line for line in violations)


def test_environment_knobs_outside_the_fixed_set_are_flagged():
    snippet = """
import os
from os import environ

NUMPY = "REPRO_NUMPY"
SNAPSHOTS = "BENCH_SNAPSHOT_DIR"

def knobs(prefix):
    numpy = os.environ.get(NUMPY, "")
    shadow = os.environ.get("REPRO_SHADOW", "").strip()
    fast = "REPRO_FAST" in os.environ and environ["REPRO_FAST"]
    return numpy, shadow, fast, os.getenv(SNAPSHOTS), os.getenv(prefix + "VERIFY")
"""
    violations = _lint_module().check_environment_knobs({"knobs.py": snippet})
    assert len(violations) == 6
    assert any("knobs.py:10: reads the unlisted knob REPRO_SHADOW" in v for v in violations)
    assert sum("knobs.py:11: reads the unlisted knob REPRO_FAST" in v for v in violations) == 2
    # Any prefix counts: a BENCH_* read under src/ is a knob too.
    assert any("knobs.py:12: reads the unlisted knob BENCH_SNAPSHOT_DIR" in v for v in violations)
    assert any("knobs.py:12: reads an environment variable whose name" in v for v in violations)
    # The snippet never reads REPRO_VERIFY, so the set names a dead knob.
    assert any("lists REPRO_VERIFY, which src/ no longer reads" in line for line in violations)


def test_exports_nothing_references_are_flagged():
    init = """
from .mod import CONSTANT, Used, traced, unused

__all__ = [
    "CONSTANT",
    "Used",
    "traced",
    "unused",
]
"""
    module = """
CONSTANT = 3


class Used:
    pass


def traced():
    return 1


def unused(depth):
    \"\"\"unused calls itself, which is no reference from outside.\"\"\"
    return unused(depth - 1) if depth else CONSTANT
"""
    references = {
        "src/repro/pkg/mod.py": module,
        "tests/test_pkg.py": "from repro.pkg import Used\n\nassert Used()\n",
        "bench/trace.py": 'TARGETS = ["repro.pkg.mod.traced"]\n',
    }
    lint = _lint_module()
    violations = lint.check_unused_exports({"src/repro/pkg/__init__.py": init}, references)
    assert violations == [
        "src/repro/pkg/__init__.py:8: exports unused, which nothing references "
        "outside its definition (delete it, or drop the export)"
    ]
    # A README mention is a reference too.
    references["README.md"] = "Call `unused(0)` for the constant.\n"
    assert lint.check_unused_exports({"src/repro/pkg/__init__.py": init}, references) == []


def test_unused_imports_are_flagged():
    module = """
from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List

from .kernels import parallel_select  # noqa: F401  (wrapped by path)
from .hypergraph import (
    Hypergraph,
    query_connectors,
)

if TYPE_CHECKING:
    from .encoding import TermEncoder, Unused


def width(graph: Hypergraph, encoder: "TermEncoder") -> List[int]:
    return [len(edge) for edge in graph.edges]
"""
    violations = _lint_module().check_unused_imports({"src/repro/pkg/mod.py": module})
    assert violations == [
        "src/repro/pkg/mod.py:4: imports itertools, which the module never uses",
        "src/repro/pkg/mod.py:5: imports Dict, which the module never uses",
        "src/repro/pkg/mod.py:10: imports query_connectors, which the module never uses",
        "src/repro/pkg/mod.py:14: imports Unused, which the module never uses",
    ]


def test_eq_without_hash_is_flagged():
    module = """
class Value:
    def __eq__(self, other):
        return True

    def __hash__(self):
        return 0


class Child(Value):
    def __eq__(self, other):
        return False


class Mutable:
    def __eq__(self, other):
        return False

    __hash__ = None


class Plain:
    def __hash__(self):
        return 1


def outer():
    class Local:
        __eq__ = lambda self, other: True
    return Local
"""
    violations = _lint_module().check_eq_without_hash({"src/repro/pkg/mod.py": module})
    assert violations == [
        "src/repro/pkg/mod.py:10: Child defines __eq__ but not __hash__",
        "src/repro/pkg/mod.py:28: Local defines __eq__ but not __hash__",
    ]


def test_collector_switches_outside_the_pause_helper_are_flagged():
    """The real encoding module is clean; a stray switch planted in it
    (a freeze, a threshold change, a collector hook), in a nested helper of
    another module or by a ``from gc import`` is not."""
    lint = _lint_module()
    home, helpers = lint.PAUSE_HOME, lint.PAUSE_FUNCTIONS
    allowed = " or ".join(helpers)
    source = (lint.REPO_ROOT / home).read_text(encoding="utf-8")
    for helper in helpers:
        assert f"def {helper}(" in source
    assert lint.check_collector_switches({home: source}) == []
    marker = "def _make_column("
    line = source[: source.index(marker)].count("\n") + 2
    for stray, switch in (
        ("gc.freeze()", "freeze"),
        ("gc.set_threshold(10_000)", "set_threshold"),
        ("gc.callbacks.append(print)", "callbacks"),
    ):
        planted = f"def _stray():\n    {stray}\n\n\n"
        violations = lint.check_collector_switches(
            {home: source.replace(marker, planted + marker)}
        )
        assert violations == [f"{home}:{line}: uses gc.{switch} outside {allowed} in {home}"]
    other = """
import gc
from gc import collect, disable, unfreeze


def _collector_paused(build):
    def run():
        gc.enable()
    return run
"""
    violations = lint.check_collector_switches({"src/repro/service.py": other})
    assert violations == [
        "src/repro/service.py:3: imports gc.disable, gc.unfreeze (switch the collector "
        f"only in {allowed})",
        f"src/repro/service.py:8: uses gc.enable outside {allowed} in {home}",
    ]


def test_typecheck_wrapper_runs():
    """Exit 0 both where mypy exists (clean tree) and where it is absent
    (graceful skip) — either way the wrapper must not crash."""
    result = run_script("run_typecheck.py")
    assert result.returncode == 0, result.stdout + result.stderr
