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
        ":6: operator Streaming defines the batch stream iter_batches" in line
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


def test_typecheck_wrapper_runs():
    """Exit 0 both where mypy exists (clean tree) and where it is absent
    (graceful skip) — either way the wrapper must not crash."""
    result = run_script("run_typecheck.py")
    assert result.returncode == 0, result.stdout + result.stderr
