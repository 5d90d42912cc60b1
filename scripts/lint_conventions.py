#!/usr/bin/env python
"""Repository-convention lint — rules a generic linter cannot know.

Six rules, each encoding a convention the codebase actually relies on:

1. **Operator faces** — every concrete operator node in
   ``src/repro/evaluation/operators.py`` implements both execution faces
   (``_materialize``/``materialize`` and ``iter_rows``) and ``label()``,
   so plans can always be materialised, streamed and rendered.
2. **No mutable default arguments** anywhere under ``src/`` — a default
   ``[]``/``{}``/``set()`` is shared across calls; the engines pass
   relations and bindings through deep call chains where that aliasing is
   a silent correctness bug.
3. **Benchmarks honour BENCH_SMOKE** — every ``benchmarks/bench_*.py``
   must consult the smoke-mode machinery (``scaled_sizes``/``smoke_mode``
   or the raw ``BENCH_SMOKE`` variable) so `make bench-smoke` and CI can
   run the whole suite in seconds.
4. **Batch face is verifier-covered** — every operator class that
   overrides the batch face (``iter_batches`` or ``_materialize_encoded``)
   must be registered in the ``_BATCH_WIDTHS`` table of
   ``src/repro/analysis/verify_plan.py``, so the static verifier's
   batch-face width check (PLAN013/PLAN014) can recompute its output
   width instead of warning it unchecked.
5. **Plan entry points accept ``backend=``** — every public function in
   ``join_plans.py``/``planner_dp.py`` that takes a ``planner`` and a
   ``database`` plans *and executes*, so it must accept a ``backend``
   keyword and run on either execution face.  Planners themselves only
   order atoms and take no ``backend``.
6. **Operators are immutable** — an operator class in ``operators.py``
   (``Operator`` or any subclass of it) assigns ``self.<attr>`` only inside
   ``__init__``.  Run state belongs to the run's ``ExecutionContext``, so
   one compiled plan can be shared by any number of runs and threads.

Exit 0 when clean, 1 with one line per violation otherwise (run via
``make lint``).
"""

import ast
import pathlib
import sys
from typing import List, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OPERATORS_FILE = REPO_ROOT / "src" / "repro" / "evaluation" / "operators.py"
VERIFIER_FILE = REPO_ROOT / "src" / "repro" / "analysis" / "verify_plan.py"
SOURCE_ROOT = REPO_ROOT / "src"
BENCH_ROOT = REPO_ROOT / "benchmarks"

MUTABLE_CALLS = {"list", "dict", "set"}


def relative(path: pathlib.Path) -> str:
    return str(path.relative_to(REPO_ROOT))


# ----------------------------------------------------------------------
# Rule 1: operator nodes implement both faces
# ----------------------------------------------------------------------
def check_operator_faces() -> List[str]:
    violations: List[str] = []
    tree = ast.parse(OPERATORS_FILE.read_text(encoding="utf-8"))
    class_methods = {
        node.name: {
            item.name for item in node.body if isinstance(item, ast.FunctionDef)
        }
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    # The streaming face of nodes that do not pipeline resolves through the
    # base default (materialise-and-iterate); if that default ever goes
    # away, every non-overriding node below becomes a violation.
    base_has_stream_default = "iter_rows" in class_methods.get("Operator", set())
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {base.id for base in node.bases if isinstance(base, ast.Name)}
        if "Operator" not in bases:
            continue
        methods = class_methods[node.name]
        if not methods & {"_materialize", "materialize"}:
            violations.append(
                f"{relative(OPERATORS_FILE)}:{node.lineno}: operator "
                f"{node.name} has no materialising face "
                "(_materialize or materialize)"
            )
        if "iter_rows" not in methods and not base_has_stream_default:
            violations.append(
                f"{relative(OPERATORS_FILE)}:{node.lineno}: operator "
                f"{node.name} has no streaming face (iter_rows)"
            )
        if "label" not in methods:
            violations.append(
                f"{relative(OPERATORS_FILE)}:{node.lineno}: operator "
                f"{node.name} cannot be rendered (label)"
            )
    return violations


# ----------------------------------------------------------------------
# Rule 2: no mutable default arguments under src/
# ----------------------------------------------------------------------
def _is_mutable_default(default: ast.expr) -> bool:
    if isinstance(default, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(default, ast.Call)
        and isinstance(default.func, ast.Name)
        and default.func.id in MUTABLE_CALLS
    )


def check_mutable_defaults() -> List[str]:
    violations: List[str] = []
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    violations.append(
                        f"{relative(path)}:{node.lineno}: function "
                        f"{node.name} has a mutable default argument"
                    )
    return violations


# ----------------------------------------------------------------------
# Rule 3: benchmarks honour BENCH_SMOKE
# ----------------------------------------------------------------------
def check_bench_smoke() -> List[str]:
    violations: List[str] = []
    markers = ("scaled_sizes", "smoke_mode", "BENCH_SMOKE")
    for path in sorted(BENCH_ROOT.glob("bench_*.py")):
        text = path.read_text(encoding="utf-8")
        if not any(marker in text for marker in markers):
            violations.append(
                f"{relative(path)}:1: benchmark never consults BENCH_SMOKE "
                "(use scaled_sizes()/smoke_mode() from benchmarks/conftest.py)"
            )
    return violations


# ----------------------------------------------------------------------
# Rule 4: batch-face operators are covered by the static verifier
# ----------------------------------------------------------------------
def _batch_width_registry_keys() -> List[str]:
    """The class names keyed in verify_plan's ``_BATCH_WIDTHS`` table."""
    tree = ast.parse(VERIFIER_FILE.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        targets = {
            target.id for target in node.targets if isinstance(target, ast.Name)
        }
        if "_BATCH_WIDTHS" in targets and isinstance(node.value, ast.Dict):
            return [
                key.id for key in node.value.keys if isinstance(key, ast.Name)
            ]
    return []


def check_batch_face_registry() -> List[str]:
    violations: List[str] = []
    registered = set(_batch_width_registry_keys())
    if not registered:
        violations.append(
            f"{relative(VERIFIER_FILE)}:1: _BATCH_WIDTHS registry not found "
            "(the batch-face width check has nothing to dispatch on)"
        )
        return violations
    tree = ast.parse(OPERATORS_FILE.read_text(encoding="utf-8"))
    batch_methods = {"iter_batches", "_materialize_encoded"}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {base.id for base in node.bases if isinstance(base, ast.Name)}
        if "Operator" not in bases:
            continue
        methods = {
            item.name for item in node.body if isinstance(item, ast.FunctionDef)
        }
        if methods & batch_methods and node.name not in registered:
            violations.append(
                f"{relative(OPERATORS_FILE)}:{node.lineno}: operator "
                f"{node.name} overrides the batch face but is not in "
                "verify_plan._BATCH_WIDTHS (PLAN013 would fire on every plan)"
            )
    return violations


# ----------------------------------------------------------------------
# Rule 5: plan entry points (planner= and execute) accept backend=
# ----------------------------------------------------------------------
PLANNER_FILES = (
    REPO_ROOT / "src" / "repro" / "evaluation" / "join_plans.py",
    REPO_ROOT / "src" / "repro" / "evaluation" / "planner_dp.py",
)


def check_planner_backend_parameter() -> List[str]:
    violations: List[str] = []
    for path in PLANNER_FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            arguments = {
                argument.arg
                for argument in node.args.args + node.args.kwonlyargs
            }
            is_entry_point = "planner" in arguments and "database" in arguments
            if is_entry_point and "backend" not in arguments:
                violations.append(
                    f"{relative(path)}:{node.lineno}: plan entry point "
                    f"{node.name} does not accept backend= "
                    "(it executes the plan, on either backend)"
                )
    return violations


# ----------------------------------------------------------------------
# Rule 6: operators assign their fields only in __init__
# ----------------------------------------------------------------------
def _self_assignments(function: ast.FunctionDef) -> List[ast.Attribute]:
    """Every ``self.<attr>`` target assigned anywhere inside ``function``."""
    targets: List[ast.expr] = []
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            targets.extend(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets.append(node.target)
    found: List[ast.Attribute] = []
    for target in targets:
        for node in ast.walk(target):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                found.append(node)
    return found


def check_operator_immutability(source: Optional[str] = None) -> List[str]:
    """Rule 6 over ``operators.py`` (or over ``source``, for the tests)."""
    if source is None:
        source = OPERATORS_FILE.read_text(encoding="utf-8")
    violations: List[str] = []
    operators = {"Operator"}
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {base.id for base in node.bases if isinstance(base, ast.Name)}
        if node.name != "Operator" and not bases & operators:
            continue
        operators.add(node.name)
        for item in node.body:
            if not isinstance(item, ast.FunctionDef) or item.name == "__init__":
                continue
            for target in _self_assignments(item):
                violations.append(
                    f"{relative(OPERATORS_FILE)}:{target.lineno}: operator "
                    f"{node.name}.{item.name} assigns self.{target.attr} "
                    "outside __init__ (run state belongs to the "
                    "ExecutionContext's run map)"
                )
    return violations


def main() -> int:
    violations = (
        check_operator_faces()
        + check_mutable_defaults()
        + check_bench_smoke()
        + check_batch_face_registry()
        + check_planner_backend_parameter()
        + check_operator_immutability()
    )
    for violation in violations:
        print(violation)
    if violations:
        print(f"lint: {len(violations)} convention violation(s)")
        return 1
    print(
        "lint: conventions hold "
        "(operator faces, defaults, BENCH_SMOKE, batch-face registry, "
        "plan entry point backend= parameter, immutable operators)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
