#!/usr/bin/env python
"""Repository-convention lint — rules a generic linter cannot know.

Six rules, each encoding a convention the codebase actually relies on:

1. **Operator faces** — every concrete operator node in
   ``src/repro/evaluation/operators.py`` implements the batch faces
   (``_materialize_encoded``, and ``iter_batches`` unless the base
   chunking default serves) and ``label()``, so plans can always be
   materialised, streamed and rendered.  No operator defines a
   tuple-at-a-time face (``_materialize``/``iter_rows``): that engine is
   the differential oracle in ``tests/helpers/tuple_engine.py``.
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
5. **Operators are immutable** — an operator class in ``operators.py``
   (``Operator`` or any subclass of it) assigns ``self.<attr>`` only inside
   ``__init__``.  Run state belongs to the run's ``ExecutionContext``, so
   one compiled plan can be shared by any number of runs and threads.
6. **One scan path** — apart from ``batch.py``, no module of the
   evaluation stack (``operators.py``, ``yannakakis.py``,
   ``join_plans.py``, ``planner_dp.py``, ``semacyclic_eval.py``,
   ``service.py``) reads facts itself: no call to ``atoms_with_predicate``
   or ``Relation.from_atom``.  Every scan goes through ``ScanCache``,
   which keeps one base relation per predicate and its epoch stamps.

Exit 0 when clean, 1 with one line per violation otherwise (run via
``make lint``).
"""

import ast
import pathlib
import sys
from typing import Dict, List, Optional, Set

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OPERATORS_FILE = REPO_ROOT / "src" / "repro" / "evaluation" / "operators.py"
VERIFIER_FILE = REPO_ROOT / "src" / "repro" / "analysis" / "verify_plan.py"
SOURCE_ROOT = REPO_ROOT / "src"
EVALUATION_STACK = [
    REPO_ROOT / "src" / "repro" / "evaluation" / name
    for name in (
        "operators.py",
        "yannakakis.py",
        "join_plans.py",
        "planner_dp.py",
        "semacyclic_eval.py",
    )
] + [REPO_ROOT / "src" / "repro" / "service.py"]
BENCH_ROOT = REPO_ROOT / "benchmarks"

MUTABLE_CALLS = {"list", "dict", "set"}


def relative(path: pathlib.Path) -> str:
    return str(path.relative_to(REPO_ROOT))


# ----------------------------------------------------------------------
# Rule 1: operator nodes implement the batch faces, and only those
# ----------------------------------------------------------------------
TUPLE_FACES = ("_materialize", "iter_rows")


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
    # base default (chunk the encoded materialisation); if that default
    # ever goes away, every non-overriding node below becomes a violation.
    base_has_stream_default = "iter_batches" in class_methods.get("Operator", set())
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        is_node = "Operator" in _bases(node)
        if not is_node and node.name != "Operator":
            continue
        methods = class_methods[node.name]
        where = f"{relative(OPERATORS_FILE)}:{node.lineno}: operator {node.name}"
        for face in TUPLE_FACES:
            if face in methods:
                violations.append(
                    f"{where} defines the tuple face {face} (the tuple engine "
                    "is the oracle in tests/helpers/tuple_engine.py)"
                )
        if not is_node:
            continue
        if "_materialize_encoded" not in methods:
            violations.append(f"{where} has no materialising face (_materialize_encoded)")
        if "iter_batches" not in methods and not base_has_stream_default:
            violations.append(f"{where} has no streaming face (iter_batches)")
        if "label" not in methods:
            violations.append(f"{where} cannot be rendered (label)")
    return violations


def _bases(node: ast.ClassDef) -> Set[str]:
    return {base.id for base in node.bases if isinstance(base, ast.Name)}


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
# Rule 5: operators assign their fields only in __init__
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
    """Rule 5 over ``operators.py`` (or over ``source``, for the tests)."""
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


# ----------------------------------------------------------------------
# Rule 6: the evaluation stack scans only through ScanCache
# ----------------------------------------------------------------------
FACT_READERS = {"atoms_with_predicate", "from_atom"}


def check_scan_path(sources: Optional[Dict[str, str]] = None) -> List[str]:
    """Rule 6 over the evaluation stack (or over ``sources``, name ->
    text, for the tests)."""
    if sources is None:
        sources = {
            relative(path): path.read_text(encoding="utf-8") for path in EVALUATION_STACK
        }
    violations: List[str] = []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in FACT_READERS
            ):
                violations.append(
                    f"{name}:{node.lineno}: calls {node.func.attr} (read facts "
                    "through ScanCache.scan or ScanCache.base_relation)"
                )
    return violations


def main() -> int:
    violations = (
        check_operator_faces()
        + check_mutable_defaults()
        + check_bench_smoke()
        + check_batch_face_registry()
        + check_operator_immutability()
        + check_scan_path()
    )
    for violation in violations:
        print(violation)
    if violations:
        print(f"lint: {len(violations)} convention violation(s)")
        return 1
    print(
        "lint: conventions hold "
        "(operator faces, defaults, BENCH_SMOKE, batch-face registry, "
        "immutable operators, one scan path)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
