#!/usr/bin/env python
"""Repository-convention lint — rules a generic linter cannot know.

Seven rules, each encoding a convention the codebase actually relies on:

1. **One operator face** — every concrete operator node in
   ``src/repro/evaluation/operators.py`` implements the materialising
   face (``_materialize_encoded``) and ``label()``, so plans can always
   be materialised and rendered.  No operator defines a second face: not
   the tuple-at-a-time one (``_materialize``/``iter_rows``), whose engine
   is the differential oracle in ``tests/helpers/tuple_engine.py``, and
   not a batch stream (``iter_batches``), since the plan route streams in
   ``join_plans.iter_plan_answers`` and cursor plans in
   ``CursorEnumerate.iter_rows_encoded``.
2. **No mutable default arguments** anywhere under ``src/`` — a default
   ``[]``/``{}``/``set()`` is shared across calls; the engines pass
   relations and bindings through deep call chains where that aliasing is
   a silent correctness bug.
3. **Benchmarks honour BENCH_SMOKE** — every ``benchmarks/bench_*.py``
   must consult the smoke-mode machinery (``scaled_sizes``/``smoke_mode``
   or the raw ``BENCH_SMOKE`` variable) so `make bench-smoke` and CI can
   run the whole suite in seconds.
4. **Batch face is verifier-covered** — every operator class that
   overrides the batch face (``_materialize_encoded``) must be registered in the ``_BATCH_WIDTHS`` table of
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
7. **Kernels sort by radix only** — in
   ``src/repro/evaluation/parallel.py`` ``argsort`` appears only inside
   ``_stable_order`` (the radix ordering primitive, which sorts 16-bit
   digits), and ``unique``, ``sort``, ``lexsort`` and ``sorted`` not at
   all, so a comparison sort cannot creep back into the dense-code
   kernels.

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
KERNELS_FILE = REPO_ROOT / "src" / "repro" / "evaluation" / "parallel.py"
BENCH_ROOT = REPO_ROOT / "benchmarks"

MUTABLE_CALLS = {"list", "dict", "set"}


def relative(path: pathlib.Path) -> str:
    return str(path.relative_to(REPO_ROOT))


# ----------------------------------------------------------------------
# Rule 1: operator nodes implement the materialising face, and only that
# ----------------------------------------------------------------------
TUPLE_FACES = ("_materialize", "iter_rows")
STREAM_FACE = "iter_batches"


def check_operator_faces(source: Optional[str] = None) -> List[str]:
    """Rule 1 over ``operators.py`` (or over ``source``, for the tests)."""
    if source is None:
        source = OPERATORS_FILE.read_text(encoding="utf-8")
    violations: List[str] = []
    tree = ast.parse(source)
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        is_node = "Operator" in _bases(node)
        if not is_node and node.name != "Operator":
            continue
        methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        where = f"{relative(OPERATORS_FILE)}:{node.lineno}: operator {node.name}"
        for face in TUPLE_FACES:
            if face in methods:
                violations.append(
                    f"{where} defines the tuple face {face} (the tuple engine "
                    "is the oracle in tests/helpers/tuple_engine.py)"
                )
        if STREAM_FACE in methods:
            violations.append(
                f"{where} defines the batch stream {STREAM_FACE} (plans stream "
                "in join_plans.iter_plan_answers and "
                "CursorEnumerate.iter_rows_encoded)"
            )
        if not is_node:
            continue
        if "_materialize_encoded" not in methods:
            violations.append(f"{where} has no materialising face (_materialize_encoded)")
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
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {base.id for base in node.bases if isinstance(base, ast.Name)}
        if "Operator" not in bases:
            continue
        methods = {
            item.name for item in node.body if isinstance(item, ast.FunctionDef)
        }
        if "_materialize_encoded" in methods and node.name not in registered:
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


# ----------------------------------------------------------------------
# Rule 7: the dense-code kernels sort by radix only
# ----------------------------------------------------------------------
ORDER_PRIMITIVE = "_stable_order"
COMPARISON_SORTS = {"unique", "sort", "lexsort", "sorted"}


def check_kernel_sorts(source: Optional[str] = None) -> List[str]:
    """Rule 7 over ``parallel.py`` (or over ``source``, for the tests)."""
    if source is None:
        source = KERNELS_FILE.read_text(encoding="utf-8")
    tree = ast.parse(source)
    in_primitive: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == ORDER_PRIMITIVE:
            in_primitive.update(id(inner) for inner in ast.walk(node))
    violations: List[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        else:
            continue
        if name in COMPARISON_SORTS or (
            name == "argsort" and id(node) not in in_primitive
        ):
            violations.append(
                f"{relative(KERNELS_FILE)}:{node.lineno}: uses {name} (order "
                f"rows through the radix primitive {ORDER_PRIMITIVE} only)"
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
        + check_kernel_sorts()
    )
    for violation in violations:
        print(violation)
    if violations:
        print(f"lint: {len(violations)} convention violation(s)")
        return 1
    print(
        "lint: conventions hold "
        "(operator faces, defaults, BENCH_SMOKE, batch-face registry, "
        "immutable operators, one scan path, radix-only kernels)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
