#!/usr/bin/env python
"""Repository-convention lint — rules a generic linter cannot know.

Thirteen rules, each encoding a convention the codebase actually relies on:

1. **One operator face** — every concrete operator node in
   ``src/repro/evaluation/operators.py`` implements the materialising
   face (``_materialize_encoded``) and ``label()``, so plans can always
   be materialised and rendered.  No operator defines a second face: not
   the tuple-at-a-time one (``_materialize``/``iter_rows``), whose engine
   is the differential oracle in ``tests/helpers/tuple_engine.py``, and
   not a stream of its own (``iter_batches``/``iter_rows_encoded``), since
   every stream runs the one batch loop ``join_plans.stream_chain``.
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
8. **Probes are counted per kernel call** — under
   ``src/repro/evaluation/`` no ``add_probes`` call sits inside a
   ``for``/``while`` loop or a comprehension.  The counter's lock is taken
   once per call: a kernel counts its probes after its loop, so the
   bookkeeping never costs per element.  ``Partition.get``'s single
   ``add_probes(1)`` is a call of its own and stays legal.
9. **Every environment knob is deliberate** — the ``REPRO_*`` names that
   ``src/`` reads from the environment (``os.environ.get``/``[...]``/``in``,
   ``os.getenv``, by literal or by a module-level string constant) are
   exactly :data:`ENVIRONMENT_KNOBS`.  Each knob is one more execution
   path to test, so a new one needs an edit here; a key the rule cannot
   resolve to a string is flagged too.
10. **Every export has a user** — each name in the ``__all__`` of a
    package ``__init__`` under ``src/repro`` is referenced somewhere
    besides its own definition and the ``__init__`` re-exports: in a
    ``.py`` file under ``src``, ``tests``, ``benchmarks``, ``examples``,
    ``bench`` or ``scripts``, or in ``README.md``.  A reference is the
    name as a whole word, in code, a string or prose alike, so a name
    that ``bench/trace.py`` wraps by path counts as used.  An export
    nothing calls is surface to keep working for no one.
11. **No unused imports** — every name that a module under ``src/repro``
    other than a package ``__init__`` imports at module level (in its body
    or in a top-level ``if``) occurs in that module as a name.  An import
    line that says ``noqa`` is exempt: ``operators.py`` keeps
    ``parallel_select`` there because ``bench/trace.py`` wraps it by path.
    An unused import is a dependency the reader must trace for nothing.
12. **Equality comes with its hash** — a class under ``src/repro`` that
    defines ``__eq__`` also sets ``__hash__`` in the same class body (a
    ``def``, or an assignment such as ``__hash__ = None`` for a mutable
    class).  Python clears ``__hash__`` in a class that defines ``__eq__``
    without it, so an inherited hash silently disappears and the values
    stop working as dict keys.
13. **One collector pause** — under ``src/repro``, ``gc.disable``,
    ``gc.enable``, ``gc.freeze``, ``gc.unfreeze``, ``gc.set_threshold``
    and ``gc.callbacks`` are used only inside ``_collector_paused`` in
    ``src/repro/evaluation/encoding.py``, which pauses the cycle collector
    around large decodes and keeps the pause consistent across threads,
    and inside ``_clear_credit``, its one hook that restores the caller's
    thresholds at the next collection.  A second switch would re-enable
    the collector under a pause, leave it off after one, or clobber the
    thresholds the pause raised or restored.

Exit 0 when clean, 1 with one line per violation otherwise (run via
``make lint``).
"""

import ast
import pathlib
import re
import sys
from collections import Counter
from typing import Dict, List, Optional, Set, Tuple

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
EVALUATION_ROOT = REPO_ROOT / "src" / "repro" / "evaluation"
BENCH_ROOT = REPO_ROOT / "benchmarks"
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
REFERENCE_ROOTS = ("src", "tests", "benchmarks", "examples", "bench", "scripts")
REFERENCE_DOCS = ("README.md",)

MUTABLE_CALLS = {"list", "dict", "set"}


def relative(path: pathlib.Path) -> str:
    return str(path.relative_to(REPO_ROOT))


# ----------------------------------------------------------------------
# Rule 1: operator nodes implement the materialising face, and only that
# ----------------------------------------------------------------------
TUPLE_FACES = ("_materialize", "iter_rows")
STREAM_FACES = ("iter_batches", "iter_rows_encoded")


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
        for face in STREAM_FACES:
            if face in methods:
                violations.append(
                    f"{where} defines the stream {face} (every stream runs "
                    "the batch loop join_plans.stream_chain)"
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


# ----------------------------------------------------------------------
# Rule 8: probes are counted once per kernel call
# ----------------------------------------------------------------------
PROBE_COUNTER = "add_probes"
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _repeated_parts(node: ast.AST) -> List[ast.AST]:
    """The parts of a loop or comprehension that run once per element."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return node.body + node.orelse
    if isinstance(node, ast.While):
        return [node.test] + node.body + node.orelse
    if isinstance(node, COMPREHENSIONS):
        # The first generator's iterable is evaluated once, outside.
        first, *rest = node.generators
        parts: List[ast.AST] = [first.target, *first.ifs, *rest]
        if isinstance(node, ast.DictComp):
            return parts + [node.key, node.value]
        return parts + [node.elt]
    return []


def _callee(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def check_probe_counts(sources: Optional[Dict[str, str]] = None) -> List[str]:
    """Rule 8 over ``src/repro/evaluation/`` (or over ``sources``, name ->
    text, for the tests)."""
    if sources is None:
        sources = {
            relative(path): path.read_text(encoding="utf-8")
            for path in sorted(EVALUATION_ROOT.rglob("*.py"))
        }
    violations: List[str] = []
    for name, source in sources.items():
        flagged: Set[int] = set()
        for loop in ast.walk(ast.parse(source)):
            for part in _repeated_parts(loop):
                for node in ast.walk(part):
                    if (
                        isinstance(node, ast.Call)
                        and _callee(node) == PROBE_COUNTER
                        and id(node) not in flagged  # nested loops meet it twice
                    ):
                        flagged.add(id(node))
                        violations.append(
                            f"{name}:{node.lineno}: calls {PROBE_COUNTER} inside a "
                            "loop (count a kernel's probes once, after its loop)"
                        )
    return violations


# ----------------------------------------------------------------------
# Rule 9: the REPRO_* environment knobs src/ reads are a fixed set
# ----------------------------------------------------------------------
#: ``REPRO_VERIFY`` statically verifies every emitted plan;
#: ``REPRO_NUMPY`` selects the numpy column storage.
ENVIRONMENT_KNOBS = {"REPRO_VERIFY", "REPRO_NUMPY"}


def _is_environ(node: ast.expr) -> bool:
    """``os.environ`` or a bare ``environ``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "environ"
    return isinstance(node, ast.Name) and node.id == "environ"


def _environment_keys(tree: ast.AST) -> List[Tuple[int, ast.expr]]:
    """``(line, key expression)`` of every environment read in ``tree``."""
    keys: List[Tuple[int, ast.expr]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            environ_get = isinstance(func, ast.Attribute) and (
                func.attr == "get" and _is_environ(func.value)
            )
            if environ_get or _callee(node) == "getenv":
                keys.append((node.lineno, node.args[0]))
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            keys.append((node.lineno, node.slice))
        elif (
            isinstance(node, ast.Compare)
            and isinstance(node.ops[0], (ast.In, ast.NotIn))
            and _is_environ(node.comparators[0])
        ):
            keys.append((node.lineno, node.left))
    return keys


def check_environment_knobs(sources: Optional[Dict[str, str]] = None) -> List[str]:
    """Rule 9 over ``src/`` (or over ``sources``, name -> text, for the tests)."""
    if sources is None:
        sources = {
            relative(path): path.read_text(encoding="utf-8")
            for path in sorted(SOURCE_ROOT.rglob("*.py"))
        }
    violations: List[str] = []
    knobs: Set[str] = set()
    for name, source in sources.items():
        tree = ast.parse(source)
        constants = {
            target.id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for line, key in _environment_keys(tree):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                value: Optional[str] = key.value
            elif isinstance(key, ast.Name):
                value = constants.get(key.id)
            else:
                value = None
            if value is None:
                violations.append(
                    f"{name}:{line}: reads an environment variable whose name "
                    "is not a string constant (name it, so the knob is visible)"
                )
            elif value.startswith("REPRO_"):
                knobs.add(value)
                if value not in ENVIRONMENT_KNOBS:
                    violations.append(
                        f"{name}:{line}: reads the unlisted knob {value} "
                        "(add it to ENVIRONMENT_KNOBS deliberately, or drop it)"
                    )
    for missing in sorted(ENVIRONMENT_KNOBS - knobs):
        violations.append(
            f"scripts/lint_conventions.py:1: ENVIRONMENT_KNOBS lists {missing}, "
            "which src/ no longer reads (drop it from the set)"
        )
    return violations


# ----------------------------------------------------------------------
# Rule 10: every name a package __init__ exports is referenced
# ----------------------------------------------------------------------
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _exports(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of every string in a module's ``__all__``."""
    exports: List[Tuple[int, str]] = []
    for node in ast.parse(source).body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            exports.extend(
                (item.lineno, item.value)
                for item in node.value.elts
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            )
    return exports


def _definition_lines(source: str) -> Dict[str, Set[int]]:
    """Top-level name -> the lines of its own ``def``/``class``/assignment."""
    spans: Dict[str, Set[int]] = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            start = node.lineno
        else:
            continue
        for name in names:
            spans.setdefault(name, set()).update(range(start, node.end_lineno + 1))
    return spans


def _reference_files() -> Dict[str, str]:
    """Every file rule 10 reads references from, name -> text; the
    package ``__init__`` files under ``src/repro`` are the re-exports."""
    paths = [
        path
        for root in REFERENCE_ROOTS
        for path in sorted((REPO_ROOT / root).rglob("*.py"))
        if not (path.name == "__init__.py" and PACKAGE_ROOT in path.parents)
    ] + [REPO_ROOT / name for name in REFERENCE_DOCS]
    return {relative(path): path.read_text(encoding="utf-8") for path in paths}


def check_unused_exports(
    packages: Optional[Dict[str, str]] = None,
    references: Optional[Dict[str, str]] = None,
) -> List[str]:
    """Rule 10 over the package ``__init__`` files under ``src/repro`` and
    the reference files (or over ``packages`` and ``references``, name ->
    text, for the tests).  Words inside a top-level definition under
    ``src/`` do not count as references to that definition's own name."""
    if packages is None:
        packages = {
            relative(path): path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE_ROOT.rglob("__init__.py"))
        }
    if references is None:
        references = _reference_files()
    counts: Counter = Counter()
    for name, text in references.items():
        own = _definition_lines(text) if name.startswith("src/") and name.endswith(".py") else {}
        for line_number, line in enumerate(text.splitlines(), start=1):
            for word in WORD.findall(line):
                if line_number not in own.get(word, ()):
                    counts[word] += 1
    violations: List[str] = []
    for package, source in packages.items():
        for line, export in _exports(source):
            if not counts[export]:
                violations.append(
                    f"{package}:{line}: exports {export}, which nothing references "
                    "outside its definition (delete it, or drop the export)"
                )
    return violations


# ----------------------------------------------------------------------
# Rule 11: no unused module-level imports
# ----------------------------------------------------------------------
def _module_imports(tree: ast.Module, lines: List[str]) -> List[Tuple[int, str]]:
    """``(line, bound name)`` of the imports in the body of ``tree`` and in
    its top-level ``if`` statements, ``from __future__`` aside.  The line is
    the name's own in a statement over several lines (found by search where
    ``ast.alias`` has no ``lineno``, before Python 3.10)."""
    statements = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.If):
            statements.extend(node.body + node.orelse)
    imports: List[Tuple[int, str]] = []
    for node in statements:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                line = getattr(alias, "lineno", None) or next(
                    number
                    for number in range(node.end_lineno, node.lineno - 1, -1)
                    if bound in WORD.findall(lines[number - 1])
                )
                imports.append((line, bound))
    return imports


def _used_names(tree: ast.Module) -> Set[str]:
    """The names ``tree`` mentions, in code or in a quoted annotation."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used.update(WORD.findall(part.value))
    return used


def check_unused_imports(sources: Optional[Dict[str, str]] = None) -> List[str]:
    """Rule 11 over the non-``__init__`` modules under ``src/repro`` (or
    over ``sources``, name -> text, for the tests)."""
    if sources is None:
        sources = {
            relative(path): path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE_ROOT.rglob("*.py"))
            if path.name != "__init__.py"
        }
    violations: List[str] = []
    for name, source in sources.items():
        tree = ast.parse(source)
        lines = source.splitlines()
        used = _used_names(tree)
        for line, imported in _module_imports(tree, lines):
            if imported not in used and "noqa" not in lines[line - 1]:
                violations.append(
                    f"{name}:{line}: imports {imported}, which the module never uses"
                )
    return violations


# ----------------------------------------------------------------------
# Rule 12: a class that defines __eq__ sets __hash__ beside it
# ----------------------------------------------------------------------
def _sets_name(statement: ast.stmt, name: str) -> bool:
    """``statement`` defines ``name`` in its class body (``def`` or assignment)."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return statement.name == name
    if isinstance(statement, ast.Assign):
        return any(isinstance(t, ast.Name) and t.id == name for t in statement.targets)
    if isinstance(statement, ast.AnnAssign):
        return isinstance(statement.target, ast.Name) and statement.target.id == name
    return False


def check_eq_without_hash(sources: Optional[Dict[str, str]] = None) -> List[str]:
    """Rule 12 over every module under ``src/repro`` (or over ``sources``,
    name -> text, for the tests)."""
    if sources is None:
        sources = {
            relative(path): path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        }
    violations: List[str] = []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef):
                continue
            if any(_sets_name(statement, "__eq__") for statement in node.body) and not any(
                _sets_name(statement, "__hash__") for statement in node.body
            ):
                violations.append(
                    f"{name}:{node.lineno}: {node.name} defines __eq__ but not __hash__"
                )
    return violations


# ----------------------------------------------------------------------
# Rule 13: the cycle collector is switched only by the pause helper and its hook
# ----------------------------------------------------------------------
COLLECTOR_SWITCHES = {"disable", "enable", "freeze", "unfreeze", "set_threshold", "callbacks"}
PAUSE_HOME = "src/repro/evaluation/encoding.py"
PAUSE_FUNCTIONS = ("_collector_paused", "_clear_credit")


def check_collector_switches(sources: Optional[Dict[str, str]] = None) -> List[str]:
    """Rule 13 over every module under ``src/repro`` (or over ``sources``,
    name -> text, for the tests)."""
    if sources is None:
        sources = {
            relative(path): path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        }
    violations: List[str] = []
    for name, source in sources.items():
        tree = ast.parse(source)
        allowed: Set[int] = set()
        if name == PAUSE_HOME:
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name in PAUSE_FUNCTIONS:
                    allowed.update(id(inner) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                switches = sorted(
                    alias.name for alias in node.names if alias.name in COLLECTOR_SWITCHES
                )
                if switches:
                    violations.append(
                        f"{name}:{node.lineno}: imports gc.{', gc.'.join(switches)} "
                        f"(switch the collector only in {' or '.join(PAUSE_FUNCTIONS)})"
                    )
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "gc"
                and node.attr in COLLECTOR_SWITCHES
                and id(node) not in allowed
            ):
                violations.append(
                    f"{name}:{node.lineno}: uses gc.{node.attr} outside "
                    f"{' or '.join(PAUSE_FUNCTIONS)} in {PAUSE_HOME}"
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
        + check_probe_counts()
        + check_environment_knobs()
        + check_unused_exports()
        + check_unused_imports()
        + check_eq_without_hash()
        + check_collector_switches()
    )
    for violation in violations:
        print(violation)
    if violations:
        print(f"lint: {len(violations)} convention violation(s)")
        return 1
    print(
        "lint: conventions hold "
        "(operator faces, defaults, BENCH_SMOKE, batch-face registry, "
        "immutable operators, one scan path, radix-only kernels, "
        "probes counted per kernel call, environment knobs, used exports, "
        "used imports, hash beside equality, one collector pause)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
