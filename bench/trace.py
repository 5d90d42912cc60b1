"""Outside-in layer tracing: span-recording wrappers around public functions.

Nothing in ``src/`` knows about this module.  :data:`TARGETS` is one table of
dotted paths, each mapped to the span (layer) name it records.  For every
target, :meth:`Tracer.install` replaces the attribute with a wrapper through
``setattr``; :meth:`Tracer.uninstall` puts the original back.  A name that
the program imports by value is patched where it is called (for example
``repro.service.core``, not ``repro.queries.core_minimization.core``).
Operators are traced through the base ``Operator.materialize`` and
``materialize_encoded``, with spans named after ``type(self).__name__``;
streamed answers are traced by timing each ``next()`` on the answer iterator.

A target that no longer resolves is recorded in :attr:`Tracer.missing` with
the reason, and the metrics that depend on it are reported as missing: a
later change that deletes a function degrades the trace instead of breaking
the benchmark.

A span records its name, start, end, parent span, request id and an
optional note.  Spans stay in memory; :meth:`Tracer.write` writes them
once, and :func:`summarise` turns them into the per-layer metrics.  A
span's self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import threading
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Span name placeholder: the span is named ``operators.<class name>``.
OPERATOR = "operators.*"


@dataclass(frozen=True)
class Target:
    """One traced attribute: where it lives and which span it records.

    ``within`` restricts recording to calls made directly inside an open span
    of that name (``Instance.add`` is traced only as the service's write, not
    in the chase's thousands of calls).  ``on_result`` names a hook in
    :data:`HOOKS` that reads the return value.
    """

    path: str
    span: str
    within: Optional[str] = None
    on_result: Optional[str] = None


TARGETS: Tuple[Target, ...] = (
    # parser
    Target("repro.parse_query", "parser.parse"),
    Target("repro.parse_tgd", "parser.parse"),
    # queries.core_minimization, where core is imported by value
    Target("repro.service.core", "core_minimization.core"),
    Target("repro.core.candidates.core", "core_minimization.core"),
    # service
    Target("repro.service.QueryService.submit", "service.submit"),
    Target("repro.service.canonical_form", "service.canonical_form"),
    Target("repro.service.QueryService.insert", "service.write"),
    Target("repro.service.QueryService.delete", "service.write"),
    # evaluation.semacyclic_eval
    Target("repro.evaluate_iter", "semacyclic_eval.evaluate_iter", on_result="stream"),
    Target(
        "repro.evaluation.semacyclic_eval.resolve_route",
        "semacyclic_eval.resolve_route",
        on_result="route",
    ),
    # core.semantic_acyclicity, chase, containment
    Target(
        "repro.core.semantic_acyclicity.decide_semantic_acyclicity_tgds",
        "semantic_acyclicity.search",
        on_result="decision",
    ),
    Target("repro.core.semantic_acyclicity.chase_query", "chase.chase_query"),
    Target(
        "repro.core.semantic_acyclicity.contained_under_tgds",
        "containment.contained_under_tgds",
    ),
    # hypergraph, evaluation.planner_dp
    Target("repro.evaluation.yannakakis.build_join_tree", "hypergraph.build_join_tree"),
    Target(
        "repro.evaluation.planner_dp.tree_decomposition_min_fill",
        "hypergraph.decomposition",
    ),
    Target("repro.evaluation.planner_dp.DecompositionEvaluator.__init__", "planner_dp.plan"),
    Target("repro.evaluation.planner_dp.plan_dp", "planner_dp.plan"),
    # evaluation.yannakakis: evaluator construction and plan compilation
    Target("repro.evaluation.yannakakis.YannakakisEvaluator.__init__", "yannakakis.compile"),
    Target(
        "repro.evaluation.yannakakis.YannakakisEvaluator.compile_answer_plan",
        "yannakakis.compile",
    ),
    Target(
        "repro.evaluation.yannakakis.YannakakisEvaluator.compile_stream_plan",
        "yannakakis.compile",
    ),
    # evaluation.batch, evaluation.relation
    Target("repro.evaluation.batch.ScanCache.scan", "batch.scan"),
    Target("repro.evaluation.batch.ScanCache.sync", "batch.sync"),
    Target("repro.evaluation.relation.Relation.apply_delta", "relation.apply_delta"),
    # evaluation.encoding
    Target("repro.evaluation.relation.Relation.encoded", "encoding.encode"),
    Target("repro.evaluation.encoding.EncodedRelation.answer_tuples", "encoding.decode"),
    # evaluation.operators
    Target("repro.evaluation.operators.Operator.materialize", OPERATOR),
    Target("repro.evaluation.operators.Operator.materialize_encoded", OPERATOR),
    # evaluation.parallel, imported by value into the operators
    Target("repro.evaluation.operators.parallel_join", "parallel.kernels"),
    Target("repro.evaluation.operators.parallel_semijoin", "parallel.kernels"),
    Target("repro.evaluation.operators.parallel_project", "parallel.kernels"),
    Target("repro.evaluation.operators.parallel_select", "parallel.kernels"),
    # datamodel.instance, as the service's write
    Target("repro.datamodel.instance.Instance.add", "instance.write", within="service.write"),
    Target("repro.datamodel.instance.Instance.discard", "instance.write", within="service.write"),
)

#: The span each streamed ``next()`` records: the cursor enumeration, with
#: the reducers it triggers on the first pull as child spans.
STREAM_SPAN = "operators.CursorEnumerate"

OPERATOR_NAMES = (
    "Scan", "Select", "Project", "Distinct", "SemiJoin", "HashJoin",
    "CursorEnumerate", "BagNode",
)

ROUTES = ("yannakakis", "reformulated", "decomposition")

#: Spans reported as inclusive milliseconds per traced read, ``<span>.ms_per_query``.
PER_QUERY_SPANS = (
    "parser.parse", "core_minimization.core", "service.canonical_form",
    "semantic_acyclicity.search", "chase.chase_query", "containment.contained_under_tgds",
    "hypergraph.build_join_tree", "hypergraph.decomposition", "planner_dp.plan",
    "yannakakis.compile", "batch.scan", "batch.sync", "encoding.encode",
    "encoding.decode", "parallel.kernels",
)


def resolve(path: str) -> Tuple[object, str]:
    """The object holding ``path``'s last component, and that component.

    Raises:
        LookupError: with the reason, when the path does not resolve.
    """
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        break
    else:
        raise LookupError(f"no importable module in {path}")
    try:
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
    except AttributeError as error:
        raise LookupError(f"{path}: {error}") from None
    if not hasattr(owner, parts[-1]):
        raise LookupError(f"{path}: {type(owner).__name__} has no attribute {parts[-1]!r}")
    return owner, parts[-1]


def _note_route(tracer: "Tracer", span: int, result):
    if isinstance(result, tuple) and result:
        tracer.notes[span] = result[0]
    return result


def _note_decision(tracer: "Tracer", span: int, result):
    tracer.notes[span] = [
        getattr(result, "candidates_checked", 0),
        bool(getattr(result, "semantically_acyclic", False)),
    ]
    return result


def _stream(tracer: "Tracer", span: int, result):
    return tracer.timed_iterator(result)


HOOKS: Dict[str, Callable] = {
    "route": _note_route,
    "decision": _note_decision,
    "stream": _stream,
}


class Tracer:
    """Records spans from the wrappers it installs; one per traced phase.

    Spans are stored column-wise in arrays, which the garbage collector does
    not scan, so a long traced phase does not slow the collections of the
    program it measures.  Only the thread that created the tracer records:
    the client's requests run there, and calls from worker threads pass
    straight through.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.requests = array("l")
        #: Span index -> what a result hook noted (route, search outcome).
        self.notes: Dict[int, object] = {}
        #: Target path -> why it could not be traced.
        self.missing: Dict[str, str] = {}
        #: Span names with at least one installed target.
        self.installed: set = set()
        self.origin = time.perf_counter()
        self._thread = threading.get_ident()
        self._stack: List[int] = []
        self._request = -1
        self._requests = 0
        self._undo: List[Tuple[object, str, object, bool]] = []

    # -- recording ------------------------------------------------------
    def _name_id(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def open(self, name: str) -> int:
        index = len(self.starts)
        self.name_ids.append(self._name_id(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self._request)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def request(self, run: Callable[[], object]) -> object:
        """Call ``run`` as one request: a root span all layer spans nest in."""
        self._request = self._requests
        self._requests += 1
        span = self.open("request")
        try:
            return run()
        finally:
            self.close(span)
            self._request = -1

    def timed_iterator(self, iterator: Iterable) -> Iterator:
        iterator = iter(iterator)
        while True:
            span = self.open(STREAM_SPAN)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.close(span)
            yield item

    # -- patching -------------------------------------------------------
    def _wrap(self, function: Callable, target: Target) -> Callable:
        tracer = self
        hook = HOOKS.get(target.on_result) if target.on_result else None
        within = None if target.within is None else self._name_id(target.within)
        fixed = None if target.span == OPERATOR else target.span

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if threading.get_ident() != tracer._thread or (
                within is not None and not (stack and tracer.name_ids[stack[-1]] == within)
            ):
                return function(*args, **kwargs)
            span = tracer.open(fixed or "operators." + type(args[0]).__name__)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(span)
            return result if hook is None else hook(tracer, span, result)

        return traced

    def install(self, targets: Sequence[Target] = TARGETS) -> None:
        for target in targets:
            try:
                owner, attribute = resolve(target.path)
            except LookupError as error:
                self.missing[target.path] = str(error)
                continue
            raw = inspect.getattr_static(owner, attribute)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            own = attribute in vars(owner)
            setattr(owner, attribute, wrapped)
            self._undo.append((owner, attribute, raw, own))
            self.installed.add(target.span)
            if target.on_result == "stream":
                self.installed.add(STREAM_SPAN)

    def uninstall(self) -> None:
        for owner, attribute, raw, own in reversed(self._undo):
            if own:
                setattr(owner, attribute, raw)
            else:
                delattr(owner, attribute)
        self._undo.clear()

    # -- output ---------------------------------------------------------
    def write(self, path: str, **meta: object) -> None:
        """Write every span once, times in microseconds from the tracer's start."""
        origin = self.origin
        rows = [
            [
                self.names[self.name_ids[i]],
                round((self.starts[i] - origin) * 1e6),
                round((self.ends[i] - origin) * 1e6),
                self.parents[i],
                self.requests[i],
                self.notes.get(i),
            ]
            for i in range(len(self.starts))
        ]
        document = dict(meta)
        document.update(
            columns=["name", "start_us", "end_us", "parent", "request", "note"],
            targets={t.path: t.span for t in TARGETS},
            missing=self.missing,
            spans=rows,
        )
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))


def probe_count() -> Optional[int]:
    """The process-wide partition probe counter, if the program still has it."""
    try:
        owner, attribute = resolve("repro.evaluation.relation.Partition.total_probes")
    except LookupError:
        return None
    return getattr(owner, attribute)


class _Totals:
    """Per span name: outermost inclusive time, self time, calls, notes."""

    def __init__(self, tracer: Tracer) -> None:
        starts, ends, parents = tracer.starts, tracer.ends, tracer.parents
        name_ids, names = tracer.name_ids, tracer.names
        count = len(starts)
        covered = [0.0] * count
        for i in range(count):
            if parents[i] >= 0:
                covered[parents[i]] += ends[i] - starts[i]
        request_id = tracer._ids.get("request")
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.notes: Dict[str, list] = defaultdict(list)
        self.request_time = 0.0
        self.request_covered = 0.0
        for i in range(count):
            duration = ends[i] - starts[i]
            name_id = name_ids[i]
            if name_id == request_id:
                self.request_time += duration
                self.request_covered += covered[i]
                continue
            name = names[name_id]
            self.self_time[name] += duration - covered[i]
            self.calls[name] += 1
            if i in tracer.notes:
                self.notes[name].append(tracer.notes[i])
            parent = parents[i]
            while parent >= 0 and name_ids[parent] != name_id:
                parent = parents[parent]
            if parent < 0:  # outermost span of its name: count it once
                self.inclusive[name] += duration


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def summarise(
    tracer: Tracer,
    counters: Dict[str, float],
    traced_reads: Sequence[float],
    writes: int,
    untraced_reads: Sequence[float],
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Per-layer metrics of one traced phase, and the ones that are missing.

    ``counters`` holds the change of the program's own counters over the
    traced phase (``plan_hits``, ``delta_merges``, ``probes``, ...) plus
    sizes read at the end (``encoder_terms``, ``dead_codes``).
    """
    totals = _Totals(tracer)
    queries = max(len(traced_reads), 1)
    per_write = max(writes, 1)
    ms = 1000.0

    def inclusive(name: str, base: int) -> float:
        return ms * totals.inclusive[name] / base

    def own(name: str) -> float:
        return ms * totals.self_time[name] / queries

    routes = totals.notes["semacyclic_eval.resolve_route"]
    decisions = totals.notes["semantic_acyclicity.search"]
    c = counters.get
    merges = totals.calls["relation.apply_delta"]

    # metric -> (span names and counters it needs, how to compute it)
    table: Dict[str, Tuple[Tuple[str, ...], Callable[[], float]]] = {
        f"{span}.ms_per_query": ((span,), lambda span=span: inclusive(span, queries))
        for span in PER_QUERY_SPANS
    }
    table.update({
        "service.plan_hit_ratio": (
            ("counter:plan_hits", "counter:plan_misses"),
            lambda: _ratio(c("plan_hits"), c("plan_hits") + c("plan_misses"))),
        "service.replans": (("counter:replans",), lambda: c("replans")),
        "service.write_wait.ms_per_write": (
            ("service.write", "instance.write"),
            lambda: inclusive("service.write", per_write) - inclusive("instance.write", per_write)),
        "semacyclic_eval.resolve_route.self_ms_per_query": (
            ("semacyclic_eval.resolve_route",), lambda: own("semacyclic_eval.resolve_route")),
        "semantic_acyclicity.candidates_per_search": (
            ("semantic_acyclicity.search",),
            lambda: _ratio(sum(n[0] for n in decisions), len(decisions))),
        "semantic_acyclicity.found_ratio": (
            ("semantic_acyclicity.search",),
            lambda: _ratio(sum(1 for n in decisions if n[1]), len(decisions))),
        "containment.contained_under_tgds.calls_per_query": (
            ("containment.contained_under_tgds",),
            lambda: totals.calls["containment.contained_under_tgds"] / queries),
        "batch.scan_hit_ratio": (
            ("counter:scans_built", "counter:scans_served"),
            lambda: 1.0 - _ratio(c("scans_built"), c("scans_served")) if c("scans_served")
            else 0.0),
        "batch.delta_merges_per_write": (
            ("counter:delta_merges",), lambda: _ratio(c("delta_merges"), writes)),
        "batch.full_rebuilds": (("counter:full_rebuilds",), lambda: c("full_rebuilds")),
        "relation.apply_delta.ms_per_merge": (
            ("relation.apply_delta",),
            lambda: _ratio(ms * totals.inclusive["relation.apply_delta"], merges)),
        "encoding.encoder_terms": (("counter:encoder_terms",), lambda: c("encoder_terms")),
        "encoding.dead_codes": (("counter:dead_codes",), lambda: c("dead_codes")),
        "operators.probes_per_query": (("counter:probes",), lambda: c("probes") / queries),
        "parallel.kernel_calls_per_query": (
            ("parallel.kernels",), lambda: totals.calls["parallel.kernels"] / queries),
        "instance.write.ms_per_write": (
            ("instance.write",), lambda: inclusive("instance.write", per_write)),
        "trace.coverage": ((), lambda: _ratio(totals.request_covered, totals.request_time)),
        "trace.overhead": ((), lambda: _ratio(
            statistics.median(traced_reads) if traced_reads else 0.0,
            statistics.median(untraced_reads) if untraced_reads else 0.0)),
    })
    for route in ROUTES:
        table[f"semacyclic_eval.route_share.{route}"] = (
            ("semacyclic_eval.resolve_route",),
            lambda route=route: _ratio(sum(1 for r in routes if r == route), len(routes)),
        )
    for operator in OPERATOR_NAMES:
        name = f"operators.{operator}"
        needs = (STREAM_SPAN,) if name == STREAM_SPAN else (OPERATOR,)
        table[f"{name}.self_ms_per_query"] = (needs, lambda name=name: own(name))

    values: Dict[str, float] = {}
    missing: Dict[str, str] = {}
    for metric, (needs, compute) in sorted(table.items()):
        absent = []
        for need in needs:
            if need.startswith("counter:"):
                if need[len("counter:"):] not in counters:
                    absent.append(f"the workload reports no {need[len('counter:'):]} counter")
            elif need not in tracer.installed:
                absent.append(_why(tracer, need))
        if absent:
            missing[metric] = "; ".join(absent)
        else:
            values[metric] = float(compute())
    return values, missing


def _why(tracer: Tracer, span: str) -> str:
    reasons = [
        f"{t.path}: {tracer.missing[t.path]}"
        for t in TARGETS
        if t.span == span and t.path in tracer.missing
    ]
    return "; ".join(reasons) or f"no target records {span}"
