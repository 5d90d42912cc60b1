"""Static diagnostics for query/dependency workloads — the ``WKL*`` pass.

The plan verifier certifies what the compilers *emit*; this pass certifies
what the user *submits*: conjunctive queries and dependency sets, before any
database is touched.  Each check reuses the decision machinery the paper's
procedures are already built on, and its diagnostic *explains* the verdict
rather than just stating it:

======= ============================================================ ========
code    finding                                                      severity
======= ============================================================ ========
WKL001  query fails construction (unsafe head, nulls, parse error)   error
WKL002  one predicate name used with two different arities           error
WKL003  an atom disagrees with a declared :class:`Schema`            error/
        (arity clash = error, undeclared predicate = warning)        warning
WKL004  the query is trivially unsatisfiable under the egds (the     error
        egd chase of the frozen query must identify two distinct
        constants — :func:`repro.chase.egd_chase.egd_chase_query`)
WKL005  no chase-termination certificate applies to the tgds; the    warning
        message exhibits a position-graph cycle through a special
        edge (the weak-acyclicity refutation witness)
WKL006  chase termination certified, with the certificate's          info
        explanation (:func:`repro.chase.termination
        .certify_termination`)
WKL007  the tgd set is not sticky: some tgd joins a marked variable  info
        (:func:`repro.dependencies.marking.compute_marking`)
WKL008  the query body is disconnected — evaluation will contain a   info
        cross product
======= ============================================================ ========

All checks collect :class:`~repro.analysis.diagnostics.Diagnostic` records
and never raise; ``repro check`` maps the worst severity to its exit code.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..chase.egd_chase import EGDChaseFailure, egd_chase_query
from ..chase.termination import certify_termination
from ..datamodel import Atom, Predicate, Schema
from ..dependencies.egd import EGD
from ..dependencies.marking import compute_marking
from ..dependencies.predicate_graph import (
    Position,
    PositionGraph,
    position_dependency_graph,
)
from ..dependencies.tgd import TGD
from ..queries.cq import ConjunctiveQuery
from .diagnostics import Diagnostic, Severity

Dependency = Union[TGD, EGD]


def _format_position(position: Position) -> str:
    predicate, index = position
    return f"{predicate.name}[{index}]"


def _format_cycle(cycle: Sequence[Position]) -> str:
    return " -> ".join(_format_position(p) for p in cycle)


def _special_edge_cycle(graph: PositionGraph) -> Optional[List[Position]]:
    """A position-graph cycle through a special edge, if one exists.

    Mirrors the reachability argument of :func:`repro.dependencies
    .predicate_graph.is_weakly_acyclic`: a refuting cycle exists iff for
    some special edge ``(u, v)`` the source ``u`` is reachable from ``v``.
    The returned path starts and ends at ``u`` and its first hop is the
    special edge.
    """
    adjacency: Dict[Position, List[Position]] = {
        position: [] for position in graph.positions
    }
    for source, target in sorted(graph.all_edges(), key=str):
        adjacency.setdefault(source, []).append(target)

    for source, target in sorted(graph.special_edges, key=str):
        if source == target:
            return [source, target]
        parents: Dict[Position, Position] = {}
        seen = {target}
        frontier = [target]
        found = False
        while frontier and not found:
            next_frontier: List[Position] = []
            for node in frontier:
                for neighbour in adjacency.get(node, ()):
                    if neighbour in seen:
                        continue
                    seen.add(neighbour)
                    parents[neighbour] = node
                    if neighbour == source:
                        found = True
                        break
                    next_frontier.append(neighbour)
                if found:
                    break
            frontier = next_frontier
        if not found:
            continue
        path = [source]
        while path[-1] != target:
            path.append(parents[path[-1]])
        path.reverse()  # target … back to source
        return [source] + path
    return None


def split_dependencies(dependencies: Sequence[Dependency]) -> Tuple[List[TGD], List[EGD]]:
    """The tgds and the egds of ``dependencies``, each in their order."""
    tgds = [d for d in dependencies if isinstance(d, TGD)]
    egds = [d for d in dependencies if isinstance(d, EGD)]
    return tgds, egds


def _dependency_atoms(dependency: Dependency) -> List[Atom]:
    if isinstance(dependency, TGD):
        return list(dependency.body) + list(dependency.head)
    return list(dependency.body)


# ----------------------------------------------------------------------
# Query checks
# ----------------------------------------------------------------------
def check_query_parts(head: Sequence, body: Iterable[Atom]) -> List[Diagnostic]:
    """WKL001 on raw (head, body) parts that may not construct a query.

    :class:`~repro.queries.cq.ConjunctiveQuery` enforces head safety and
    null-freeness at construction; this wrapper converts the raised
    ``ValueError`` into the diagnostic the analyzer reports.
    """
    body = tuple(body)
    try:
        query = ConjunctiveQuery(tuple(head), body)
    except ValueError as error:
        rendered = ", ".join(str(atom) for atom in body)
        return [
            Diagnostic(
                "WKL001",
                Severity.ERROR,
                f"query is malformed: {error}",
                subject=rendered,
            )
        ]
    return check_query(query)


def check_query(
    query: ConjunctiveQuery,
    *,
    schema: Optional[Schema] = None,
    egds: Sequence[EGD] = (),
) -> List[Diagnostic]:
    """All query-level diagnostics for one (already constructed) CQ."""
    diagnostics: List[Diagnostic] = []
    diagnostics.extend(_check_arity_clashes([query.body], context=str(query)))
    if schema is not None:
        diagnostics.extend(_check_against_schema(query.body, schema))
    if egds and not diagnostics:
        diagnostics.extend(_check_egd_satisfiability(query, egds))
    if len(query.body) > 1 and not query.is_connected():
        components = len(query.connected_components())
        diagnostics.append(
            Diagnostic(
                "WKL008",
                Severity.INFO,
                f"query body falls into {components} connected components; "
                "evaluation joins them as a cross product",
                subject=str(query),
            )
        )
    return diagnostics


def _check_arity_clashes(
    atom_groups: Iterable[Iterable[Atom]], context: str = ""
) -> List[Diagnostic]:
    """WKL002: the same predicate name used with two different arities."""
    diagnostics: List[Diagnostic] = []
    seen: Dict[str, Tuple[Predicate, Atom]] = {}
    for atoms in atom_groups:
        for atom in atoms:
            name = atom.predicate.name
            previous = seen.get(name)
            if previous is None:
                seen[name] = (atom.predicate, atom)
                continue
            declared, first_atom = previous
            if declared.arity != atom.predicate.arity:
                diagnostics.append(
                    Diagnostic(
                        "WKL002",
                        Severity.ERROR,
                        f"predicate {name} is used with arity "
                        f"{declared.arity} (in {first_atom}) and with arity "
                        f"{atom.predicate.arity} (in {atom})",
                        subject=context or str(atom),
                    )
                )
    return diagnostics


def _check_against_schema(
    atoms: Iterable[Atom], schema: Schema
) -> List[Diagnostic]:
    """WKL003: atoms against a declared schema (arity error, unknown warning)."""
    diagnostics: List[Diagnostic] = []
    for atom in atoms:
        if atom.predicate.name not in schema:
            diagnostics.append(
                Diagnostic(
                    "WKL003",
                    Severity.WARNING,
                    f"predicate {atom.predicate.name} is not declared in the "
                    "schema (the scan will be empty)",
                    subject=str(atom),
                )
            )
            continue
        declared = schema.predicate(atom.predicate.name)
        if declared.arity != atom.predicate.arity:
            diagnostics.append(
                Diagnostic(
                    "WKL003",
                    Severity.ERROR,
                    f"atom uses arity {atom.predicate.arity} but the schema "
                    f"declares {atom.predicate.name}/{declared.arity}",
                    subject=str(atom),
                )
            )
    return diagnostics


def _check_egd_satisfiability(
    query: ConjunctiveQuery, egds: Sequence[EGD]
) -> List[Diagnostic]:
    """WKL004: the egd chase of the frozen query fails ⇒ no answer on any D ⊨ Σ."""
    try:
        egd_chase_query(query, egds, on_failure="raise")
    except EGDChaseFailure as failure:
        return [
            Diagnostic(
                "WKL004",
                Severity.ERROR,
                f"query is unsatisfiable on databases satisfying the egds: "
                f"{failure}",
                subject=str(query),
            )
        ]
    return []


# ----------------------------------------------------------------------
# Dependency checks
# ----------------------------------------------------------------------
def check_dependencies(
    dependencies: Sequence[Dependency], *, schema: Optional[Schema] = None
) -> List[Diagnostic]:
    """All dependency-level diagnostics: arities, termination, stickiness."""
    diagnostics: List[Diagnostic] = []
    tgds, _ = split_dependencies(dependencies)
    diagnostics.extend(
        _check_arity_clashes(
            [_dependency_atoms(d) for d in dependencies], context="dependencies"
        )
    )
    if schema is not None:
        for dependency in dependencies:
            diagnostics.extend(
                _check_against_schema(_dependency_atoms(dependency), schema)
            )
    if tgds:
        certificate = certify_termination(tgds)
        if certificate.guaranteed:
            bound = (
                f" (depth bound {certificate.depth_bound})"
                if certificate.depth_bound is not None
                else ""
            )
            diagnostics.append(
                Diagnostic(
                    "WKL006",
                    Severity.INFO,
                    f"chase termination certified ({certificate.reason}): "
                    f"{certificate.explanation}{bound}",
                    subject="tgds",
                )
            )
        else:
            cycle = _special_edge_cycle(position_dependency_graph(tgds))
            witness = (
                f"; refuting cycle through a special edge: {_format_cycle(cycle)}"
                if cycle
                else ""
            )
            diagnostics.append(
                Diagnostic(
                    "WKL005",
                    Severity.WARNING,
                    "no chase-termination certificate applies (not full, "
                    f"non-recursive or weakly acyclic){witness}",
                    subject="tgds",
                    hint="chase calls on these tgds need explicit step budgets",
                )
            )
        marking = compute_marking(tgds)
        if not marking.is_sticky():
            offenders = marking.violating_tgds()
            samples = "; ".join(str(tgds[i]) for i in offenders[:3])
            diagnostics.append(
                Diagnostic(
                    "WKL007",
                    Severity.INFO,
                    f"tgd set is not sticky: {len(offenders)} tgd(s) repeat a "
                    f"marked variable in their body ({samples})",
                    subject="tgds",
                )
            )
    return diagnostics


# ----------------------------------------------------------------------
# Whole-workload entry point
# ----------------------------------------------------------------------
def check_workload(
    queries: Sequence[ConjunctiveQuery] = (),
    dependencies: Sequence[Dependency] = (),
    *,
    schema: Optional[Schema] = None,
) -> List[Diagnostic]:
    """Run every workload check over queries and dependencies together.

    Cross-atom arity clashes (WKL002) are detected across the whole
    workload — a query atom clashing with a tgd head is as fatal as two
    query atoms clashing with each other — so the per-query/per-dependency
    passes skip their local WKL002 re-detection here.
    """
    _, egds = split_dependencies(dependencies)
    groups: List[List[Atom]] = [list(q.body) for q in queries]
    groups.extend(_dependency_atoms(d) for d in dependencies)
    diagnostics = _check_arity_clashes(groups, context="workload")
    for query in queries:
        diagnostics.extend(
            d
            for d in check_query(query, schema=schema, egds=egds)
            if d.code != "WKL002"
        )
    diagnostics.extend(
        d
        for d in check_dependencies(dependencies, schema=schema)
        if d.code != "WKL002"
    )
    return diagnostics
