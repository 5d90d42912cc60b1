"""Command-line interface to the library.

The CLI exposes the main workflows over files written in the surface syntax
of :mod:`repro.parser`:

* ``repro classify``    — classify a set of dependencies (guarded, sticky, …);
* ``repro decide``      — decide semantic acyclicity of a CQ under constraints;
* ``repro chase``       — chase a query or database and print the result;
* ``repro rewrite``     — UCQ-rewrite a CQ under tgds;
* ``repro approximate`` — compute acyclic approximations (Section 8.2);
* ``repro evaluate``    — evaluate a CQ over a data file.  ``--engine``
  picks the route (``auto`` | ``yannakakis`` | ``reformulation`` |
  ``decomposition`` | ``plan`` | ``generic``) and ``--limit N`` streams only the first ``N``
  answers through :func:`repro.evaluation.evaluate_iter`;
* ``repro explain``     — print the chosen physical plan with estimated
  vs. observed cardinalities per operator (the EXPLAIN of the
  operator IR); ``--verify`` appends the static plan verifier's verdict;
* ``repro serve``       — drive a long-lived :class:`repro.service
  .QueryService` from a session script interleaving ``? query`` reads with
  ``+ atom`` / ``- atom`` writes; post-write queries are answered through
  the scan cache's incremental delta-merge path and the final counters
  (``delta_merges``, ``plan_hits``, …) make the amortisation visible.
  ``--verify`` audits the service's cache invariants (``SVC*``);
* ``repro check``       — static analysis only: run the workload analyzer
  (``WKL*`` diagnostics) over the query/dependencies and, with ``--data``,
  the plan verifier (``PLAN*``) over the plans the router would emit.
  Exit code 0/1/2 = worst severity (info/warning/error); ``--json`` emits
  the diagnostics machine-readably.

Usage examples::

    python -m repro decide --query "Interest(x,z), Class(y,z), Owns(x,y)" \
        --dependency "Interest(x,z), Class(y,z) -> Owns(x,y)"

    python -m repro explain --query "q(x,z) :- E(x,y), E(y,z)" --data facts.txt

    python -m repro classify --constraints ontology.rules

Dependency files contain one dependency per line (``%`` comments allowed);
data files contain one ground atom per line, e.g. ``Owns('alice', 'r1')``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import IO, List, Optional, Sequence, Union

from .analysis.check_workload import split_dependencies
from .chase import chase, chase_query, egd_chase, egd_chase_query
from .core import (
    SemAcConfig,
    acyclic_approximations,
    decide_semantic_acyclicity,
)
from .datamodel import Database
from .dependencies import EGD, TGD, classify, describe
from .parser import parse_atom, parse_dependency, parse_program, parse_query, strip_comment
from .rewriting import rewrite
from .evaluation import (
    AcyclicityRequired,
    NotSemanticallyAcyclic,
    YannakakisEvaluator,
    evaluate_generic,
    resolve_route,
)
from .evaluation.semacyclic_eval import explain_route, verify_route


Dependency = Union[TGD, EGD]


# ----------------------------------------------------------------------
# Input loading
# ----------------------------------------------------------------------
def load_dependencies(
    constraints_path: Optional[str], inline: Sequence[str]
) -> List[Dependency]:
    """Load dependencies from a file and/or inline ``--dependency`` options."""
    dependencies: List[Dependency] = []
    if constraints_path:
        text = Path(constraints_path).read_text(encoding="utf-8")
        dependencies.extend(parse_program(text))
    for line in inline:
        dependencies.append(parse_dependency(line))
    return dependencies


def load_database(path: str) -> Database:
    """Load a database from a file with one ground atom per line."""
    database = Database()
    text = Path(path).read_text(encoding="utf-8")
    for raw_line in text.splitlines():
        line = strip_comment(raw_line).strip().rstrip(".")
        if not line:
            continue
        database.add(parse_atom(line))
    return database


def load_query(query_text: Optional[str], query_file: Optional[str]):
    """Load the query from ``--query`` or ``--query-file`` (exactly one)."""
    if (query_text is None) == (query_file is None):
        raise SystemExit("provide exactly one of --query or --query-file")
    if query_file is not None:
        # Same comment convention as the dependency/data loaders: anything
        # after '%' is stripped, blank lines are dropped.
        lines = Path(query_file).read_text(encoding="utf-8").splitlines()
        query_text = " ".join(
            stripped for line in lines if (stripped := strip_comment(line).strip())
        )
    return parse_query(query_text)


def _route(query, dependencies: Sequence[Dependency], engine: str):
    """The route ``evaluate``, ``explain`` and ``check`` all take.

    :func:`resolve_route` reformulates under tgds only.  Under egds alone, a
    cyclic query that ``auto`` would send to the decomposition route runs
    on the egd decider's acyclic witness instead.
    """
    tgds, egds = split_dependencies(dependencies)
    try:
        route, evaluator = resolve_route(query, tgds=tgds, engine=engine)
    except (AcyclicityRequired, NotSemanticallyAcyclic) as error:
        raise SystemExit(str(error))
    if route == "decomposition" and egds and not tgds and engine == "auto":
        witness = decide_semantic_acyclicity(query, egds).witness
        if witness is not None:
            return "reformulated", YannakakisEvaluator(witness)
    return route, evaluator


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_classify(args: argparse.Namespace, out: IO[str]) -> int:
    dependencies = load_dependencies(args.constraints, args.dependency)
    if not dependencies:
        print("no dependencies given", file=out)
        return 1
    tgds, egds = split_dependencies(dependencies)
    if tgds:
        classes = classify(tgds)
        print(f"tgds: {len(tgds)}", file=out)
        print(f"classes: {', '.join(sorted(c.value for c in classes)) or 'none'}", file=out)
        print(describe(tgds), file=out)
    if egds:
        print(f"egds: {len(egds)}", file=out)
    return 0


def _cmd_decide(args: argparse.Namespace, out: IO[str]) -> int:
    query = load_query(args.query, args.query_file)
    dependencies = load_dependencies(args.constraints, args.dependency)
    tgds, egds = split_dependencies(dependencies)
    if tgds and egds:
        raise SystemExit("mixing tgds and egds in one decision is not supported")
    config = SemAcConfig(exhaustive=args.exhaustive)
    decision = decide_semantic_acyclicity(query, tgds or egds, config)
    print(f"query: {query}", file=out)
    print(f"semantically acyclic: {decision.semantically_acyclic}", file=out)
    print(f"method: {decision.method}", file=out)
    if decision.witness is not None:
        print(f"witness: {decision.witness}", file=out)
    for note in decision.notes:
        print(f"note: {note}", file=out)
    return 0 if decision.semantically_acyclic else 2


def _cmd_chase(args: argparse.Namespace, out: IO[str]) -> int:
    dependencies = load_dependencies(args.constraints, args.dependency)
    tgds, egds = split_dependencies(dependencies)
    if args.data:
        source: Union[Database, None] = load_database(args.data)
        if tgds:
            result = chase(source, tgds, variant=args.variant, max_steps=args.max_steps)
            instance, terminated = result.instance, result.terminated
        else:
            result = egd_chase(source, egds, on_failure="return")
            instance, terminated = result.instance, not result.failed
    else:
        query = load_query(args.query, args.query_file)
        if tgds:
            result, _ = chase_query(
                query, tgds, variant=args.variant, max_steps=args.max_steps
            )
            instance, terminated = result.instance, result.terminated
        else:
            result, _ = egd_chase_query(query, egds, on_failure="return")
            instance, terminated = result.instance, not result.failed
    print(f"terminated: {terminated}", file=out)
    print(f"atoms: {len(instance)}", file=out)
    if args.print_atoms:
        for atom in instance.sorted_atoms():
            print(str(atom), file=out)
    return 0 if terminated else 3


def _cmd_rewrite(args: argparse.Namespace, out: IO[str]) -> int:
    query = load_query(args.query, args.query_file)
    dependencies = load_dependencies(args.constraints, args.dependency)
    tgds, egds = split_dependencies(dependencies)
    if egds:
        raise SystemExit("rewriting is defined for tgds only")
    rewriting = rewrite(query, tgds)
    disjuncts = list(rewriting)
    print(f"disjuncts: {len(disjuncts)}", file=out)
    for disjunct in disjuncts:
        print(str(disjunct), file=out)
    return 0


def _cmd_approximate(args: argparse.Namespace, out: IO[str]) -> int:
    query = load_query(args.query, args.query_file)
    dependencies = load_dependencies(args.constraints, args.dependency)
    tgds, _ = split_dependencies(dependencies)
    result = acyclic_approximations(query, tgds)
    approximations = list(result.approximations)
    print(f"approximations: {len(approximations)}", file=out)
    for approximation in approximations:
        print(str(approximation), file=out)
    return 0


def _cmd_evaluate(args: argparse.Namespace, out: IO[str]) -> int:
    query = load_query(args.query, args.query_file)
    database = load_database(args.data)
    dependencies = load_dependencies(args.constraints, args.dependency)
    limit = args.limit

    if args.engine == "generic":
        answers: Sequence = sorted(evaluate_generic(query, database), key=str)
        if limit is not None:
            # max(0, …): a non-positive limit means "no answers", matching
            # the streaming engines (a bare negative slice would instead
            # drop answers from the end).
            answers = answers[: max(0, limit)]
        how = "generic"
    else:
        route, evaluator = _route(query, dependencies, args.engine)
        how = "reformulated+yannakakis" if route == "reformulated" else route
        answers = sorted(evaluator.iter_answers(database, limit=limit), key=str)

    print(f"evaluation: {how}", file=out)
    if limit is not None:
        print(f"limit: {limit}", file=out)
    print(f"answers: {len(answers)}", file=out)
    for answer in answers:
        rendered = ", ".join(str(term) for term in answer)
        print(f"({rendered})", file=out)
    return 0


def _cmd_serve(args: argparse.Namespace, out: IO[str]) -> int:
    """Drive a long-lived :class:`repro.service.QueryService` from a script.

    The session file interleaves reads and writes against one standing
    service — one operation per line, ``%`` comments allowed::

        ? q(x, z) :- E(x, y), E(y, z)   % submit a query, print its answers
        + E(4, 5)                        % insert a fact (epoch-bumping)
        - E(1, 2)                        % delete a fact

    Queries after a write are answered through the scan cache's delta-merge
    path (no rebuild); the final counter block makes that observable.
    """
    from .service import QueryService

    database = load_database(args.data)
    dependencies = load_dependencies(args.constraints, args.dependency)
    tgds, _ = split_dependencies(dependencies)
    service = QueryService(database)
    text = Path(args.session).read_text(encoding="utf-8")
    for raw_line in text.splitlines():
        line = strip_comment(raw_line).strip()
        if not line:
            continue
        op, _, rest = line.partition(" ")
        rest = rest.strip().rstrip(".")
        if op == "?":
            query = parse_query(rest)
            answers = sorted(
                service.stream(query, tgds=tgds, limit=args.limit),
                key=str,
            )
            print(f"? {query}", file=out)
            print(f"answers: {len(answers)}", file=out)
            for answer in answers:
                rendered = ", ".join(str(term) for term in answer)
                print(f"({rendered})", file=out)
        elif op == "+":
            atom = parse_atom(rest)
            outcome = "added" if service.insert(atom) else "already present"
            print(f"+ {atom}: {outcome}", file=out)
        elif op == "-":
            atom = parse_atom(rest)
            outcome = "removed" if service.delete(atom) else "absent"
            print(f"- {atom}: {outcome}", file=out)
        else:
            raise SystemExit(
                f"unknown session line {raw_line!r} "
                "(use '? <query>', '+ <atom>', or '- <atom>')"
            )
    status = 0
    if args.verify:
        diagnostics = service.verify()
        if diagnostics:
            print(f"verification: {len(diagnostics)} diagnostic(s)", file=out)
            for diagnostic in diagnostics:
                print(f"  {diagnostic.render()}", file=out)
            if any(d.severity.name == "ERROR" for d in diagnostics):
                status = 2
        else:
            print("verification: clean", file=out)
    for name, value in service.counters().items():
        print(f"{name}: {value}", file=out)
    return status


def _cmd_check(args: argparse.Namespace, out: IO[str]) -> int:
    from .analysis import Diagnostic, Severity, errors, exit_code
    from .datamodel import Schema

    diagnostics: List[Diagnostic] = []
    try:
        dependencies = load_dependencies(args.constraints, args.dependency)
    except ValueError as error:
        dependencies = []
        diagnostics.append(
            Diagnostic(
                "WKL001", Severity.ERROR, f"dependencies do not parse: {error}"
            )
        )
    queries = []
    if args.query is not None or args.query_file is not None:
        try:
            queries.append(load_query(args.query, args.query_file))
        except ValueError as error:
            diagnostics.append(
                Diagnostic("WKL001", Severity.ERROR, f"query does not parse: {error}")
            )
    database = load_database(args.data) if args.data else None
    schema = (
        Schema.from_atoms(database.sorted_atoms()) if database is not None else None
    )

    from .analysis import check_workload

    diagnostics.extend(check_workload(queries, dependencies, schema=schema))

    route = None
    if database is not None and queries and not errors(diagnostics):
        route, evaluator = _route(queries[0], dependencies, args.engine)
        diagnostics.extend(verify_route(database, evaluator))

    code = exit_code(diagnostics)
    if args.json:
        counts = {
            str(severity): sum(1 for d in diagnostics if d.severity == severity)
            for severity in Severity
        }
        record = {
            "queries": len(queries),
            "dependencies": len(dependencies),
            "route": route,
            "diagnostics": [d.as_dict() for d in diagnostics],
            "counts": counts,
            "exit_code": code,
        }
        print(json.dumps(record, indent=2), file=out)
        return code
    print(
        f"checked: {len(queries)} query(ies), {len(dependencies)} dependency(ies)",
        file=out,
    )
    if route is not None:
        print(f"plan verified: {route} route", file=out)
    for diagnostic in diagnostics:
        print(diagnostic.render(), file=out)
    fatal = sum(1 for d in diagnostics if d.severity == Severity.ERROR)
    warnings = sum(1 for d in diagnostics if d.severity == Severity.WARNING)
    info = sum(1 for d in diagnostics if d.severity == Severity.INFO)
    verdict = "errors" if fatal else ("warnings" if warnings else "ok")
    print(
        f"result: {verdict} ({fatal} error(s), {warnings} warning(s), "
        f"{info} info)",
        file=out,
    )
    return code


def _cmd_explain(args: argparse.Namespace, out: IO[str]) -> int:
    query = load_query(args.query, args.query_file)
    database = load_database(args.data)
    dependencies = load_dependencies(args.constraints, args.dependency)
    route, evaluator = _route(query, dependencies, args.engine)
    report = explain_route(
        query,
        database,
        route,
        evaluator,
        execute=not args.no_execute,
        verify=args.verify,
    )
    print(report, file=out)
    return 0


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------
def _add_common_inputs(parser: argparse.ArgumentParser, with_query: bool = True) -> None:
    if with_query:
        parser.add_argument("--query", help="the CQ, in the surface syntax")
        parser.add_argument("--query-file", help="file containing the CQ")
    parser.add_argument("--constraints", help="file with one dependency per line")
    parser.add_argument(
        "--dependency",
        action="append",
        default=[],
        help="inline dependency (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Semantic acyclicity under constraints (Barceló, Gottlob, Pieris, PODS 2016)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    classify_parser = subparsers.add_parser("classify", help="classify a dependency set")
    _add_common_inputs(classify_parser, with_query=False)
    classify_parser.set_defaults(handler=_cmd_classify)

    decide_parser = subparsers.add_parser("decide", help="decide semantic acyclicity")
    _add_common_inputs(decide_parser)
    decide_parser.add_argument(
        "--exhaustive", action="store_true", help="run the exhaustive candidate search"
    )
    decide_parser.set_defaults(handler=_cmd_decide)

    chase_parser = subparsers.add_parser("chase", help="chase a query or a data file")
    _add_common_inputs(chase_parser)
    chase_parser.add_argument("--data", help="data file to chase instead of a query")
    chase_parser.add_argument(
        "--variant", choices=("restricted", "oblivious"), default="restricted"
    )
    chase_parser.add_argument("--max-steps", type=int, default=10_000)
    chase_parser.add_argument(
        "--print-atoms", action="store_true", help="print every atom of the result"
    )
    chase_parser.set_defaults(handler=_cmd_chase)

    rewrite_parser = subparsers.add_parser("rewrite", help="UCQ-rewrite a CQ under tgds")
    _add_common_inputs(rewrite_parser)
    rewrite_parser.set_defaults(handler=_cmd_rewrite)

    approximate_parser = subparsers.add_parser(
        "approximate", help="compute acyclic approximations"
    )
    _add_common_inputs(approximate_parser)
    approximate_parser.set_defaults(handler=_cmd_approximate)

    evaluate_parser = subparsers.add_parser("evaluate", help="evaluate a CQ over a data file")
    _add_common_inputs(evaluate_parser)
    evaluate_parser.add_argument("--data", required=True, help="data file (one atom per line)")
    evaluate_parser.add_argument(
        "--engine",
        choices=("auto", "yannakakis", "reformulation", "decomposition", "plan", "generic"),
        default="auto",
        help="evaluation route (default: auto — Yannakakis, reformulation "
        "under constraints, or decomposition-guided bags for cyclic queries)",
    )
    evaluate_parser.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="stream only the first N answers (evaluate_iter)",
    )
    evaluate_parser.set_defaults(handler=_cmd_evaluate)

    explain_parser = subparsers.add_parser(
        "explain",
        help="print the physical plan with estimated vs. observed cardinalities",
    )
    _add_common_inputs(explain_parser)
    explain_parser.add_argument("--data", required=True, help="data file (one atom per line)")
    explain_parser.add_argument(
        "--engine",
        choices=("auto", "yannakakis", "reformulation", "decomposition", "plan"),
        default="auto",
        help="force the explained route (default: auto)",
    )
    explain_parser.add_argument(
        "--no-execute",
        action="store_true",
        help="show estimates only (skip running the plan for observed rows)",
    )
    explain_parser.add_argument(
        "--verify",
        action="store_true",
        help="run the static plan verifier on the explained plan and append "
        "its diagnostics",
    )
    explain_parser.set_defaults(handler=_cmd_explain)

    serve_parser = subparsers.add_parser(
        "serve",
        help="drive a long-lived QueryService from a session script of "
        "'? query' / '+ atom' / '- atom' lines",
    )
    serve_parser.add_argument("--data", required=True, help="data file (one atom per line)")
    serve_parser.add_argument(
        "--session",
        required=True,
        help="session script: one operation per line — '? <query>' submits, "
        "'+ <atom>' inserts, '- <atom>' deletes ('%%' comments allowed)",
    )
    serve_parser.add_argument(
        "--constraints", help="file of dependencies, one per line"
    )
    serve_parser.add_argument(
        "--dependency",
        action="append",
        default=[],
        metavar="DEP",
        help="inline dependency (repeatable)",
    )
    serve_parser.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="per-query answer cap (the service's backpressure knob)",
    )
    serve_parser.add_argument(
        "--verify",
        action="store_true",
        help="audit the service's cache invariants (SVC diagnostics) after "
        "the session; exit 2 on errors",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    check_parser = subparsers.add_parser(
        "check",
        help="static analysis: workload diagnostics plus (with --data) plan "
        "verification; exit code 0/1/2 = worst severity",
    )
    _add_common_inputs(check_parser)
    check_parser.add_argument(
        "--data",
        help="optional data file; also statically verifies the plans the "
        "router would emit for the query",
    )
    check_parser.add_argument(
        "--engine",
        choices=("auto", "yannakakis", "reformulation", "decomposition", "plan"),
        default="auto",
        help="route whose plans to verify with --data (default: auto)",
    )
    check_parser.add_argument(
        "--json", action="store_true", help="emit the diagnostics as JSON"
    )
    check_parser.set_defaults(handler=_cmd_check)

    return parser


def main(argv: Optional[Sequence[str]] = None, out: Optional[IO[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    stream = out if out is not None else sys.stdout
    return args.handler(args, stream)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
