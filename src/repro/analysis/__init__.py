"""Static analysis: the plan verifier and the workload analyzer.

Two passes over one diagnostic spine (:mod:`repro.analysis.diagnostics`):

* :func:`verify_plan` — certify any physical-operator DAG *before* it runs
  (``PLAN001``–``PLAN016``); :func:`maybe_verify` is the ``REPRO_VERIFY``
  environment hook the evaluation seams call on every emitted plan.
* :func:`check_workload` / :func:`check_query` / :func:`check_dependencies`
  — certify queries and dependency sets before any database is touched
  (``WKL001``–``WKL008``), with explained chase-termination verdicts.

Both surface through the ``repro check`` CLI subcommand and the
``explain --verify`` flag.
"""

from .check_workload import (
    check_dependencies,
    check_query,
    check_query_parts,
    check_workload,
)
from .diagnostics import CODES, Diagnostic, Severity, errors, exit_code, max_severity
from .verify_plan import (
    PlanVerificationError,
    maybe_verify,
    verification_enabled,
    verify_or_raise,
    verify_plan,
)

__all__ = [
    "CODES",
    "Diagnostic",
    "PlanVerificationError",
    "Severity",
    "check_dependencies",
    "check_query",
    "check_query_parts",
    "check_workload",
    "errors",
    "exit_code",
    "max_severity",
    "maybe_verify",
    "verification_enabled",
    "verify_or_raise",
    "verify_plan",
]
