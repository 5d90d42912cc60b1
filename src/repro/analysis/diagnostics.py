"""The shared diagnostic spine of the static-analysis passes.

Both analysis passes — the IR plan verifier (:mod:`repro.analysis
.verify_plan`) and the workload analyzer (:mod:`repro.analysis
.check_workload`) — report their findings as :class:`Diagnostic` records
instead of raising: a stable machine-readable code (``PLAN001`` …,
``WKL001`` …), a :class:`Severity`, a human-readable message and the
offending subject (an operator label, a query atom, a tgd).  Collecting
records rather than failing fast is what lets one ``repro check`` run
surface *every* problem of a workload at once, lets the CLI map the worst
finding to a process exit code, and lets ``--json`` emit the findings to
other tools unchanged.

The code registry lives here too (:data:`CODES`), so the codes stay unique,
documented and stable across the passes — they are part of the public
surface the tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, Iterable, List


class Severity(IntEnum):
    """Ordered severities; the CLI exit code is the worst severity seen."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


#: Every diagnostic code either pass can emit, with a one-line meaning.
#: ``PLAN*`` codes come from the IR plan verifier, ``WKL*`` codes from the
#: workload analyzer.  Codes are append-only: a released code never changes
#: meaning (tests assert exact codes against the mutation corpus).
CODES: Dict[str, str] = {
    "PLAN001": "cycle in the operator DAG",
    "PLAN002": "malformed operator schema (duplicate or non-variable entry)",
    "PLAN003": "wrong number of children for the operator type",
    "PLAN004": "projection/selection target not bound by the input",
    "PLAN005": "join key positions disagree with the operand schemas",
    "PLAN006": "output schema inconsistent with the operator semantics",
    "PLAN007": "malformed CursorEnumerate (tree/ops/carry out of sync)",
    "PLAN008": "cost estimate missing on a partially annotated plan",
    "PLAN009": "invalid cost estimate (negative or non-finite)",
    "PLAN010": "scan atom malformed (arity mismatch or null argument)",
    "PLAN011": "streaming plan does not put CursorEnumerate at the root",
    "PLAN012": "streaming hash-join chain is not left-deep over scans",
    "PLAN013": "operator type is outside the batch-face width registry",
    "PLAN014": "batch face out of sync (width or cached encoding vs schema)",
    "PLAN015": "bag node out of sync (bag vs schema or vs decomposition tree)",
    "PLAN016": "cached scan result is stamped with a stale database epoch",
    "SVC001": "service scan cache epoch desynchronised from its database",
    "SVC002": "cached plan's statistics drifted past the re-plan threshold",
    "WKL001": "malformed or unsafe query",
    "WKL002": "one predicate used with two different arities",
    "WKL003": "atom disagrees with the declared schema",
    "WKL004": "query trivially unsatisfiable under the egds",
    "WKL005": "no chase-termination certificate for the tgds",
    "WKL006": "chase termination certified",
    "WKL007": "tgd set is not sticky",
    "WKL008": "query body is disconnected (cross product)",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static-analysis pass.

    Attributes:
        code: stable registry code (a key of :data:`CODES`).
        severity: how bad the finding is; drives the CLI exit code.
        message: one human-readable sentence, self-contained.
        subject: the offending thing — an operator label, an atom, a tgd —
            rendered as text (empty when the finding is global).
        hint: optional remediation or context sentence.
    """

    code: str
    severity: Severity
    message: str
    subject: str = ""
    hint: str = ""

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unregistered diagnostic code {self.code!r}")

    def as_dict(self) -> Dict[str, str]:
        """A JSON-ready rendering (severity by name, lowercase)."""
        record = {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
        }
        if self.subject:
            record["subject"] = self.subject
        if self.hint:
            record["hint"] = self.hint
        return record

    def render(self) -> str:
        """The one-line text rendering used by ``repro check``."""
        subject = f" [{self.subject}]" if self.subject else ""
        return f"{self.code} {self.severity}: {self.message}{subject}"


def max_severity(diagnostics: Iterable[Diagnostic]) -> Severity:
    """The worst severity present (``INFO`` when there are none)."""
    worst = Severity.INFO
    for diagnostic in diagnostics:
        if diagnostic.severity > worst:
            worst = diagnostic.severity
    return worst


def exit_code(diagnostics: Iterable[Diagnostic]) -> int:
    """Map findings to a process exit code: 0 clean/info, 1 warning, 2 error."""
    return int(max_severity(diagnostics))


def errors(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """The ERROR-severity findings only."""
    return [d for d in diagnostics if d.severity >= Severity.ERROR]
