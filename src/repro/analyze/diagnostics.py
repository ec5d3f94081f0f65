"""Diagnostics emitted by the static analyses.

A :class:`Diagnostic` is one finding: a short machine-readable kind
(``comb-loop``, ``truncation``, ...), the specialization it was found
in, a human message, the originating source line, a severity class,
and — for path-shaped findings like combinational loops — the chain of
signals involved.

The positional field order (kind, module, message, line) and the
``str()`` format are stable: they predate this package (the old
``repro.hdl.lint`` module) and existing callers rely on both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

# Severity classes, strongest first.  ``error`` findings are the ones
# the gate refuses a hot reload over (a new combinational loop,
# a multiply-driven register); ``warning`` marks likely-bug idioms the
# simulator tolerates; ``info`` is awareness-only (a parameter-folded
# dead branch is often intentional).
SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITY_INFO = "info"

SEVERITIES = (SEVERITY_ERROR, SEVERITY_WARNING, SEVERITY_INFO)

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding."""

    kind: str
    module: str
    message: str
    line: int = 0
    severity: str = SEVERITY_WARNING
    check: str = ""
    # Path-shaped findings (combinational loops) carry the signal chain
    # so a client can highlight the whole cycle, not just one line.
    path: Tuple[str, ...] = ()
    # Proof-backed findings (repro.passes.dataflow) carry the value
    # derivation chain: one line per contributing fact, indented by
    # derivation depth.  Rendered only under ``--explain``.
    notes: Tuple[str, ...] = ()

    def __str__(self) -> str:
        where = f"{self.module}:{self.line}" if self.line else self.module
        return f"[{self.kind}] {where}: {self.message}"

    def explain(self) -> str:
        """Multi-line rendering with the derivation chain appended."""
        text = str(self)
        if self.notes:
            text += "\n" + "\n".join(f"    {note}" for note in self.notes)
        return text

    @property
    def is_error(self) -> bool:
        return self.severity == SEVERITY_ERROR

    def identity(self) -> Tuple[str, str, str]:
        """Stable identity for gating and baseline diffs.

        Deliberately excludes the line number: an edit that shifts a
        module down the file must not make every old finding look new.
        """
        return (self.kind, self.module, self.message)

    def to_json(self) -> Dict:
        """JSON-safe dict in the ``repro.analyze/v1`` finding shape."""
        data: Dict = {
            "kind": self.kind,
            "severity": self.severity,
            "module": self.module,
            "line": self.line,
            "message": self.message,
        }
        if self.check:
            data["check"] = self.check
        if self.path:
            data["path"] = list(self.path)
        if self.notes:
            data["notes"] = list(self.notes)
        return data


def severity_rank(severity: str) -> int:
    """Lower is stronger; unknown severities sort after ``info``."""
    return _SEVERITY_RANK.get(severity, len(SEVERITIES))


def sort_diagnostics(diags: List[Diagnostic]) -> List[Diagnostic]:
    """Deterministic report order: severity, module, line, kind."""
    return sorted(
        diags,
        key=lambda d: (
            severity_rank(d.severity), d.module, d.line, d.kind, d.message
        ),
    )


def count_by_severity(diags) -> Dict[str, int]:
    counts: Dict[str, int] = {name: 0 for name in SEVERITIES}
    for diag in diags:
        counts[diag.severity] = counts.get(diag.severity, 0) + 1
    return counts
