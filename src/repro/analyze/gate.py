"""Hot-reload gating on analyzer findings.

The live loop's promise is that an edit lands in the running
simulation in under two seconds; the gate's job is to make sure a
*broken* edit — one that introduces a combinational loop or a
multiply-driven register — does not land silently.  ``apply_change``
runs the analyzer after compiling the new design and asks the gate
whether the swap may proceed; a refusal raises
:class:`GateBlockedError` and rolls the session back, exactly like a
syntax error would.

Only **new** error-class findings block: pre-existing findings were
accepted when the design was loaded (or by an earlier override) and
must not wedge every subsequent edit.  ``override=True``
on the offending call lets the swap through and re-baselines.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence

from ..hdl.errors import HDLError
from .diagnostics import SEVERITY_ERROR, Diagnostic


class GateBlockedError(HDLError):
    """A hot reload was refused by the gate.

    Subclasses :class:`HDLError` so every existing rollback path
    (``apply_change``'s transactional compile, the server's error
    taxonomy) treats a refused swap like any other failed edit.
    """

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics: List[Diagnostic] = list(diagnostics)
        lines = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(
            f"hot reload blocked by static analysis ({lines}); "
            "re-apply with override to force the swap"
        )


class GateDecision(NamedTuple):
    """Outcome of one gate evaluation."""

    allowed: bool
    blocking: List[Diagnostic]
    new_findings: List[Diagnostic]
    overridden: bool

    def raise_if_blocked(self) -> None:
        if not self.allowed:
            raise GateBlockedError(self.blocking)


def evaluate_gate(
    before: Sequence[Diagnostic],
    after: Sequence[Diagnostic],
    override: bool = False,
) -> GateDecision:
    """Decide whether a swap from ``before`` findings to ``after`` may
    proceed: a finding absent from ``before`` (by
    :meth:`~Diagnostic.identity`) of error severity blocks.
    ``override`` records the decision but never blocks."""
    baseline = {d.identity() for d in before}
    new = [d for d in after if d.identity() not in baseline]
    blocking = [d for d in new if d.severity == SEVERITY_ERROR]
    return GateDecision(
        allowed=override or not blocking, blocking=blocking,
        new_findings=new, overridden=override,
    )
