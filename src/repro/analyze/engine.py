"""The incremental analyzer: fingerprint-cached analysis runs.

Findings live in the same :class:`~repro.codegen.build.DerivedCache` as
the compiler's results (a session hands its compiler's cache in), per
specialization under the module identity — *behavioural fingerprint*
and the key of the run that computed its value facts
(``ModuleValueFacts.run_key``) — plus a combinational summary of each
child.
A body-only edit therefore re-analyzes exactly one module on the next
hot reload; an untouched design re-analyzes nothing and an
:class:`AnalysisReport` says so explicitly (``analyzed_keys`` /
``reused_keys`` — the acceptance counters).

The child component of the key is the child's *comb signature*
(:attr:`~repro.ir.netlist.ModuleIR.comb_signature`: interface
fingerprint + per-output input dependencies), because the parent-side
loop/race analyses consume exactly that much of the child: much less
than the child's body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..codegen.build import DerivedCache
from ..ir.netlist import ModuleIR, Netlist
from .checks import Check, CheckContext, default_checks
from .diagnostics import Diagnostic, count_by_severity, sort_diagnostics


@dataclass
class AnalysisReport:
    """What one analysis pass did: findings plus cache accounting."""

    top: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)
    analyzed_keys: List[str] = field(default_factory=list)
    reused_keys: List[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def counts(self) -> Dict[str, int]:
        return count_by_severity(self.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    def note(self, kind: str, spec: str, hit: bool) -> None:
        """An ``analyze`` cache lookup reused / analyzed ``spec``."""
        (self.reused_keys if hit else self.analyzed_keys).append(spec)

    def findings(self, severity: Optional[str] = None) -> List[Diagnostic]:
        if severity is None:
            return list(self.diagnostics)
        return [d for d in self.diagnostics if d.severity == severity]


class Analyzer:
    """Runs :func:`default_checks`; results live in a
    :class:`DerivedCache`."""

    def __init__(self, cache: Optional[DerivedCache] = None):
        self._checks: List[Check] = default_checks()
        self.cache = cache if cache is not None else DerivedCache()

    def cache_size(self) -> int:
        return self.cache.size("analyze")

    def analyze_netlist(
        self,
        netlist: Netlist,
        parser=None,
        value_facts=None,
    ) -> AnalysisReport:
        """Analyze every specialization in ``netlist``.

        ``parser`` (normally the session's ``LiveParser``) knows the
        text the netlist was elaborated from: ``fingerprint(name)``, a
        module's behavioural fingerprint, and ``header_line(name)``,
        where its header is now.  Findings are cached per fingerprint,
        in the coordinates of the IR they came from, and moved by as
        many lines as the module's header moved since (an edit above a
        module re-analyzes nothing, not even to renumber).  Without a
        parser, results are computed fresh, not cached and not moved —
        the right behaviour for one-shot CLI runs over a file.

        ``value_facts`` (key -> ``ModuleValueFacts``) feeds the
        proof-backed checks; when omitted, the analyzer computes them
        through the same cache (a hit when the compile pipeline already
        did).
        """
        report = AnalysisReport(top=netlist.top)
        # Without fingerprints nothing identifies a module across
        # calls, so this call's results go to a cache of its own.
        cache = self.cache if parser is not None else DerivedCache()
        fps = {
            ir.name: parser.fingerprint(ir.name) if parser else ""
            for ir in netlist.modules.values()
        }
        with obs.timed("analyze.run", top=netlist.top) as analyzing:
            if value_facts is None:
                # Function-level import: repro.passes reaches this
                # package through repro.hdl (Diagnostic), so it must
                # not import repro.passes at module load time.
                from ..passes.dataflow import compute_netlist_facts

                value_facts = compute_netlist_facts(netlist, fps, cache)
            ctx = CheckContext(netlist, value_facts)
            for key in sorted(netlist.modules):
                ir = netlist.modules[key]
                mod_facts = ctx.facts_for(key)
                born, diags = cache.lookup(
                    "analyze", key,
                    (key, fps[ir.name],
                     mod_facts.run_key if mod_facts is not None else (),
                     tuple(netlist.modules[i.child_key].comb_signature
                           for i in ir.instances)),
                    lambda: (ir.line, self._run_checks(ir, ctx)),
                    report=report,
                )
                header = parser.header_line(ir.name) if parser else None
                report.diagnostics.extend(
                    _moved(diags, header - born) if header is not None
                    else diags)
        report.diagnostics = sort_diagnostics(report.diagnostics)
        report.seconds = analyzing.seconds
        obs.incr("analyze.runs")
        obs.gauge("analyze.cache_size", self.cache_size())
        obs.gauge("analyze.findings", len(report.diagnostics))
        return report

    def _run_checks(
        self, ir: ModuleIR, ctx: CheckContext
    ) -> Tuple[Diagnostic, ...]:
        diags: List[Diagnostic] = []
        with obs.span("analyze.module", key=ir.key):
            for check in self._checks:
                diags.extend(check.run(ir, ctx))
        obs.incr("analyze.modules_analyzed")
        return tuple(diags)


def _moved(diags: Tuple[Diagnostic, ...], lines: int):
    """``diags`` with every line ``lines`` further down the file."""
    if not lines:
        return diags
    return [d.moved(lines) for d in diags]
