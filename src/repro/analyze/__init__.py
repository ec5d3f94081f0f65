"""``repro.analyze``: incremental semantic static analysis.

Simulation is worst at surfacing exactly the bug classes a static pass
over the elaborated IR can report *before a single cycle runs*:
combinational loops, multiply-driven nets, inferred latches,
blocking/nonblocking scheduling races, dead branches.  This package
runs those analyses at hot-reload time, caches results per
``(module, parameter-set)`` under the same fingerprint keys the
compile cache uses (so an edit re-analyzes only dirty modules), and
lets a :class:`GatePolicy` refuse a swap that would introduce a new
error-class finding.

Layout::

    diagnostics  Diagnostic + severities + ordering
    checks       the analyses (Check subclasses + default_checks)
    engine       Analyzer: fingerprint-cached runs -> AnalysisReport
    gate         GatePolicy / evaluate_gate / GateBlockedError
    report       the repro.analyze/v1 JSON schema + baseline diff
    __main__     python -m repro.analyze (CLI + CI baseline gate)

The original 4-check ``repro.hdl.lint`` module (and later its
deprecated shim) is gone; those checks live in
:mod:`repro.analyze.checks` with everything else.
"""

from .checks import (
    COMB_LOOP,
    CONSTANT_CONDITION,
    DEAD_BRANCH,
    EXTENSION,
    LATCH,
    MULTI_DRIVER,
    NB_RACE,
    OOB_INDEX,
    PROVED_CONDITION,
    TRUNC_LOSS,
    TRUNCATION,
    UNREACHABLE_ARM,
    UNUSED,
    Check,
    CheckContext,
    CombLoopCheck,
    ConstantConditionCheck,
    DeadBranchCheck,
    LatchCheck,
    MultiDriverCheck,
    RaceCheck,
    UnusedSignalCheck,
    ValueRangeCheck,
    WidthCheck,
    default_checks,
)
from .diagnostics import (
    SEVERITIES,
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    Diagnostic,
    count_by_severity,
    sort_diagnostics,
)
from .engine import AnalysisReport, Analyzer
from .gate import GateBlockedError, GateDecision, GatePolicy, evaluate_gate
from .report import (
    SCHEMA_ID,
    build_report,
    design_entry,
    diff_reports,
    finding_identities,
    load_report,
    validate_report,
    write_report,
)

__all__ = [
    "COMB_LOOP",
    "CONSTANT_CONDITION",
    "DEAD_BRANCH",
    "EXTENSION",
    "LATCH",
    "MULTI_DRIVER",
    "NB_RACE",
    "OOB_INDEX",
    "PROVED_CONDITION",
    "SCHEMA_ID",
    "SEVERITIES",
    "SEVERITY_ERROR",
    "SEVERITY_INFO",
    "SEVERITY_WARNING",
    "TRUNC_LOSS",
    "TRUNCATION",
    "UNREACHABLE_ARM",
    "UNUSED",
    "AnalysisReport",
    "Analyzer",
    "Check",
    "CheckContext",
    "CombLoopCheck",
    "ConstantConditionCheck",
    "DeadBranchCheck",
    "Diagnostic",
    "GateBlockedError",
    "GateDecision",
    "GatePolicy",
    "LatchCheck",
    "MultiDriverCheck",
    "RaceCheck",
    "UnusedSignalCheck",
    "ValueRangeCheck",
    "WidthCheck",
    "build_report",
    "count_by_severity",
    "default_checks",
    "design_entry",
    "diff_reports",
    "evaluate_gate",
    "finding_identities",
    "load_report",
    "sort_diagnostics",
    "validate_report",
    "write_report",
]
