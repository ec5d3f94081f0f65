"""Runtime sanitizer for generated simulation code (repro.sanitize).

The static analyses in :mod:`repro.analyze` inspect the elaborated
netlist; this package covers the *dynamic* side: codegen
(:mod:`repro.codegen.pygen`) can emit instrumented code that calls into
a shared :class:`SanitizerRuntime` on every register read, memory
access, truncating assignment, and nonblocking write.  Where a hook
goes and what it looks like is :class:`Instrumenter`'s
(:mod:`repro.sanitize.instrument`), which the generator calls and
which imports nothing of it; the build's ``san_elide`` says whether it
elides the sites their widths make safe.  Findings come out as
:class:`repro.analyze.Diagnostic` objects, so they flow through the
same gate baselines, ``lint`` surfaces, and server events as the static
checks.

Checks
------

``san-uninit-read``
    A poison-bit shadow per register and per memory word.  Cold start
    is defined power-on zero (the simulator is 2-state); poison is set
    only by state-*introducing* transitions — a hot reload that adds a
    register, a checkpoint restore into a design with state the
    snapshot never had, a memory grown past its snapshotted depth.
    One rule covers them all (Table V, :mod:`repro.live.transform`):
    a register or memory word the carried state lacks is zero and
    poisoned, whatever a from-reset run would hold there.
``san-oob-index``
    Memory addresses and dynamic bit/part-select indices checked
    against declared bounds *before* the wrap-around masking that the
    clean code applies silently.
``san-trunc-overflow``
    Assignments whose RHS value has bits above the LHS width report
    the lost bits (clean code masks them silently).
``san-nb-write-conflict``
    Runtime confirmation of the analyzer's static ``nb-race`` finding:
    two *different* same-phase always blocks writing overlapping bits
    of one register in the same cycle.

Modes: ``off`` (clean codegen, zero overhead), ``report`` (record
findings, keep simulating), ``trap`` (raise :class:`SanitizerError` at
the first offending cycle; one that fires inside a clock edge is raised
when the edge is complete, so the state is what ``report`` mode holds).
``report`` <-> ``trap`` is a runtime toggle; ``off`` <-> instrumented
requires a (cached) recompile plus a hot swap, which
:meth:`repro.live.session.LiveSession.set_sanitize` performs.
"""

from .. import lazy_exports
from .runtime import (
    CHECK_KINDS,
    SAN_NB_CONFLICT,
    SAN_OOB,
    SAN_TRUNC,
    SAN_UNINIT,
    SANITIZE_CHECK,
    SANITIZE_MODES,
    SanitizerError,
    SanitizerRuntime,
)

# The generator's half loads with the first sanitized compile.
__getattr__ = lazy_exports(__name__, {
    ".instrument": ("Instrumenter", "place_sites"),
})

__all__ = [
    "CHECK_KINDS",
    "Instrumenter",
    "SAN_NB_CONFLICT",
    "SAN_OOB",
    "SAN_TRUNC",
    "SAN_UNINIT",
    "SANITIZE_CHECK",
    "SANITIZE_MODES",
    "SanitizerError",
    "SanitizerRuntime",
    "place_sites",
]
