"""The runtime half of the sanitizer: the hooks generated code calls.

Instrumented modules (``compile_module`` under ``build.sanitize``) are
exec'd with ``_san`` bound to one shared :class:`SanitizerRuntime` per
session.  The hook names are deliberately terse — they appear once per
instrumented site in the generated source:

======  =====================================================
``rr``  register read (uninit-read via the reg poison bitmap)
``mr``  memory word read (oob-index + uninit-read, returns word)
``ob``  index bound check (oob-index, returns the index)
``tr``  truncating assignment (trunc-overflow, returns the value)
``nw``  nonblocking register write (nb-write-conflict tracking)
======  =====================================================

Every hook is value-transparent: with no finding it returns exactly
what the clean code would have computed, so ``report`` mode never
perturbs simulation semantics (the differential fuzzers assert this).

Findings are deduplicated per (kind, module, signal, line) site so the
findings list is bounded by the number of instrumented sites, while
``hits`` counts every dynamic occurrence.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .. import obs
from ..analyze.diagnostics import SEVERITY_WARNING, Diagnostic
from ..hdl.errors import SimulationError

SAN_UNINIT = "san-uninit-read"
SAN_OOB = "san-oob-index"
SAN_TRUNC = "san-trunc-overflow"
SAN_NB_CONFLICT = "san-nb-write-conflict"

CHECK_KINDS = (SAN_UNINIT, SAN_OOB, SAN_TRUNC, SAN_NB_CONFLICT)

SANITIZE_MODES = ("off", "report", "trap")

# The Diagnostic.check attribution for every sanitizer finding.
SANITIZE_CHECK = "sanitize"

# Instrumentation site info tuples (module, signal, file-absolute line)
# are emitted as a literal ``_SAN_I`` table inside the generated source,
# so artifact-store rehydration needs no side data.
SiteInfo = Tuple[str, str, int]


class SanitizerError(SimulationError):
    """A sanitizer check fired in ``trap`` mode.

    Carries the offending module, signal, and file-absolute source
    line so the trap points at the user's HDL, not the generated code.
    """

    def __init__(self, kind: str, module: str, signal: str, line: int,
                 detail: str):
        self.kind = kind
        self.module = module
        self.signal = signal
        self.line = line
        super().__init__(
            f"[{kind}] {module}.{signal} (line {line}): {detail}"
        )


class SanitizerRuntime:
    """Shared per-session checker state: mode, counters, findings."""

    def __init__(self, mode: str = "report"):
        if mode not in SANITIZE_MODES:
            raise ValueError(
                f"unknown sanitize mode {mode!r}; expected one of "
                f"{SANITIZE_MODES}"
            )
        self.mode = mode
        self.hits: Dict[str, int] = {kind: 0 for kind in CHECK_KINDS}
        self.findings: List[Diagnostic] = []
        self._seen: Set[Tuple[str, str, str, int]] = set()
        # A list while a clock edge is in flight: traps wait in it.
        self._held: Optional[List[SanitizerError]] = None

    # -- bookkeeping -------------------------------------------------------

    def reset(self) -> None:
        """Drop counters and findings (mode is preserved)."""
        self.hits = {kind: 0 for kind in CHECK_KINDS}
        self.findings = []
        self._seen = set()

    def counters(self) -> Dict[str, int]:
        return dict(self.hits)

    def status(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "hits": self.counters(),
            "findings": len(self.findings),
        }

    def begin_edge(self) -> None:
        """Pipe.tick, around ``cycle``: an edge is atomic, so until
        :meth:`end_edge` a trap is held instead of raised."""
        self._held = []

    def end_edge(self) -> Optional[SanitizerError]:
        """The first trap of the edge, for the caller to raise."""
        held, self._held = self._held, None
        return held[0] if held else None

    def _report(self, kind: str, info: SiteInfo, detail: str) -> None:
        self.hits[kind] += 1
        if self.mode == "off":
            return
        module, signal, line = info
        site = (kind, module, signal, line)
        if site not in self._seen:
            self._seen.add(site)
            self.findings.append(
                Diagnostic(
                    kind=kind,
                    module=module,
                    message=f"{signal}: {detail}",
                    line=line,
                    severity=SEVERITY_WARNING,
                    check=SANITIZE_CHECK,
                )
            )
            obs.incr(f"sanitize.{kind}")
        if self.mode == "trap":
            error = SanitizerError(kind, module, signal, line, detail)
            if self._held is None:
                raise error
            self._held.append(error)

    # -- hooks called from generated code ----------------------------------

    def rr(self, poison: int, bit: int, value: int, info: SiteInfo) -> int:
        """Register read: ``poison`` is the instance's reg poison bitmap."""
        if (poison >> bit) & 1:
            self._report(
                SAN_UNINIT, info,
                "read of never-written register "
                "(state introduced by a reload/restore)",
            )
        return value

    def mr(self, mem: list, poison: int, index: int, info: SiteInfo) -> int:
        """Memory word read: bound check, word poison check, then the
        same wrapped access the clean code performs."""
        depth = len(mem)
        if index >= depth:
            self._report(
                SAN_OOB, info,
                f"memory index {index} out of range [0, {depth})",
            )
        addr = index % depth
        if (poison >> addr) & 1:
            self._report(
                SAN_UNINIT, info,
                f"read of never-written memory word [{addr}]",
            )
        return mem[addr]

    def ob(self, value: int, bound: int, info: SiteInfo) -> int:
        """Index bound check (bit/part selects, memory write addresses)."""
        if value >= bound:
            self._report(
                SAN_OOB, info,
                f"index {value} out of range [0, {bound})",
            )
        return value

    def tr(self, value: int, mask: int, info: SiteInfo) -> int:
        """Truncating assignment: report the bits the mask drops."""
        lost = value & ~mask
        if lost:
            self._report(
                SAN_TRUNC, info,
                "assignment value exceeds target width "
                f"(lost bits 0x{lost:x})",
            )
        return value

    def nw(self, writes: dict, bit: int, block: int, mask: int,
           info: SiteInfo) -> None:
        """Nonblocking register write tracking.

        ``writes`` maps reg state-index -> (block id, accumulated write
        mask) for the current cycle; ``tick`` uses the keys to clear
        poison, and a second *different-block* writer touching already
        written bits is the dynamic nb-race.
        """
        prior = writes.get(bit)
        if prior is None:
            writes[bit] = (block, mask)
            return
        prior_block, prior_mask = prior
        if prior_block != block and (prior_mask & mask):
            self._report(
                SAN_NB_CONFLICT, info,
                "nonblocking write collides with a same-cycle writer "
                f"from another always block (bits 0x{prior_mask & mask:x}; "
                "see the static 'nb-race' check)",
            )
        writes[bit] = (block, prior_mask | mask)
