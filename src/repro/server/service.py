"""What the LiveSim server puts on the wire for a session's commands.

The paper's workflow is one designer in one process; the server turns
that into infrastructure.  Each *named session* owns a full
:class:`~repro.live.session.LiveSession` (design source, pipes,
checkpoints, background verification) on one
:class:`~repro.server.shard.SessionWorker`, which keeps it in one
:class:`~repro.server.shard.ManagedSession` record.  This module holds
what the worker and the front door share about its results:

* :func:`summarize` / :func:`error_payload` — command results and
  exceptions as wire-level JSON;
* :class:`UnknownSessionError` / :class:`DuplicateSessionError` — the
  two registry errors, and :data:`DEFAULT_PORT`.

The socket front door is :mod:`repro.server.frontend`.
"""

from __future__ import annotations

import sys
from typing import Any, Dict

from ..analyze import AnalysisReport, GateBlockedError
from ..hdl.errors import HDLError, SimulationError
from ..live.checkpoint import Checkpoint
from ..live.commands import CommandError
from ..live.session import ERDReport
from ..sanitize import SanitizerError
from ..sim.pipeline import Pipe
from .protocol import ProtocolError, to_jsonable

DEFAULT_PORT = 7391


class UnknownSessionError(KeyError):
    """Request names a session that does not exist."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep it plain
        return self.args[0] if self.args else "unknown session"


class DuplicateSessionError(ValueError):
    """``open`` names a session that already exists."""


# -- result summarization ----------------------------------------------------


def summarize(value: Any) -> Any:
    """Command result -> compact JSON-safe summary for the wire.

    Heavyweight simulator objects shrink to the fields a client acts
    on; small dataclasses pass through :func:`protocol.to_jsonable`.
    """
    if isinstance(value, Pipe):
        return {
            "_type": "Pipe",
            "name": value.name,
            "cycle": value.cycle,
            "outputs": value.outputs(),
        }
    if isinstance(value, Checkpoint):
        return {
            "_type": "Checkpoint",
            "id": value.id,
            "cycle": value.cycle,
            "version": value.version,
            "bytes": value.total_bytes(),
        }
    # Looked up, not imported: a worker that never verifies never loads
    # verification, and then nothing it returns is a ConsistencyReport.
    consistency = sys.modules.get("repro.live.consistency")
    if consistency is not None and isinstance(
        value, consistency.ConsistencyReport
    ):
        return {
            "_type": "ConsistencyReport",
            "all_consistent": value.all_consistent,
            "divergence_cycle": value.divergence_cycle,
            "segments": len(value.segments),
            "cancelled_segments": value.cancelled_segments,
            "unverifiable_segments": value.unverifiable_segments,
            "errors": list(value.errors),
            "verdict": value.verdict,
            "status": value.status,
            "workers": value.workers,
            "wall_seconds": value.wall_seconds,
        }
    if isinstance(value, ERDReport):
        return {
            "_type": "ERDReport",
            "behavioral": value.behavioral,
            "version": value.version,
            "parse_seconds": value.parse_seconds,
            "compile_seconds": value.compile_seconds,
            "swap_seconds": value.swap_seconds,
            "reload_seconds": value.reload_seconds,
            "replay_seconds": value.replay_seconds,
            "total_seconds": value.total_seconds,
            "within_two_seconds": value.within_two_seconds,
            "cycles_replayed": value.cycles_replayed,
            "checkpoint_cycle": value.checkpoint_cycle,
            "recompiled_keys": list(value.recompiled_keys),
            "reused_keys": list(value.reused_keys),
            "swapped_instances": value.swapped_instances,
            "pipes_updated": list(value.pipes_updated),
            "analyze_seconds": value.analyze_seconds,
            "analyzed_keys": list(value.analyzed_keys),
            "analysis_reused_keys": list(value.analysis_reused_keys),
            "findings": [d.to_json() for d in value.diagnostics],
            "new_findings": [d.to_json() for d in value.new_findings],
            "gate_overridden": value.gate_overridden,
            "sanitize": value.sanitize,
            "opt": value.opt,
            "pass_computed_keys": {
                name: list(keys)
                for name, keys in value.pass_computed_keys.items()
            },
            "pass_reused_keys": {
                name: list(keys)
                for name, keys in value.pass_reused_keys.items()
            },
        }
    if isinstance(value, AnalysisReport):
        return {
            "_type": "AnalysisReport",
            "top": value.top,
            "counts": value.counts,
            "analyzed_keys": list(value.analyzed_keys),
            "reused_keys": list(value.reused_keys),
            "seconds": value.seconds,
            "findings": [d.to_json() for d in value.diagnostics],
        }
    if isinstance(value, list):
        return [summarize(item) for item in value]
    return to_jsonable(value)


# -- error mapping -----------------------------------------------------------


def error_payload(exc: Exception) -> Dict[str, Any]:
    """Map one command exception to its wire-level error object."""
    if isinstance(exc, CommandError):
        return {"type": "command", "message": str(exc)}
    if isinstance(exc, UnknownSessionError):
        return {"type": "unknown-session", "message": str(exc)}
    if isinstance(exc, DuplicateSessionError):
        return {"type": "duplicate-session", "message": str(exc)}
    if isinstance(exc, GateBlockedError):
        # Before HDLError (its base): a refused swap is a distinct
        # client-visible outcome carrying the blocking findings.
        return {
            "type": "gate",
            "message": str(exc),
            "findings": [d.to_json() for d in exc.diagnostics],
        }
    if isinstance(exc, HDLError):
        return {"type": "hdl", "message": str(exc)}
    if isinstance(exc, SanitizerError):
        # Before SimulationError (its base): a trap carries the
        # offending site so clients can jump to the source line.
        return {
            "type": "sanitizer",
            "message": str(exc),
            "kind": exc.kind,
            "module": exc.module,
            "signal": exc.signal,
            "line": exc.line,
        }
    if isinstance(exc, SimulationError):
        return {"type": "simulation", "message": str(exc)}
    if isinstance(exc, ProtocolError):
        return {"type": "protocol", "message": str(exc)}
    return {
        "type": "internal",
        "message": f"{type(exc).__name__}: {exc}",
    }
