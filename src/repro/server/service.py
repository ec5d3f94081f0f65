"""The session side of the LiveSim server: what a worker hosts.

The paper's workflow is one designer in one process; the server turns
that into infrastructure.  Each *named session* owns a full
:class:`~repro.live.session.LiveSession` (design source, pipes,
checkpoints, background verification) behind a per-session lock, so
independent sessions make progress concurrently while commands within
one session stay serialized.  This module holds the pieces every
:class:`~repro.server.shard.SessionWorker` is built from:

* :class:`SessionManager` — the registry of named
  :class:`ManagedSession` (LiveSession + CommandInterpreter + lock);
* :func:`summarize` / :func:`error_payload` — command results and
  exceptions as wire-level JSON;
* :func:`watch_verify_loop` / :func:`watch_trace_loop` — the pumps
  behind ``verify_status`` and ``value_change`` events.

All sessions share one on-disk :class:`~repro.server.store.ArtifactStore`
(when configured), so the second session compiling a design the first
one already compiled — or a warm restart of the whole server — loads
artifacts from disk instead of running codegen.

The socket front door is :mod:`repro.server.frontend`.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from .. import obs
from ..analyze import AnalysisReport, GateBlockedError
from ..hdl.errors import HDLError, SimulationError
from ..live.checkpoint import Checkpoint
from ..live.commands import CommandError, CommandInterpreter
from ..live.consistency import ConsistencyReport
from ..live.session import ERDReport, LiveSession
from ..sanitize import SanitizerError
from ..sim.pipeline import Pipe
from ..sim.testbench import reset_sequence
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
    if isinstance(value, ConsistencyReport):
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


# -- background-verify watching ----------------------------------------------


def watch_verify_loop(
    managed: "ManagedSession",
    pipe: str,
    send_event: Any,
    should_stop: Any,
    poll: float,
) -> None:
    """Poll one pipe's background verification, emitting ``verify_status``
    events until the job leaves the running state.

    ``send_event(data: dict) -> bool`` delivers one event (False stops
    the watch); ``should_stop() -> bool`` is the worker's shutdown
    flag.  Runs in the caller's thread — spawn one per watch.
    """
    last = None
    while not should_stop():
        try:
            status = managed.session.verify_status(pipe)
        except SimulationError:
            return  # pipe vanished (session closed / renamed)
        snapshot = (
            status.state,
            status.completed_segments,
            status.cancelled_segments,
        )
        if snapshot != last:
            data = to_jsonable(status)
            data["pipe"] = pipe
            if not send_event(data):
                return
            last = snapshot
        if status.state != "running":
            return
        time.sleep(poll)


# -- live-trace value-change streaming ---------------------------------------


def watch_trace_loop(
    managed: "ManagedSession",
    pipe: str,
    signal: str,
    sub,
    send_event: Any,
    should_stop: Any,
    poll: float,
) -> None:
    """Drain one trace subscription, emitting batched ``value_change``
    events until the subscription closes (``unwatch``), the consumer
    goes away, or the pipe vanishes.

    ``sub`` is a :class:`repro.trace.TraceSubscription`;
    ``send_event(data: dict) -> bool`` delivers one event (False stops
    the watch); ``should_stop() -> bool`` is the worker's shutdown
    flag.  Runs in the caller's thread — spawn one per watch.  The
    simulation side never blocks on this loop: the subscription queue
    drops oldest under backpressure and counts the drops.
    """
    try:
        while not should_stop():
            if sub.closed:
                return
            events, dropped = sub.drain()
            if events:
                data = {
                    "pipe": pipe,
                    "signal": signal,
                    "events": events,
                    "events_dropped": dropped,
                }
                if not send_event(data):
                    return
            try:
                managed.session.pipe(pipe)
            except SimulationError:
                return  # pipe vanished (session closed / renamed)
            time.sleep(poll)
    finally:
        sub.close()


# -- session registry --------------------------------------------------------


class ManagedSession:
    """One named LiveSession plus its interpreter and serialization lock."""

    def __init__(self, name: str, session: LiveSession,
                 tb_handle: Optional[str]):
        self.name = name
        self.session = session
        self.interp = CommandInterpreter(session)
        self.tb_handle = tb_handle
        self.lock = threading.RLock()
        self.last_used = time.monotonic()
        self.commands = 0

    def touch(self) -> None:
        self.last_used = time.monotonic()
        self.commands += 1

    def idle_seconds(self) -> float:
        return time.monotonic() - self.last_used


class SessionManager:
    """Registry of the named sessions one worker owns."""

    def __init__(
        self,
        artifact_store=None,
        checkpoint_interval: int = 10_000,
    ):
        self.artifact_store = artifact_store
        self.checkpoint_interval = checkpoint_interval
        self._lock = threading.Lock()
        self._sessions: Dict[str, ManagedSession] = {}

    # -- lifecycle -----------------------------------------------------------

    def open(
        self,
        name: str,
        source: str,
        reset_cycles: int = 2,
    ) -> Dict[str, Any]:
        """Create a named session from LHDL source text.

        Registers a ``reset_sequence`` testbench (with a factory spec,
        so background verification can rebuild it in worker processes)
        unless ``reset_cycles`` is negative.
        """
        if not name:
            raise DuplicateSessionError("session name must be non-empty")
        with self._lock:
            if name in self._sessions:
                raise DuplicateSessionError(
                    f"session {name!r} already exists"
                )
        session = LiveSession(
            source,
            checkpoint_interval=self.checkpoint_interval,
            artifact_store=self.artifact_store,
        )
        tb_handle = None
        if reset_cycles >= 0:
            tb_handle = session.load_testbench(
                reset_sequence("rst", cycles=reset_cycles),
                factory=(
                    "repro.sim.testbench:reset_sequence",
                    {"reset_name": "rst", "cycles": reset_cycles},
                ),
            )
        managed = ManagedSession(name, session, tb_handle)
        with self._lock:
            if name in self._sessions:  # lost a creation race
                session.close()
                raise DuplicateSessionError(
                    f"session {name!r} already exists"
                )
            self._sessions[name] = managed
            count = len(self._sessions)
        obs.incr("server.sessions_opened")
        obs.gauge("server.sessions", count)
        from ..live.tables import STAGE

        handles = {
            str(entry.payload): entry.handle
            for entry in session.objects.by_type(STAGE)
        }
        return {
            "session": name,
            "modules": sorted(session.compiler.design.modules),
            "handles": handles,
            "tb": tb_handle,
            "reset_cycles": reset_cycles,
        }

    def get(self, name: str) -> ManagedSession:
        with self._lock:
            managed = self._sessions.get(name)
        if managed is None:
            raise UnknownSessionError(f"unknown session {name!r}")
        return managed

    def close(self, name: str) -> bool:
        with self._lock:
            managed = self._sessions.pop(name, None)
            count = len(self._sessions)
        if managed is None:
            raise UnknownSessionError(f"unknown session {name!r}")
        with managed.lock:
            managed.session.close()
        obs.incr("server.sessions_closed")
        obs.gauge("server.sessions", count)
        return True

    def close_all(self) -> None:
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for managed in sessions:
            with managed.lock:
                managed.session.close()
        obs.gauge("server.sessions", 0)

    # -- introspection -------------------------------------------------------

    @property
    def count(self) -> int:
        with self._lock:
            return len(self._sessions)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._sessions)

    def checkpoint_totals(self) -> Dict[str, int]:
        """The checkpoints every pipe of every session holds: how many,
        their logical payload (``bytes``, 8 B per word) and what stays
        resident (``resident_bytes``: a memory page shared by several
        checkpoints of a store counted once)."""
        with self._lock:
            sessions = list(self._sessions.values())
        totals = {"count": 0, "bytes": 0, "resident_bytes": 0}
        for managed in sessions:
            for row in list(managed.session.pipelines):
                totals["count"] += len(row.store)
                totals["bytes"] += row.store.total_bytes()
                totals["resident_bytes"] += row.store.resident_bytes()
        return totals

    def describe(self) -> List[Dict[str, Any]]:
        with self._lock:
            sessions = list(self._sessions.values())
        return [
            {
                "session": managed.name,
                "modules": len(managed.session.compiler.design.modules),
                "pipes": sorted(managed.session.pipelines.names()),
                "commands": managed.commands,
                "idle_seconds": managed.idle_seconds(),
                "version": managed.session.version,
            }
            for managed in sessions
        ]
