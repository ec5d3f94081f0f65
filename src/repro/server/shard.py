"""Sharding for the LiveSim server: ring, journal, worker.

One Python process serializes every session behind one GIL, so its
aggregate throughput is capped at ~1 core.  The server therefore
splits the session population across a pool of workers, by default
one *process* each:

* :class:`HashRing` — consistent hashing of session name -> worker id,
  so a resize moves only ~1/W of the sessions and every frontend
  restart computes the same placement.
* :class:`SessionJournal` — an on-disk, atomically-rewritten log of the
  *structural* operations of one session (open / ldLib / reload /
  instPipe / ...) plus per-pipe checkpoint-store files.  A worker crash
  is recovered by replaying the journal on a fresh worker (compiles hit
  the shared :class:`~repro.server.store.ArtifactStore`, so this is
  cheap) and restoring each pipe from its last saved checkpoint.
* :class:`ManagedSession` — a worker's one record of one session: the
  :class:`~repro.live.session.LiveSession`, its interpreter and lock,
  use counters, its journal and what each pipe last saved.
* :class:`SessionWorker` / :func:`worker_main` — the worker: one
  registry of those records driven by framed messages over a
  :class:`multiprocessing.connection.Connection`, with command
  execution on a small thread pool (per-session locks keep one session
  serialized) and ``verify_status`` / ``lint_findings`` /
  ``value_change`` events streamed back tagged with the originating
  request id.  ``open`` and ``rehydrate`` are one admission: a record
  is built from a history of ops and enters the registry complete, or
  not at all.  The frontend runs the worker as a process, or for
  ``--workers 0`` on a thread of its own process; the worker cannot
  tell which.

All sessions share one on-disk :class:`~repro.server.store.ArtifactStore`
(when configured), so the second session compiling a design the first
one already compiled, a rehydration or a warm restart of the whole
server loads artifacts from disk instead of running codegen.

The asyncio front door that owns the workers lives in
:mod:`repro.server.frontend`.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .. import obs
from ..analyze import count_by_severity
from ..hdl.errors import SimulationError
from ..live.checkpoint import Checkpoint, read_sealed, write_sealed
from ..live.commands import CommandInterpreter
from ..live.session import LiveSession
from ..live.tables import STAGE, TESTBENCH
from ..sim.testbench import reset_sequence
from .protocol import to_jsonable
from .service import (
    DuplicateSessionError,
    UnknownSessionError,
    error_payload,
    summarize,
)
from .store import ArtifactStore

# Command verbs whose effect on session *structure* must survive a
# worker crash.  They are replayed verbatim through the interpreter on
# rehydration; ``run``, ``chkp`` and ``ldch`` are deliberately absent —
# simulated state is recovered from the checkpoint files (which those
# three save) instead of re-simulating or re-reading the user's file.
# ``watch``/``unwatch`` are structural too: replaying them recreates
# the trace probes (``session.watch`` is idempotent), while the live
# subscriptions are re-armed by the frontend after the route settles.
STRUCTURAL_VERBS = frozenset(
    {"instpipe", "inststage", "copypipe", "swapstage", "san", "opt",
     "watch", "unwatch"}
)

# Points each worker owns on the ring.  Part of session placement:
# changing it moves sessions between workers.
RING_REPLICAS = 64

# A worker runs requests on this many threads (per-session locks keep
# one session serialized) and its event pumps poll every POLL_SECONDS.
MAX_THREADS = 8
POLL_SECONDS = 0.05


# -- consistent hashing ------------------------------------------------------


def _ring_point(label: str) -> int:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent-hash ring mapping session names onto worker ids.

    Each worker owns :data:`RING_REPLICAS` points on a 64-bit ring; a
    name belongs to the first worker point clockwise from its own hash.
    A pool that grows or shrinks by one worker therefore remaps only the
    names in the arcs that worker owns (~1/W of them), which is what
    lets a resize keep most sessions in place.
    """

    def __init__(self, nodes: Iterable[int]):
        self._nodes = {str(node): node for node in nodes}
        # (point, node key): equal points tie-break on the key, so the
        # order the nodes came in never matters.
        self._points: List[Tuple[int, str]] = sorted(
            (_ring_point(f"{key}#{replica}"), key)
            for key in self._nodes
            for replica in range(RING_REPLICAS)
        )

    def lookup(self, key: str) -> int:
        if not self._points:
            raise LookupError("hash ring has no nodes")
        index = bisect.bisect_right(
            self._points, (_ring_point(key), "\uffff")
        )
        return self._nodes[self._points[index % len(self._points)][1]]


# -- session journal ---------------------------------------------------------


def _session_digest(name: str) -> str:
    return hashlib.sha256(name.encode("utf-8")).hexdigest()[:16]


class SessionJournal:
    """Durable structural history of one session, for crash recovery.

    The journal is a small sealed JSON file (an atomic tmp+rename
    rewrite on every append — structural ops are rare; its header is
    checked before it is decoded) holding the ordered op list, plus one
    pickled checkpoint-store file per pipe.  Recovery
    semantics: replaying the ops rebuilds the design (at its *current*
    version, including every reload and its register-transform
    history), then each pipe is restored from the newest checkpoint in
    its saved store.  Simulation since the last checkpoint save is
    lost — that is the documented recovery point.
    """

    def __init__(self, root: str, name: str):
        self.root = root
        self.name = name
        self._digest = _session_digest(name)
        self.path = os.path.join(root, f"{self._digest}.json")
        self._payload: Optional[Dict[str, Any]] = None

    # -- persistence ---------------------------------------------------------

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def _load_payload(self) -> Dict[str, Any]:
        if self._payload is None:
            payload = json.loads(read_sealed(self.path, "journal"))
            if payload["session"] != self.name:
                raise ValueError(
                    f"journal {self.path} is session "
                    f"{payload['session']!r}'s, not {self.name!r}'s"
                )
            self._payload = payload
        return self._payload

    def _flush(self) -> None:
        os.makedirs(self.root, exist_ok=True)
        write_sealed(
            self.path, "journal", json.dumps(self._payload).encode()
        )

    # -- writing -------------------------------------------------------------

    def begin(self, source: str, reset_cycles: int) -> None:
        """Start a fresh journal for a newly-opened session."""
        self._payload = {
            "session": self.name,
            "ops": [
                {"op": "open", "source": source,
                 "reset_cycles": reset_cycles},
            ],
            "checkpoints": {},
        }
        self._flush()

    def append(self, op: Dict[str, Any]) -> None:
        payload = self._load_payload()
        payload["ops"].append(op)
        self._flush()

    def checkpoint_path(self, pipe: str) -> str:
        """Path for one pipe's checkpoint-store file (registered in the
        journal on first use so recovery can enumerate the pipes)."""
        payload = self._load_payload()
        checkpoints = payload["checkpoints"]
        if pipe not in checkpoints:
            suffix = hashlib.sha256(pipe.encode("utf-8")).hexdigest()[:8]
            checkpoints[pipe] = f"{self._digest}-{suffix}.ckpt"
            self._flush()
        return os.path.join(self.root, checkpoints[pipe])

    # -- reading -------------------------------------------------------------

    def ops(self) -> List[Dict[str, Any]]:
        return list(self._load_payload()["ops"])

    def checkpoints(self) -> Dict[str, str]:
        """pipe name -> absolute checkpoint-store path (existing only)."""
        payload = self._load_payload()
        out = {}
        for pipe, filename in payload["checkpoints"].items():
            path = os.path.join(self.root, filename)
            if os.path.exists(path):
                out[pipe] = path
        return out

    def delete(self) -> None:
        payload = None
        try:
            payload = self._load_payload()
        except (OSError, ValueError, SimulationError):
            pass
        if payload is not None:
            for filename in payload["checkpoints"].values():
                try:
                    os.unlink(os.path.join(self.root, filename))
                except OSError:
                    pass
        try:
            os.unlink(self.path)
        except OSError:
            pass
        self._payload = None


# -- worker process ----------------------------------------------------------


@dataclass
class WorkerConfig:
    """Everything a worker process needs; must stay picklable."""

    worker_id: int
    store_root: Optional[str] = None
    state_root: Optional[str] = None
    checkpoint_interval: int = 10_000
    extra: Dict[str, Any] = field(default_factory=dict)


class ManagedSession:
    """A worker's one record of one named session.

    The LiveSession with its interpreter and serialization lock, the
    use counters ``describe`` reports, the session's
    :class:`SessionJournal` (``None`` without a state dir) and
    ``saved``: per pipe, the newest checkpoint of the pipe's store when
    the journal's file last saved it.
    """

    def __init__(self, name: str, session: LiveSession,
                 journal: Optional[SessionJournal]):
        self.name = name
        self.session = session
        self.interp = CommandInterpreter(session)
        self.journal = journal
        self.saved: Dict[str, Checkpoint] = {}
        self.lock = threading.RLock()
        self.last_used = time.monotonic()
        self.commands = 0

    def touch(self) -> None:
        self.last_used = time.monotonic()
        self.commands += 1

    def close(self) -> None:
        with self.lock:
            self.session.close()

    # -- journaling (callers hold ``lock`` and have a journal) ---------------

    def journal_line(self, line: str) -> None:
        """Record what a command line the interpreter just ran does to
        the session's recovery state."""
        verb, operands = CommandInterpreter.parse(line)
        verb = verb.lower()
        if verb == "ldlib":
            # Journal the *text the session actually merged* (recorded
            # by the interpreter), never a re-read of the path: the
            # file can change or vanish between the load and this
            # write, and a divergent or missing lib op rebuilds a
            # different design — or drops the session — on rehydrate.
            recorded = self.interp.last_ld_lib
            if recorded is None or recorded[0] != operands[0]:
                raise OSError(
                    f"ldLib source for {operands[0]!r} was not captured"
                )
            self.journal.append(
                {"op": "lib", "name": recorded[0], "source": recorded[1]}
            )
        elif verb in ("chkp", "ldch"):
            # ``ldch`` rewrites the store (the abandoned future goes, the
            # loaded checkpoints come in), and recovery restores the
            # store the file holds.
            self.save_checkpoints(operands[0], force=True)
        elif verb == "run":
            # Piggyback on implicit interval checkpoints: if the run
            # crossed a boundary the store grew, and persisting it
            # advances the recovery point for free.
            self.save_checkpoints(operands[1], force=False)
        elif verb in STRUCTURAL_VERBS:
            self.journal.append({"op": "line", "line": line})

    def save_checkpoints(self, pipe: str, force: bool) -> None:
        """Save one pipe's checkpoint store to the journal's file when
        the newest checkpoint moved (or unconditionally on ``force``).
        Moved means another checkpoint, not another cycle: after a
        rewind the same cycle can hold another state."""
        store = self.session.store(pipe)
        checkpoints = store.all()
        if not checkpoints:
            return
        if not force and self.saved.get(pipe) is checkpoints[-1]:
            return
        store.save(self.journal.checkpoint_path(pipe))
        self.saved[pipe] = checkpoints[-1]
        obs.incr("server.journal_checkpoints")


class SessionWorker:
    """One worker: the sessions it hosts, behind a pipe.

    Requests arrive as ``{"kind": "request", "rid": ..., "cmd": ...,
    "params": {...}}`` dicts; each executes on a thread-pool thread
    (sessions stay serialized via their own locks) and answers with a
    ``response`` dict carrying the same ``rid``.  Events stream back as
    ``event`` dicts tagged with the rid of the request that started
    them, which is what lets the frontend route them to the right
    client connection — wherever the session is living *now*.
    """

    def __init__(self, conn, config: WorkerConfig):
        self.conn = conn
        self.config = config
        self.artifact_store = (
            ArtifactStore(config.store_root) if config.store_root else None
        )
        self._lock = threading.Lock()
        self._sessions: Dict[str, ManagedSession] = {}
        self._send_lock = threading.Lock()
        self._stop = threading.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=MAX_THREADS,
            thread_name_prefix=f"livesim-w{config.worker_id}",
        )

    # -- transport -----------------------------------------------------------

    def _send(self, message: Dict[str, Any]) -> bool:
        with self._send_lock:
            if self._stop.is_set():
                return False
            try:
                self.conn.send(message)
                return True
            except (OSError, ValueError, BrokenPipeError):
                # The frontend died; there is nobody left to serve.
                self._stop.set()
                return False

    def _send_event(
        self, rid: int, name: str, session: str, data: Dict[str, Any]
    ) -> bool:
        return self._send({
            "kind": "event", "rid": rid, "name": name,
            "session": session, "data": data,
        })

    # -- main loop -----------------------------------------------------------

    def run(self) -> None:
        self._send({
            "kind": "ready",
            "worker": self.config.worker_id,
            "pid": os.getpid(),
        })
        try:
            while not self._stop.is_set():
                try:
                    message = self.conn.recv()
                except (EOFError, OSError):
                    break  # frontend gone
                kind = message.get("kind")
                if kind == "control":
                    if message.get("op") == "shutdown":
                        break
                    continue
                if kind == "request":
                    self._pool.submit(self._handle, message)
        finally:
            self._stop.set()
            self._pool.shutdown(wait=False, cancel_futures=True)
            with self._lock:
                sessions = list(self._sessions.values())
                self._sessions.clear()
            for managed in sessions:
                managed.close()
            try:
                self.conn.close()
            except OSError:
                pass

    # -- request handling ----------------------------------------------------

    def _handle(self, message: Dict[str, Any]) -> None:
        rid = message.get("rid")
        cmd = message.get("cmd", "")
        params = message.get("params") or {}
        started = time.perf_counter()
        # ``worker.*``, not ``server.*``: the frontend counts client
        # requests, and a thread-hosted worker shares its registry.
        obs.incr("worker.requests")
        try:
            value = self._dispatch(rid, cmd, params)
            response = {"kind": "response", "rid": rid, "ok": True,
                        "value": value}
        except Exception as exc:
            obs.incr("worker.request_errors")
            response = {"kind": "response", "rid": rid, "ok": False,
                        "error": error_payload(exc)}
        elapsed = time.perf_counter() - started
        obs.histogram("worker.request_seconds", elapsed)
        obs.histogram(f"worker.cmd.{cmd}.seconds", elapsed)
        self._send(response)

    def _dispatch(self, rid: int, cmd: str, params: Dict[str, Any]) -> Any:
        """Run one request the frontend validated (see
        :data:`repro.server.protocol.VERBS`) or built itself
        (``persist`` / ``rehydrate`` / ``describe`` / ``subscribe``)."""
        handler = getattr(self, f"_cmd_{cmd}", None)
        if handler is None:
            raise ValueError(f"unknown worker command {cmd!r}")
        return handler(rid, params)

    # -- the registry --------------------------------------------------------

    def _get(self, name: str) -> ManagedSession:
        with self._lock:
            managed = self._sessions.get(name)
        if managed is None:
            raise UnknownSessionError(f"unknown session {name!r}")
        return managed

    def _admit(
        self,
        name: str,
        ops: List[Dict[str, Any]],
        journal: Optional[SessionJournal],
        restore: bool,
    ) -> ManagedSession:
        """The one way a session enters this worker.

        Builds a complete record off the registry from a history of ops
        (``ops[0]`` is the ``open`` op; a ``reset_sequence`` testbench
        with a factory spec, so background verification can rebuild it
        in worker processes, unless its ``reset_cycles`` is negative).
        A ``restore`` (rehydration) then loads each pipe's checkpoint
        file.  Only a complete record enters the registry: an ``open``
        refuses a taken name and begins its journal, a ``restore``
        replaces the remnant it finds.  Any failure closes what was
        built and leaves the registry as it was.
        """
        opened = ops[0]
        session = LiveSession(
            opened["source"],
            checkpoint_interval=self.config.checkpoint_interval,
            artifact_store=self.artifact_store,
        )
        managed = ManagedSession(name, session, journal)
        try:
            reset_cycles = opened["reset_cycles"]
            if reset_cycles >= 0:
                session.load_testbench(
                    reset_sequence("rst", cycles=reset_cycles),
                    factory=(
                        "repro.sim.testbench:reset_sequence",
                        {"reset_name": "rst", "cycles": reset_cycles},
                    ),
                )
            for op in ops[1:]:
                kind = op["op"]
                if kind == "lib":
                    session.ld_lib(op["name"], op["source"])
                elif kind == "reload":
                    session.apply_change(
                        op["source"], override_gate=op["override"]
                    )
                elif kind == "line":
                    managed.interp.execute(op["line"])
            if restore:
                for pipe, path in journal.checkpoints().items():
                    session.ldch(pipe, path)
            with self._lock:
                remnant = self._sessions.get(name)
                if not restore:
                    if remnant is not None:
                        raise DuplicateSessionError(
                            f"session {name!r} already exists"
                        )
                    if journal is not None:
                        # Under the lock: an open that lost the race
                        # for the name must not rewrite the winner's.
                        journal.begin(opened["source"], reset_cycles)
                self._sessions[name] = managed
        except BaseException:
            managed.close()
            raise
        obs.incr("worker.sessions_opened")
        if remnant is not None:
            remnant.close()
            obs.incr("worker.sessions_closed")
        return managed

    # -- commands ------------------------------------------------------------

    def _cmd_open(
        self, rid: int, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        name, source = params["session"], params["source"]
        reset_cycles = params.get("reset_cycles")
        if reset_cycles is None:
            reset_cycles = 2
        if not name:
            raise DuplicateSessionError("session name must be non-empty")
        state_root = self.config.state_root
        journal = (
            SessionJournal(state_root, name) if state_root is not None
            else None
        )
        op = {"op": "open", "source": source, "reset_cycles": reset_cycles}
        session = self._admit(name, [op], journal, restore=False).session
        return {
            "session": name,
            "modules": sorted(session.compiler.design.modules),
            "handles": {
                str(entry.payload): entry.handle
                for entry in session.objects.by_type(STAGE)
            },
            "tb": next(
                (entry.handle for entry in session.objects.by_type(TESTBENCH)),
                None,
            ),
            "reset_cycles": reset_cycles,
        }

    def _cmd_cmd(self, rid: int, params: Dict[str, Any]) -> Any:
        name, line = params["session"], params["line"]
        crash_line = self.config.extra.get("crash_line")
        if crash_line is not None and line.strip() == crash_line:
            # Chaos hook for failover tests: die exactly like a
            # SIGKILL would, mid-request, every time this line runs.
            os._exit(17)
        managed = self._get(name)
        journal_error: Optional[str] = None
        with managed.lock:
            result = managed.interp.execute(line)
            managed.touch()
            if managed.journal is not None:
                try:
                    managed.journal_line(line)
                except OSError as exc:
                    obs.incr("server.journal_errors")
                    journal_error = str(exc)
        if journal_error is not None:
            self._warn_journal(rid, name, line, journal_error)
        verb = result.command.lower()
        if verb == "verify":
            pipe = CommandInterpreter.parse(line)[1][0]
            self._start_pump("verify", self._verify_pump, rid, managed, pipe)
        elif verb == "watch":
            operands = CommandInterpreter.parse(line)[1]
            self._watch_trace(
                rid, managed, operands[0], operands[1],
                params.get("max_events"),
            )
        return summarize(result.value)

    def _warn_journal(
        self, rid: int, name: str, line: str, error: str
    ) -> None:
        """A journal write failed: the command *succeeded* but will not
        survive a crash or migration.  Tell the client, don't just
        bump a counter nobody watches."""
        self._send_event(rid, "journal_warning", name, {
            "command": line,
            "error": error,
            "message": (
                "journal write failed; crash/migration recovery for "
                "this session may replay a stale design"
            ),
        })

    def _cmd_reload(self, rid: int, params: Dict[str, Any]) -> Any:
        name, source = params["session"], params["source"]
        override = bool(params.get("override"))
        managed = self._get(name)
        journal_error: Optional[str] = None
        with managed.lock:
            report = managed.session.apply_change(
                source, override_gate=override
            )
            managed.touch()
            if managed.journal is not None:
                try:
                    managed.journal.append({
                        "op": "reload", "source": source,
                        "override": override,
                    })
                except OSError as exc:
                    obs.incr("server.journal_errors")
                    journal_error = str(exc)
        if journal_error is not None:
            self._warn_journal(rid, name, "<reload>", journal_error)
        if report.behavioral:
            self._send_event(rid, "lint_findings", name, {
                "version": report.version,
                "counts": count_by_severity(report.diagnostics),
                "findings": [d.to_json() for d in report.diagnostics],
                "new_findings": [d.to_json() for d in report.new_findings],
                "gate_overridden": report.gate_overridden,
            })
        return summarize(report)

    def _cmd_close(
        self, rid: int, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        name = params["session"]
        with self._lock:
            managed = self._sessions.pop(name, None)
        if managed is None:
            raise UnknownSessionError(f"unknown session {name!r}")
        managed.close()
        obs.incr("worker.sessions_closed")
        if managed.journal is not None and not params.get("keep_state"):
            # keep_state: the session is migrating to another
            # worker, which adopts the journal + checkpoint files.
            managed.journal.delete()
        return {"closed": name}

    def _cmd_describe(self, rid: int, params: Dict[str, Any]) -> List[Dict]:
        with self._lock:
            sessions = list(self._sessions.values())
        return [
            {
                "session": managed.name,
                "modules": len(managed.session.compiler.design.modules),
                "pipes": sorted(managed.session.pipelines.names()),
                "commands": managed.commands,
                "idle_seconds": time.monotonic() - managed.last_used,
                "version": managed.session.version,
                "worker": self.config.worker_id,
            }
            for managed in sessions
        ]

    def _cmd_stats(
        self, rid: int, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        with self._lock:
            sessions = dict(self._sessions)
        # The checkpoints every pipe of every session holds: how many,
        # their logical payload (``bytes``, 8 B per word) and what stays
        # resident (``resident_bytes``: a memory page shared by several
        # checkpoints of a store counted once).
        checkpoints = {"count": 0, "bytes": 0, "resident_bytes": 0}
        for managed in sessions.values():
            for row in list(managed.session.pipelines):
                checkpoints["count"] += len(row.store)
                checkpoints["bytes"] += row.store.total_bytes()
                checkpoints["resident_bytes"] += row.store.resident_bytes()
        stats: Dict[str, Any] = {
            "worker": self.config.worker_id,
            "pid": os.getpid(),
            "sessions": len(sessions),
            "session_names": sorted(sessions),
            "metrics": obs.get_metrics().as_dict(),
            "checkpoints": checkpoints,
        }
        store = self.artifact_store
        if store is not None:
            stats["store"] = {
                "root": store.root,
                "artifacts": len(store),
                "bytes": store.total_bytes(),
            }
        return stats

    # -- migration -----------------------------------------------------------

    def _cmd_persist(
        self, rid: int, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Force the session's full recovery state to disk.

        Called by the frontend as the first step of a migration: a
        fresh checkpoint is taken at each pipe's *current* cycle and
        every checkpoint store is saved to the journal's files, so the
        receiving worker rehydrates with zero simulation loss (unlike
        a crash, whose recovery point is the last saved checkpoint).
        """
        name = params["session"]
        managed = self._get(name)
        if managed.journal is None:
            raise ValueError(
                "worker has no state dir; cannot persist sessions"
            )
        if not managed.journal.exists():
            raise LookupError(
                f"no journal for session {name!r}; it cannot be migrated"
            )
        saved: Dict[str, int] = {}
        with managed.lock:
            for pipe in managed.session.pipelines.names():
                managed.session.chkp(pipe)
                managed.save_checkpoints(pipe, force=True)
                saved[pipe] = managed.session.pipe(pipe).cycle
        obs.incr("server.sessions_persisted")
        return {"session": name, "pipes": saved}

    # -- crash recovery ------------------------------------------------------

    def _cmd_rehydrate(
        self, rid: int, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Rebuild one session from its journal + checkpoints.

        Called by the frontend after it restarts a crashed worker (or
        moves a session to a different worker).  Replays the structural
        ops — design source, reloads (with their register-transform
        history), pipes, sanitize mode — then restores each pipe from
        the newest checkpoint in its saved store.  Compiles read
        through the shared artifact store, so the expensive half of
        this is usually a disk load, not codegen.
        """
        name = params["session"]
        if self.config.state_root is None:
            raise ValueError(
                "worker has no state dir; cannot rehydrate sessions"
            )
        journal = SessionJournal(self.config.state_root, name)
        if not journal.exists():
            raise LookupError(
                f"no journal for session {name!r}; it cannot be recovered"
            )
        started = time.perf_counter()
        managed = self._admit(name, journal.ops(), journal, restore=True)
        seconds = time.perf_counter() - started
        obs.incr("server.sessions_rehydrated")
        obs.histogram("server.rehydrate_seconds", seconds)
        session = managed.session
        with managed.lock:
            restored = {
                pipe: session.pipe(pipe).cycle
                for pipe in journal.checkpoints()
            }
        return {
            "session": name,
            "rehydrated": True,
            "worker": self.config.worker_id,
            "seconds": seconds,
            "pipes": restored,
            "modules": sorted(session.compiler.design.modules),
        }

    def _cmd_subscribe(self, rid: int, params: Dict[str, Any]) -> Any:
        """Re-arm a watch the frontend recorded, on the worker that owns
        the session after a migration or crash rehydration.

        The rehydration replayed the journaled ``watch`` line, so this
        is not a command line: it runs nothing through the interpreter
        and journals nothing.  ``session.watch`` is idempotent (and
        re-creates a probe whose journal write had failed); the
        ``value_change`` pump is what died with the old worker."""
        managed = self._get(params["session"])
        pipe, signal = params["pipe"], params["signal"]
        with managed.lock:
            info = managed.session.watch(pipe, signal)
            self._watch_trace(
                rid, managed, pipe, signal,
                params.get("max_events"),
            )
        return summarize(info)

    # -- event pumps ---------------------------------------------------------

    def _start_pump(
        self, kind: str, body, rid: int, managed: ManagedSession, *args
    ) -> None:
        """Run one event pump on a daemon thread of its own."""
        threading.Thread(
            target=body,
            args=(rid, managed, *args),
            name=f"livesim-w{self.config.worker_id}-{kind}-{managed.name}",
            daemon=True,
        ).start()

    def _verify_pump(
        self, rid: int, managed: ManagedSession, pipe: str
    ) -> None:
        """Poll one pipe's background verification, emitting
        ``verify_status`` events until the job leaves the running
        state, the frontend goes away or the pipe vanishes."""
        last = None
        while not self._stop.is_set():
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
                if not self._send_event(
                    rid, "verify_status", managed.name, data
                ):
                    return
                last = snapshot
            if status.state != "running":
                return
            time.sleep(POLL_SECONDS)

    def _watch_trace(
        self,
        rid: int,
        managed: ManagedSession,
        pipe: str,
        signal: str,
        max_events: Optional[int],
    ) -> None:
        """Stream batched ``value_change`` events for one watched
        signal, tagged with the arming request's rid so the frontend
        can fan them out to the right client connection.  At most
        ``max_events`` (default :data:`DEFAULT_SUB_QUEUE`) wait in the
        subscription queue before the oldest drop."""
        from ..trace.buffer import DEFAULT_SUB_QUEUE  # loaded by a watch

        with managed.lock:
            buffer = managed.session.trace_buffer(pipe, create=True)
            sub = buffer.subscribe(
                [signal], max_events=max_events or DEFAULT_SUB_QUEUE
            )
        self._start_pump(
            "trace", self._trace_pump, rid, managed, pipe, signal, sub
        )

    def _trace_pump(
        self, rid: int, managed: ManagedSession, pipe: str, signal: str,
        sub,
    ) -> None:
        """Drain one trace subscription (a
        :class:`repro.trace.TraceSubscription`) until it closes
        (``unwatch``), the frontend goes away or the pipe vanishes.  The
        simulation side never blocks on this loop: the subscription
        queue drops oldest under backpressure and counts the drops."""
        try:
            while not self._stop.is_set():
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
                    if not self._send_event(
                        rid, "value_change", managed.name, data
                    ):
                        return
                try:
                    managed.session.pipe(pipe)
                except SimulationError:
                    return  # pipe vanished (session closed / renamed)
                time.sleep(POLL_SECONDS)
        finally:
            sub.close()


def worker_main(conn, config: WorkerConfig) -> None:
    """Entry point of a sharded worker process."""
    SessionWorker(conn, config).run()
