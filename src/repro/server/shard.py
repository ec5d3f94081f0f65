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
* :class:`SessionWorker` / :func:`worker_main` — the worker: a
  :class:`~repro.server.service.SessionManager` slice driven by framed
  messages over a :class:`multiprocessing.connection.Connection`, with
  command execution on a small thread pool (per-session locks keep one
  session serialized) and ``verify_status`` / ``lint_findings`` /
  ``value_change`` events streamed back tagged with the originating
  request id.  The frontend runs it as a process, or for
  ``--workers 0`` on a thread of its own process; the worker cannot
  tell which.

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
from ..live.checkpoint import Checkpoint, atomic_write
from ..live.commands import CommandInterpreter
from ..trace.buffer import DEFAULT_SUB_QUEUE as TRACE_SUB_QUEUE
from .service import (
    ManagedSession,
    SessionManager,
    error_payload,
    summarize,
    watch_trace_loop,
    watch_verify_loop,
)
from .store import ArtifactStore

JOURNAL_FORMAT = "repro.journal/v1"

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

    The journal is a small JSON file (atomic tmp+rename rewrite on
    every append — structural ops are rare) holding the ordered op
    list, plus one pickled checkpoint-store file per pipe.  Recovery
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
            with open(self.path) as fh:
                payload = json.load(fh)
            if (
                not isinstance(payload, dict)
                or payload.get("format") != JOURNAL_FORMAT
                or payload.get("session") != self.name
            ):
                raise ValueError(
                    f"journal {self.path} is not a {JOURNAL_FORMAT} "
                    f"journal for session {self.name!r}"
                )
            self._payload = payload
        return self._payload

    def _flush(self) -> None:
        os.makedirs(self.root, exist_ok=True)
        atomic_write(
            self.path, lambda fh: json.dump(self._payload, fh), mode="w"
        )

    # -- writing -------------------------------------------------------------

    def begin(self, source: str, reset_cycles: int) -> None:
        """Start a fresh journal for a newly-opened session."""
        self._payload = {
            "format": JOURNAL_FORMAT,
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
        except (OSError, ValueError):
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


class SessionWorker:
    """One worker: a SessionManager slice behind a pipe.

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
        store = (
            ArtifactStore(config.store_root) if config.store_root else None
        )
        self.manager = SessionManager(
            artifact_store=store,
            checkpoint_interval=config.checkpoint_interval,
        )
        self._journals: Dict[str, SessionJournal] = {}
        # session -> pipe -> the newest checkpoint of the pipe's store
        # when the journal's file last saved it.
        self._saved_newest: Dict[str, Dict[str, Checkpoint]] = {}
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
            self.manager.close_all()
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

    # -- journal helpers -----------------------------------------------------

    def _journal(self, name: str) -> Optional[SessionJournal]:
        if self.config.state_root is None:
            return None
        journal = self._journals.get(name)
        if journal is None:
            journal = SessionJournal(self.config.state_root, name)
            self._journals[name] = journal
        return journal

    def _journal_command(
        self, managed: ManagedSession, journal: SessionJournal,
        verb: str, operands: List[str], line: str,
    ) -> None:
        verb = verb.lower()
        if verb == "ldlib":
            # Journal the *text the session actually merged* (recorded
            # by the interpreter), never a re-read of the path: the
            # file can change or vanish between the load and this
            # write, and a divergent or missing lib op rebuilds a
            # different design — or drops the session — on rehydrate.
            recorded = managed.interp.last_ld_lib
            if recorded is None or recorded[0] != operands[0]:
                raise OSError(
                    f"ldLib source for {operands[0]!r} was not captured"
                )
            journal.append(
                {"op": "lib", "name": recorded[0], "source": recorded[1]}
            )
            return
        if verb in ("chkp", "ldch"):
            # ``ldch`` rewrites the store (the abandoned future goes, the
            # loaded checkpoints come in), and recovery restores the
            # store the file holds.
            self._persist_checkpoints(
                managed, journal, operands[0], force=True
            )
            return
        if verb == "run":
            # Piggyback on implicit interval checkpoints: if the run
            # crossed a boundary the store grew, and persisting it
            # advances the recovery point for free.
            self._persist_checkpoints(
                managed, journal, operands[1], force=False
            )
            return
        if verb in STRUCTURAL_VERBS:
            journal.append({"op": "line", "line": line})

    def _persist_checkpoints(
        self, managed: ManagedSession, journal: SessionJournal,
        pipe: str, force: bool,
    ) -> None:
        """Save one pipe's checkpoint store to the journal's file when
        the newest checkpoint moved (or unconditionally on ``force``).
        Moved means another checkpoint, not another cycle: after a
        rewind the same cycle can hold another state."""
        store = managed.session.store(pipe)
        checkpoints = store.all()
        if not checkpoints:
            return
        saved = self._saved_newest.setdefault(managed.name, {})
        if not force and saved.get(pipe) is checkpoints[-1]:
            return
        store.save(journal.checkpoint_path(pipe))
        saved[pipe] = checkpoints[-1]
        obs.incr("server.journal_checkpoints")

    # -- commands ------------------------------------------------------------

    def _cmd_open(
        self, rid: int, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        name, source = params["session"], params["source"]
        reset_cycles = params.get("reset_cycles")
        if reset_cycles is None:
            reset_cycles = 2
        info = self.manager.open(name, source, reset_cycles=reset_cycles)
        journal = self._journal(name)
        if journal is not None:
            try:
                journal.begin(source, reset_cycles)
            except OSError:
                # Roll the open back.  Keeping the session while the
                # client sees an error would leave it unmapped on the
                # frontend but resident here, so every retry would die
                # with duplicate-session.
                self._journals.pop(name, None)
                try:
                    self.manager.close(name)
                except KeyError:
                    pass
                raise
        return info

    def _cmd_cmd(self, rid: int, params: Dict[str, Any]) -> Any:
        name, line = params["session"], params["line"]
        crash_line = self.config.extra.get("crash_line")
        if crash_line is not None and line.strip() == crash_line:
            # Chaos hook for failover tests: die exactly like a
            # SIGKILL would, mid-request, every time this line runs.
            os._exit(17)
        managed = self.manager.get(name)
        journal_error: Optional[str] = None
        with managed.lock:
            result = managed.interp.execute(line)
            managed.touch()
            journal = self._journal(name)
            if journal is not None:
                verb, operands = CommandInterpreter.parse(line)
                try:
                    self._journal_command(
                        managed, journal, verb, operands, line
                    )
                except OSError as exc:
                    obs.incr("server.journal_errors")
                    journal_error = str(exc)
        if journal_error is not None:
            self._warn_journal(rid, name, line, journal_error)
        verb = result.command.lower()
        if verb == "verify":
            pipe = CommandInterpreter.parse(line)[1][0]
            self._watch_verify(rid, managed, pipe)
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
        managed = self.manager.get(name)
        with managed.lock:
            report = managed.session.apply_change(
                source, override_gate=override
            )
            managed.touch()
            journal = self._journal(name)
            journal_error: Optional[str] = None
            if journal is not None:
                try:
                    journal.append({
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
        self.manager.close(name)
        self._saved_newest.pop(name, None)
        journal = self._journals.pop(name, None)
        if journal is not None and not params.get("keep_state"):
            # keep_state: the session is migrating to another
            # worker, which adopts the journal + checkpoint files.
            journal.delete()
        return {"closed": name}

    def _cmd_describe(self, rid: int, params: Dict[str, Any]) -> List[Dict]:
        entries = self.manager.describe()
        for entry in entries:
            entry["worker"] = self.config.worker_id
        return entries

    def _cmd_stats(
        self, rid: int, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        stats: Dict[str, Any] = {
            "worker": self.config.worker_id,
            "pid": os.getpid(),
            "sessions": self.manager.count,
            "session_names": self.manager.names(),
            "metrics": obs.get_metrics().as_dict(),
        }
        store = self.manager.artifact_store
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
        managed = self.manager.get(name)
        journal = self._journal(name)
        if journal is None:
            raise ValueError(
                "worker has no state dir; cannot persist sessions"
            )
        if not journal.exists():
            raise LookupError(
                f"no journal for session {name!r}; it cannot be migrated"
            )
        saved: Dict[str, int] = {}
        with managed.lock:
            for pipe in managed.session.pipelines.names():
                managed.session.chkp(pipe)
                self._persist_checkpoints(managed, journal, pipe,
                                          force=True)
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
        try:
            self.manager.close(name)  # drop any half-alive remnant
        except KeyError:
            pass
        self._saved_newest.pop(name, None)
        started = time.perf_counter()
        ops = journal.ops()
        if not ops or ops[0]["op"] != "open":
            raise ValueError(f"journal for {name!r} has no open record")
        info = self.manager.open(
            name, ops[0]["source"],
            reset_cycles=ops[0].get("reset_cycles", 2),
        )
        managed = self.manager.get(name)
        with managed.lock:
            for op in ops[1:]:
                kind = op.get("op")
                if kind == "lib":
                    managed.session.ld_lib(op["name"], op.get("source"))
                elif kind == "reload":
                    managed.session.apply_change(
                        op["source"], override_gate=bool(op.get("override"))
                    )
                elif kind == "line":
                    managed.interp.execute(op["line"])
            restored = {}
            for pipe, path in journal.checkpoints().items():
                managed.session.ldch(pipe, path)
                restored[pipe] = managed.session.pipe(pipe).cycle
            managed.touch()
        self._journals[name] = journal
        seconds = time.perf_counter() - started
        obs.incr("server.sessions_rehydrated")
        obs.histogram("server.rehydrate_seconds", seconds)
        return {
            "session": name,
            "rehydrated": True,
            "worker": self.config.worker_id,
            "seconds": seconds,
            "pipes": restored,
            "modules": info["modules"],
        }

    def _cmd_subscribe(self, rid: int, params: Dict[str, Any]) -> Any:
        """Re-arm a watch the frontend recorded, on the worker that owns
        the session after a migration or crash rehydration.

        The rehydration replayed the journaled ``watch`` line, so this
        is not a command line: it runs nothing through the interpreter
        and journals nothing.  ``session.watch`` is idempotent (and
        re-creates a probe whose journal write had failed); the
        ``value_change`` pump is what died with the old worker."""
        managed = self.manager.get(params["session"])
        pipe, signal = params["pipe"], params["signal"]
        with managed.lock:
            info = managed.session.watch(pipe, signal)
            self._watch_trace(
                rid, managed, pipe, signal,
                params.get("max_events"),
            )
        return summarize(info)

    # -- events --------------------------------------------------------------

    def _watch_verify(
        self, rid: int, managed: ManagedSession, pipe: str
    ) -> None:
        def loop() -> None:
            watch_verify_loop(
                managed,
                pipe,
                lambda data: self._send_event(
                    rid, "verify_status", managed.name, data
                ),
                self._stop.is_set,
                POLL_SECONDS,
            )

        threading.Thread(
            target=loop,
            name=f"livesim-w{self.config.worker_id}-verify-{managed.name}",
            daemon=True,
        ).start()

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
        ``max_events`` (default :data:`TRACE_SUB_QUEUE`) wait in the
        subscription queue before the oldest drop."""
        session = managed.session
        with managed.lock:
            buffer = session.trace_buffer(pipe, create=True)
            sub = buffer.subscribe(
                [signal], max_events=max_events or TRACE_SUB_QUEUE
            )

        def loop() -> None:
            watch_trace_loop(
                managed,
                pipe,
                signal,
                sub,
                lambda data: self._send_event(
                    rid, "value_change", managed.name, data
                ),
                self._stop.is_set,
                POLL_SECONDS,
            )

        threading.Thread(
            target=loop,
            name=f"livesim-w{self.config.worker_id}-trace-{managed.name}",
            daemon=True,
        ).start()


def worker_main(conn, config: WorkerConfig) -> None:
    """Entry point of a sharded worker process."""
    SessionWorker(conn, config).run()
