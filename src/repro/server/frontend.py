"""Asyncio front door of the LiveSim server — the only one.

One :class:`ShardedFrontend` owns a pool of workers (see
:mod:`repro.server.shard`) and an asyncio JSON-lines socket server
speaking the ``repro.server/v1`` protocol.  Each request is validated
against its verb's declaration (:data:`repro.server.protocol.VERBS`)
and routed by consistent hash of its session name to a persistent
worker; responses and streamed events come back over the worker pipe
tagged with a frontend-assigned routing id (rid), which is how a
``verify_status`` event finds the client connection that started the
verify even after the session has been rehydrated on a fresh worker.

Hosting: ``workers=N`` runs N worker *processes*; ``workers=0`` runs
the same :func:`~repro.server.shard.worker_main` on a *thread* of this
process behind the same pipe (no second core, no spawn cost, no crash
isolation).  :meth:`ShardedFrontend._spawn_worker_sync` is the only
place that knows the difference.

Crash recovery: when a worker dies (EOF on its pipe), in-flight
requests fail with a ``worker`` error, the process is respawned into
the same ring slot, and every session mapped to it is rehydrated from
its on-disk journal plus last saved checkpoint before any queued
command is forwarded.  Sessions without a journal (no ``state_root``)
are dropped instead.

Live resize: the ``resize`` admin verb grows or shrinks the pool at
runtime (``migrate`` moves one named session).  Placement is
recomputed on a fresh consistent-hash ring — only ~1/W of the sessions
move — and each moving session takes the journal path with zero
simulation loss: commands queue behind a per-session gate, the old
worker force-persists a checkpoint at the current cycle, the new
worker rehydrates, the route table flips atomically, and the old copy
closes keeping the journal files the new owner adopted.

Idle eviction: with ``idle_timeout`` set, a periodic task sends the
ordinary ``close`` for every session that finished its last command
longer ago than that.

Observability: one client request is one sample of the frontend's
``server.requests`` / ``server.request_seconds`` /
``server.cmd.<name>.seconds`` (end-to-end, including the worker hop);
workers count what they execute as ``worker.*``.  ``stats`` sums the
workers' trace and pass-cache counters (``deep=true`` adds their full
metrics), next to ``server.worker_restarts`` /
``server.sessions_dropped`` and friends.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import tempfile
import threading
import time
from collections import OrderedDict, deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from .. import obs
from ..live.commands import CommandInterpreter
from . import protocol
from .protocol import (
    PROTOCOL_VERSION,
    Event,
    ProtocolError,
    Request,
    Response,
    encode_event,
    encode_response,
    error_response,
    ok_response,
)
from .shard import HashRing, WorkerConfig, worker_main

# Events are routed by the rid of the request that started them; one
# route is remembered per command request, capped per connection so a
# long-lived client cannot grow the table without bound.
MAX_EVENT_ROUTES = 1024

# High-water mark on the per-connection event queue: a client that
# stops reading while verify events stream must not grow the socket
# write buffer without bound.  Past the mark the *oldest* queued events
# are dropped (newest state wins for progress streams) and
# ``server.events_dropped`` counts the loss.
MAX_EVENT_QUEUE = 256

_SPAWN_TIMEOUT = 60.0


class WorkerCommandError(Exception):
    """A worker answered a proxied request with an error payload."""

    def __init__(self, payload: Dict[str, Any]):
        super().__init__(payload.get("message", "worker error"))
        self.payload = payload


class _Client:
    """One asyncio client connection: writer plus its event routes.

    Responses are written directly (the request loop drains after each
    one, so they are flow-controlled by the one-request-at-a-time
    protocol).  Events are *queued* and written by a per-connection
    pump task that awaits ``drain()`` — a client that stops reading
    stalls the pump, the queue fills to :data:`MAX_EVENT_QUEUE`, and
    the oldest events are dropped instead of growing the transport
    buffer without bound.
    """

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.closed = False
        self.route_rids: "OrderedDict[int, None]" = OrderedDict()
        self.events_dropped = 0
        self._events: Deque[str] = deque()
        self._event_signal = asyncio.Event()

    def send_line(self, text: str) -> bool:
        if self.closed:
            return False
        try:
            # One write call per line: atomic w.r.t. other tasks.
            self.writer.write(text.encode("utf-8"))
            return True
        except (ConnectionError, RuntimeError):
            self.closed = True
            return False

    def queue_event(self, text: str) -> bool:
        """Enqueue one event line for the pump, drop-oldest past the
        high-water mark."""
        if self.closed:
            return False
        self._events.append(text)
        while len(self._events) > MAX_EVENT_QUEUE:
            self._events.popleft()
            self.events_dropped += 1
            obs.incr("server.events_dropped")
        self._event_signal.set()
        return True

    async def pump_events(self) -> None:
        """Drain queued events to the socket; one task per connection."""
        while not self.closed:
            await self._event_signal.wait()
            self._event_signal.clear()
            while self._events and not self.closed:
                if not self.send_line(self._events.popleft()):
                    return
                try:
                    await self.writer.drain()
                except (ConnectionError, RuntimeError):
                    self.closed = True
                    return

    def wake_pump(self) -> None:
        """Unblock a pump waiting on the signal (used at close)."""
        self._event_signal.set()


def _watch_of(params: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """What a ``cmd`` that just ran does to a live watch: ``"watch"`` or
    ``"unwatch"`` with ``{session, pipe, signal[, max_events]}`` (the
    parameters a re-arm ``subscribe`` sends), or ``""`` for any other
    Table I line."""
    # The worker just ran the line, so it parses.
    verb, operands = CommandInterpreter.parse(params["line"])
    verb = verb.lower()
    if verb not in ("watch", "unwatch"):
        return "", {}
    watch = {"session": params["session"], "pipe": operands[0],
             "signal": operands[1]}
    if verb == "watch" and params.get("max_events") is not None:
        watch["max_events"] = params["max_events"]
    return verb, watch


class _Session:
    """The frontend's one record of a session it routes."""

    def __init__(self, worker: int):
        self.worker = worker  # the id of the worker that owns it
        # When its last command finished (monotonic seconds), for idle
        # eviction.
        self.last_used = time.monotonic()
        # Forwarded requests not yet answered: a migration waits for
        # them to drain so their effects reach the journal.
        self.inflight = 0
        # Set while the session moves: commands queue on the event
        # until the route flips.
        self.moving: Optional[asyncio.Event] = None
        # Armed live watches, {(client, pipe, signal): watch} (see
        # _watch_of), so a crash-rehydration or migration can re-arm
        # them with ``subscribe`` on whichever worker owns the session
        # *now* and the value_change stream keeps flowing to the same
        # connection.
        self.watches: Dict[Tuple, Dict[str, Any]] = {}


class _WorkerThread(threading.Thread):
    """The ``workers=0`` host: a worker on a thread, where the pool
    expects a process.  A thread cannot be killed; it leaves its loop
    when the frontend's end of its pipe closes."""

    def kill(self) -> None:
        pass


class _WorkerHandle:
    """Parent-side state for one worker slot."""

    def __init__(self, worker_id: int):
        self.id = worker_id
        self.process = None
        self.conn = None
        self.pid: Optional[int] = None
        self.alive = False
        self.restarts = 0
        self.lock = asyncio.Lock()  # serializes (re)starts
        self.send_lock = asyncio.Lock()  # keeps pipe sends ordered


class ShardedFrontend:
    """The LiveSim server: asyncio front door over a worker pool.

    ``workers=0`` hosts the one worker on a thread of this process,
    ``workers=N`` runs N worker processes; everything else is the same
    code.  ``idle_timeout`` (seconds) evicts idle sessions.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        store_root: Optional[str] = None,
        state_root: Optional[str] = None,
        checkpoint_interval: int = 10_000,
        idle_timeout: Optional[float] = None,
        worker_extra: Optional[Dict[str, Any]] = None,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self._host = host
        self._port = port
        self._thread_hosted = workers == 0
        self.num_workers = max(workers, 1)
        self.store_root = store_root
        self.state_root = state_root
        self._checkpoint_interval = checkpoint_interval
        self._idle_timeout = idle_timeout
        self._worker_extra = dict(worker_extra or {})
        self._mp = multiprocessing.get_context("spawn")
        self.ring = HashRing(range(self.num_workers))
        self._workers: Dict[int, _WorkerHandle] = {
            wid: _WorkerHandle(wid) for wid in range(self.num_workers)
        }
        self._sessions: Dict[str, _Session] = {}
        self._resize_lock: Optional[asyncio.Lock] = None
        self._rids = itertools.count(1)
        self._pending: Dict[int, Tuple[asyncio.Future, int]] = {}
        self._routes: Dict[int, _Client] = {}
        self._clients: Set[_Client] = set()
        self.address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._stopping = False
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._boot_error: Optional[BaseException] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Boot workers + listener on a background event-loop thread."""
        if self._thread is not None:
            raise RuntimeError("frontend already started")
        self._thread = threading.Thread(
            target=self._thread_main, name="livesim-frontend", daemon=True
        )
        self._thread.start()
        self._started.wait(_SPAWN_TIMEOUT + 30.0)
        if self._boot_error is not None:
            raise RuntimeError(
                f"sharded frontend failed to start: {self._boot_error}"
            )
        if self.address is None:
            raise RuntimeError("sharded frontend failed to start (timeout)")
        return self.address

    def serve_forever(self) -> None:
        if self._thread is None:
            self.start()
        try:
            while self._thread.is_alive():
                self._thread.join(0.2)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            self.shutdown()

    def shutdown(self, timeout: float = 15.0) -> None:
        """Stop the loop thread; idempotent, callable from any thread."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            def _signal() -> None:
                if self._stop_event is not None:
                    self._stop_event.set()

            try:
                loop.call_soon_threadsafe(_signal)
            except RuntimeError:
                pass
        if self._thread is not None and self._thread is not (
            threading.current_thread()
        ):
            self._thread.join(timeout)

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # boot failures surface in start()
            self._boot_error = exc
        finally:
            self._started.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._resize_lock = asyncio.Lock()
        try:
            await asyncio.gather(*[
                self._start_worker(wid) for wid in self._workers
            ])
            server = await asyncio.start_server(
                self._handle_client,
                self._host,
                self._port,
                limit=protocol.MAX_LINE_BYTES + 2,
            )
        except BaseException:
            await self._stop_all_workers()
            raise
        self.address = server.sockets[0].getsockname()[:2]
        self._started.set()
        reaper = (
            self._loop.create_task(self._reap_idle())
            if self._idle_timeout else None
        )
        try:
            async with server:
                await self._stop_event.wait()
                # Hang up on every client: EOF ends its handler, where
                # the loop's teardown would cancel it mid-read.
                for client in list(self._clients):
                    client.writer.close()
        finally:
            self._stopping = True
            if reaper is not None:
                reaper.cancel()
            await self._stop_all_workers()

    # -- worker lifecycle ----------------------------------------------------

    def _spawn_worker_sync(self, wid: int):
        """Blocking spawn + ready handshake (runs in the executor)."""
        parent_conn, child_conn = self._mp.Pipe()
        config = WorkerConfig(
            worker_id=wid,
            store_root=self.store_root,
            state_root=self.state_root,
            checkpoint_interval=self._checkpoint_interval,
            extra=dict(self._worker_extra),
        )
        host = _WorkerThread if self._thread_hosted else self._mp.Process
        process = host(
            target=worker_main,
            args=(child_conn, config),
            name=f"livesim-worker-{wid}",
            daemon=True,
        )
        process.start()
        if not self._thread_hosted:
            child_conn.close()  # the child process holds its own copy
        try:
            if not parent_conn.poll(_SPAWN_TIMEOUT):
                raise RuntimeError(f"worker {wid} never became ready")
            ready = parent_conn.recv()
            if ready.get("kind") != "ready":
                raise RuntimeError(
                    f"worker {wid} sent {ready!r} instead of ready"
                )
        except (EOFError, OSError) as exc:
            process.kill()
            raise RuntimeError(f"worker {wid} died during boot") from exc
        except BaseException:
            process.kill()
            raise
        return process, parent_conn, ready.get("pid")

    async def _start_worker(self, wid: int) -> None:
        worker = self._workers[wid]
        process, conn, pid = await self._loop.run_in_executor(
            None, self._spawn_worker_sync, wid
        )
        worker.process = process
        worker.conn = conn
        worker.pid = pid
        worker.alive = True
        self._loop.add_reader(
            conn.fileno(), self._on_worker_readable, wid
        )

    def _on_worker_readable(self, wid: int) -> None:
        worker = self._workers[wid]
        conn = worker.conn
        try:
            while conn.poll():
                self._on_worker_msg(wid, conn.recv())
        except (EOFError, OSError):
            self._on_worker_dead(wid)

    def _on_worker_msg(self, wid: int, msg: Dict[str, Any]) -> None:
        kind = msg.get("kind")
        if kind == "response":
            entry = self._pending.pop(msg.get("rid"), None)
            if entry is not None and not entry[0].done():
                entry[0].set_result(msg)
        elif kind == "event":
            client = self._routes.get(msg.get("rid"))
            if client is not None and not client.closed:
                client.queue_event(encode_event(Event(
                    name=msg.get("name", ""),
                    session=msg.get("session", ""),
                    data=msg.get("data") or {},
                )))

    def _on_worker_dead(self, wid: int) -> None:
        worker = self._workers.get(wid)
        if worker is None or not worker.alive:
            # Unknown wid: a worker retired by resize whose pipe EOF
            # raced the retirement; nothing to do.
            return
        self._detach(worker)
        obs.incr("server.worker_deaths")
        # The command may or may not have executed; the client decides.
        self._fail_pending(wid, f"worker {wid} died mid-request; its "
                           "sessions recover from their last saved checkpoint")
        if not self._stopping:
            self._loop.create_task(self._restart_worker(wid))

    def _fail_pending(self, wid: int, message: str) -> None:
        """Answer what is in flight on ``wid`` with a ``worker`` error."""
        for rid, (fut, pending_wid) in list(self._pending.items()):
            if pending_wid == wid:
                del self._pending[rid]
                if not fut.done():
                    fut.set_result({
                        "kind": "response", "rid": rid, "ok": False,
                        "error": {"type": "worker", "message": message},
                    })

    def _detach(self, worker: _WorkerHandle) -> None:
        """Stop listening to a (started) worker."""
        worker.alive = False
        try:
            self._loop.remove_reader(worker.conn.fileno())
        except (OSError, ValueError):
            pass  # its pipe is closed already

    async def _reap(self, worker: _WorkerHandle) -> None:
        """The one worker teardown: detach, ask it to stop, join (kill
        what does not leave in time), close the pipe.  A dead worker
        goes through the same steps; one that never started has none."""
        conn, process = worker.conn, worker.process
        if conn is None:
            return
        self._detach(worker)
        try:
            conn.send({"kind": "control", "op": "shutdown"})
        except (OSError, ValueError):
            pass
        await self._loop.run_in_executor(None, process.join, 5.0)
        if process.is_alive():
            process.kill()
            await self._loop.run_in_executor(None, process.join, 5.0)
        conn.close()

    async def _restart_worker(self, wid: int) -> None:
        """Respawn a dead worker and rehydrate its sessions."""
        worker = self._workers.get(wid)
        if worker is None:  # retired by a resize while dead
            return
        async with worker.lock:
            if worker.alive or self._stopping:
                return
            await self._reap(worker)
            await self._start_worker(wid)
            worker.restarts += 1
            obs.incr("server.worker_restarts")
            owned = [
                (name, record) for name, record in self._sessions.items()
                if record.worker == wid
            ]
            for name, record in owned:
                try:
                    await self._forward_to(
                        worker, None, "rehydrate", {"session": name}
                    )
                except WorkerCommandError:
                    # No journal (or replay failed): the session is
                    # gone; stop routing to it.
                    self._forget_session(name)
                    obs.incr("server.sessions_dropped")
                    continue
                await self._rearm_watches(record, worker)

    async def _ensure_worker(self, wid: int) -> _WorkerHandle:
        worker = self._workers.get(wid)
        if worker is None:
            raise WorkerCommandError({
                "type": "worker",
                "message": f"worker {wid} was retired by a resize",
            })
        if worker.alive:
            return worker
        async with worker.lock:
            pass  # wait for any in-progress restart
        if not worker.alive:
            await self._restart_worker(wid)
        if wid not in self._workers or not self._workers[wid].alive:
            raise WorkerCommandError({
                "type": "worker",
                "message": f"worker {wid} could not be restarted",
            })
        return self._workers[wid]

    async def _stop_all_workers(self) -> None:
        self._stopping = True
        await asyncio.gather(*map(self._reap, self._workers.values()))

    # -- request forwarding --------------------------------------------------

    async def _forward(
        self,
        client: Optional[_Client],
        wid: int,
        cmd: str,
        params: Dict[str, Any],
    ) -> Any:
        worker = await self._ensure_worker(wid)
        try:
            return await self._forward_to(worker, client, cmd, params)
        except WorkerCommandError as exc:
            # A crash between send and response loses the command (the
            # worker's post-checkpoint state was lost anyway).  Wait
            # for restart + rehydration, then replay it once against
            # the recovered session; a second failure is the client's
            # problem — retrying forever would hide a poison command
            # that kills every worker it touches.
            if exc.payload.get("type") != "worker" or self._stopping:
                raise
            obs.incr("server.request_failovers")
            worker = await self._ensure_worker(wid)
            return await self._forward_to(worker, client, cmd, params)

    async def _forward_to(
        self,
        worker: _WorkerHandle,
        client: Optional[_Client],
        cmd: str,
        params: Dict[str, Any],
    ) -> Any:
        rid = next(self._rids)
        fut = self._loop.create_future()
        self._pending[rid] = (fut, worker.id)
        if client is not None:
            self._register_route(rid, client)
        message = {
            "kind": "request", "rid": rid, "cmd": cmd, "params": params,
        }
        try:
            async with worker.send_lock:
                await self._loop.run_in_executor(
                    None, worker.conn.send, message
                )
        except (OSError, ValueError) as exc:
            self._pending.pop(rid, None)
            self._on_worker_dead(worker.id)
            raise WorkerCommandError({
                "type": "worker",
                "message": f"worker {worker.id} unreachable: {exc}",
            }) from exc
        msg = await fut
        if msg.get("ok"):
            return msg.get("value")
        raise WorkerCommandError(
            msg.get("error") or {"type": "worker", "message": "unknown"}
        )

    def _register_route(self, rid: int, client: _Client) -> None:
        client.route_rids[rid] = None
        self._routes[rid] = client
        while len(client.route_rids) > MAX_EVENT_ROUTES:
            old, _ = client.route_rids.popitem(last=False)
            self._routes.pop(old, None)

    def _drop_client_routes(self, client: _Client) -> None:
        for rid in client.route_rids:
            self._routes.pop(rid, None)
        client.route_rids.clear()

    # -- client handling -----------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        client = _Client(writer)
        self._clients.add(client)
        obs.incr("server.connections_accepted")
        pump = self._loop.create_task(client.pump_events())
        try:
            while not self._stopping:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    client.send_line(encode_response(error_response(
                        -1, "protocol",
                        f"line exceeds {protocol.MAX_LINE_BYTES} bytes",
                    )))
                    return
                if not line:
                    return
                if not line.strip():
                    continue
                try:
                    message = protocol.decode(line)
                except ProtocolError as exc:
                    client.send_line(encode_response(
                        error_response(-1, "protocol", str(exc))
                    ))
                    continue
                if not isinstance(message, Request):
                    client.send_line(encode_response(error_response(
                        -1, "protocol", "only requests flow client->server"
                    )))
                    continue
                response, stop_after = await self._handle_request(
                    client, message
                )
                client.send_line(encode_response(response))
                try:
                    await writer.drain()
                except ConnectionError:
                    return
                if stop_after:
                    self._stop_event.set()
                    return
        finally:
            client.closed = True
            self._clients.discard(client)
            client.wake_pump()
            pump.cancel()
            self._drop_client_routes(client)
            self._drop_client_watches(client)
            try:
                writer.close()
            except RuntimeError:
                pass

    async def _handle_request(
        self, client: _Client, request: Request
    ) -> Tuple[Response, bool]:
        started = time.perf_counter()
        obs.incr("server.requests")
        try:
            response = ok_response(
                request.id, await self._dispatch(client, request)
            )
        except WorkerCommandError as exc:
            response = Response(
                id=request.id, ok=False, error=exc.payload
            )
        except ProtocolError as exc:
            response = error_response(request.id, "protocol", str(exc))
        except Exception as exc:  # a bug must not kill the connection
            response = error_response(
                request.id, "internal", f"{type(exc).__name__}: {exc}"
            )
        if not response.ok:
            obs.incr("server.request_errors")
        elapsed = time.perf_counter() - started
        obs.histogram("server.request_seconds", elapsed)
        obs.histogram(f"server.cmd.{request.cmd}.seconds", elapsed)
        return response, response.ok and request.cmd == "shutdown"

    async def _dispatch(self, client: _Client, request: Request) -> Any:
        verb = protocol.check_request(request)
        if verb.routed:
            return await self._route(client, request.cmd, request.params)
        handler = getattr(self, f"_cmd_{request.cmd}")
        return await handler(client, request.params)

    async def _route(
        self, client: Optional[_Client], cmd: str, params: Dict[str, Any]
    ) -> Any:
        """Forward one session command to the worker that owns it."""
        name = params["session"]
        # Commands aimed at a session mid-migration queue until the
        # route flips, then run on the new owner — callers see
        # latency, never a spurious unknown-session error.
        record = self._sessions.get(name)
        while record is not None and record.moving is not None:
            await record.moving.wait()
            record = self._sessions.get(name)
        if record is None:
            raise WorkerCommandError({
                "type": "unknown-session",
                "message": f"unknown session {name!r}",
            })
        record.inflight += 1
        try:
            value = await self._forward(client, record.worker, cmd, params)
        finally:
            record.inflight -= 1
            record.last_used = time.monotonic()
        if cmd == "close":
            self._forget_session(name)
        elif cmd == "cmd":
            verb, watch = _watch_of(params)
            signal = (watch.get("pipe"), watch.get("signal"))
            if verb == "watch":
                record.watches[(client, *signal)] = watch
            elif verb == "unwatch":
                # It closes every subscription on that signal in the
                # worker's buffer, whichever client armed it.
                for key in [k for k in record.watches if k[1:] == signal]:
                    del record.watches[key]
        return value

    def _forget_session(self, name: str) -> None:
        """Stop routing to a session that closed or was lost."""
        self._sessions.pop(name, None)
        obs.gauge("server.sessions", len(self._sessions))

    async def _reap_idle(self) -> None:
        """Evict sessions idle past ``idle_timeout`` with the ordinary
        ``close``.  A session with a command in flight or mid-migration
        is not idle, whatever its timestamp says."""
        while True:
            await asyncio.sleep(min(self._idle_timeout / 2.0, 1.0))
            for name in list(self._sessions):
                # Re-read: the awaits below let other tasks run.
                record = self._sessions.get(name)
                if (record is None or record.inflight
                        or record.moving is not None
                        or time.monotonic() - record.last_used
                        <= self._idle_timeout):
                    continue
                try:
                    await self._route(None, "close", {"session": name})
                    obs.incr("server.sessions_evicted")
                except WorkerCommandError:
                    pass  # already gone, or its worker is: nothing to do

    # -- live-watch bookkeeping ----------------------------------------------

    def _drop_client_watches(self, client: _Client) -> None:
        for record in self._sessions.values():
            for key in [k for k in record.watches if k[0] is client]:
                del record.watches[key]

    async def _rearm_watches(
        self, record: _Session, worker: _WorkerHandle
    ) -> None:
        """Re-arm every recorded watch of a session on the worker that
        owns it now with ``subscribe``: rehydration replayed the
        journalled ``watch`` lines (so the probes exist), but the
        value_change pumps and their rid routes died with the old
        process.  Never the ``watch`` line itself, which would journal
        it again on every move.  Takes the handle, not the id — callers
        hold ``worker.lock`` or have just ensured the worker, and
        ``_ensure_worker`` would deadlock on that same lock."""
        watches = record.watches
        for key, watch in list(watches.items()):
            client = key[0]
            if client.closed:
                watches.pop(key, None)
                continue
            try:
                await self._forward_to(worker, client, "subscribe", watch)
            except WorkerCommandError:
                obs.incr("server.watch_rearm_failures")
                watches.pop(key, None)

    # -- verbs the frontend answers itself: _cmd_<verb>(client, params) -------

    async def _cmd_ping(self, client: _Client, params: Dict) -> Dict:
        return {
            "pong": True,
            "protocol": PROTOCOL_VERSION,
            "sharded": not self._thread_hosted,
            "workers": self.num_workers,
        }

    async def _cmd_shutdown(self, client: _Client, params: Dict) -> Dict:
        return {"stopping": True, "sessions": len(self._sessions)}

    async def _cmd_open(
        self, client: _Client, params: Dict[str, Any]
    ) -> Any:
        name = params["session"]
        if name in self._sessions:
            raise WorkerCommandError({
                "type": "duplicate-session",
                "message": f"session {name!r} already exists",
            })
        wid = self.ring.lookup(name)
        value = await self._forward(client, wid, "open", params)
        self._sessions[name] = _Session(wid)
        obs.gauge("server.sessions", len(self._sessions))
        return value

    async def _cmd_sessions(
        self, client: _Client, params: Dict
    ) -> List[Dict[str, Any]]:
        live = [w for w in self._workers.values() if w.alive]
        results = await asyncio.gather(*[
            self._forward_to(worker, None, "describe", {})
            for worker in live
        ], return_exceptions=True)
        entries: List[Dict[str, Any]] = []
        for result in results:
            if isinstance(result, BaseException):
                continue
            entries.extend(result)
        entries.sort(key=lambda entry: entry.get("session", ""))
        return entries

    async def _cmd_stats(
        self, client: _Client, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        workers = []
        for wid in sorted(self._workers):
            worker = self._workers[wid]
            workers.append({
                "id": wid,
                "pid": worker.pid,
                "alive": worker.alive,
                "restarts": worker.restarts,
                "sessions": sum(
                    1 for record in self._sessions.values()
                    if record.worker == wid
                ),
            })
        metrics = obs.get_metrics().as_dict()
        stats: Dict[str, Any] = {
            "protocol": PROTOCOL_VERSION,
            "sharded": not self._thread_hosted,
            "sessions": len(self._sessions),
            "workers": workers,
            "metrics": metrics,
            # Backpressure is a first-class stat, not something buried
            # in the metrics dump: dropped *event lines* on slow client
            # connections (the frontend owns the sockets), so clients
            # can tell "I am too slow" from "the server is fine".
            "events_dropped": metrics.get("counters", {}).get(
                "server.events_dropped", 0
            ),
        }
        if self.store_root is not None:
            from .store import ArtifactStore

            store = ArtifactStore(self.store_root)
            stats["store"] = {
                "root": store.root,
                "artifacts": len(store),
                "bytes": store.total_bytes(),
            }
        live = [w for w in self._workers.values() if w.alive]
        results = await asyncio.gather(*[
            self._forward_to(worker, None, "stats", {})
            for worker in live
        ], return_exceptions=True)
        worker_stats = [
            result for result in results
            if not isinstance(result, BaseException)
        ]
        # Trace-capture and pass-cache counters live where the sessions
        # run; sum them over the pool so clients see one set of totals.
        # Thread-hosted workers share one registry: count each pid once.
        totals: Dict[str, int] = {}
        for entry in {e["pid"]: e for e in worker_stats}.values():
            for name, value in entry["metrics"]["counters"].items():
                if name.startswith(("trace.", "passes.")):
                    totals[name] = totals.get(name, 0) + value
        stats["trace"] = {
            kind: totals.get(f"trace.{kind}", 0)
            for kind in ("cycles_dropped", "events_dropped")
        }
        # One {hits, misses} entry per repro.passes pass that ran.
        passes: Dict[str, Dict[str, int]] = {}
        for name, value in totals.items():
            parts = name.split(".")
            if len(parts) == 3 and parts[2] in ("cache_hits", "cache_misses"):
                entry = passes.setdefault(parts[1], {"hits": 0, "misses": 0})
                entry[parts[2][len("cache_"):]] = value
        stats["passes"] = passes
        # Sessions live on exactly one worker: their checkpoints add up.
        checkpoints = {"count": 0, "bytes": 0, "resident_bytes": 0}
        for entry in worker_stats:
            for name, value in entry["checkpoints"].items():
                checkpoints[name] += value
        stats["checkpoints"] = checkpoints
        if params.get("deep"):
            stats["worker_stats"] = worker_stats
        return stats

    # -- live resize / session migration -------------------------------------

    def _require_state_dir(self, verb: str) -> None:
        if self.state_root is None:
            raise WorkerCommandError({
                "type": verb,
                "message": f"{verb} moves sessions via their journals; "
                           "start the server with --state-dir",
            })

    async def _cmd_resize(
        self, client: _Client, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Grow or shrink the worker pool at runtime.

        Target worker ids are always ``0..N-1``: a grow spawns the
        missing high ids, a shrink retires them.  Ring placement is
        recomputed and every session whose owner changed migrates via
        the journal path (persist -> rehydrate -> flip -> close);
        commands aimed at a moving session queue behind its gate.
        """
        target = params["workers"]
        started = time.perf_counter()
        async with self._resize_lock:
            previous = len(self._workers)
            if target == previous:
                return {
                    "workers": target, "previous": previous,
                    "migrated": [], "spawned": [], "retired": [],
                }
            new_ring = HashRing(range(target))
            spawned: List[int] = []
            retired: List[int] = []
            if target > previous:
                spawned = [
                    wid for wid in range(target)
                    if wid not in self._workers
                ]
                moves = {
                    name: new_ring.lookup(name)
                    for name, record in self._sessions.items()
                    if new_ring.lookup(name) != record.worker
                }
                if moves:
                    self._require_state_dir("resize")
                for wid in spawned:
                    self._workers[wid] = _WorkerHandle(wid)
                try:
                    await asyncio.gather(*[
                        self._start_worker(wid) for wid in spawned
                    ])
                except BaseException:
                    await asyncio.gather(*[
                        self._reap(self._workers.pop(wid)) for wid in spawned
                    ])
                    raise
                self.ring = new_ring
                self.num_workers = target
                migrated = await self._migrate_all(moves, forced=False)
            else:
                retired = [
                    wid for wid in sorted(self._workers)
                    if wid >= target
                ]
                moves = {
                    name: new_ring.lookup(name)
                    for name, record in self._sessions.items()
                    if record.worker in retired
                }
                if moves:
                    self._require_state_dir("resize")
                # Flip the ring first so concurrent opens never land
                # on a worker that is about to retire.
                self.ring = new_ring
                self.num_workers = target
                migrated = await self._migrate_all(moves, forced=True)
                await self._retire_workers(retired)
            obs.incr("server.resizes")
            obs.gauge("server.workers", len(self._workers))
            return {
                "workers": target,
                "previous": previous,
                "migrated": sorted(migrated),
                "spawned": spawned,
                "retired": retired,
                "seconds": time.perf_counter() - started,
            }

    async def _cmd_migrate(
        self, client: _Client, params: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Move one named session to an explicit worker (the hook for
        load balancing off per-worker obs histograms)."""
        name, target = params["session"], params["worker"]
        self._require_state_dir("migrate")
        async with self._resize_lock:
            if target not in self._workers:
                raise WorkerCommandError({
                    "type": "migrate",
                    "message": f"no worker {target}; pool is "
                               f"{sorted(self._workers)}",
                })
            record = self._sessions.get(name)
            if record is None:
                raise WorkerCommandError({
                    "type": "unknown-session",
                    "message": f"unknown session {name!r}",
                })
            src = record.worker
            if src == target:
                return {"session": name, "from": src, "worker": target,
                        "migrated": False}
            await self._migrate_session(name, target)
        return {"session": name, "from": src, "worker": target,
                "migrated": True}

    async def _migrate_all(
        self, moves: Dict[str, int], forced: bool
    ) -> List[str]:
        """Migrate every session in ``moves``; on failure, a ``forced``
        move (off a retiring worker) drops the session, an elective one
        leaves it where it is."""
        migrated: List[str] = []
        for name, dest in moves.items():
            try:
                await self._migrate_session(name, dest)
                migrated.append(name)
            except WorkerCommandError:
                obs.incr("server.migrations_failed")
                if forced:
                    # Its worker is retiring: the session cannot stay.
                    self._forget_session(name)
                    obs.incr("server.sessions_dropped")
        return migrated

    async def _migrate_session(self, name: str, dest: int) -> None:
        """Move one session: drain in-flight commands, force-persist
        its recovery state on the old worker, rehydrate on the new,
        flip the route table, then close the old copy (keeping the
        journal files, which the new worker has adopted)."""
        record = self._sessions.get(name)
        if record is None or record.worker == dest:
            return
        gate = record.moving = asyncio.Event()
        try:
            # In-flight commands must finish on the old worker so
            # their structural effects are in the journal we snapshot.
            while record.inflight:
                await asyncio.sleep(0.005)
            src_worker = await self._ensure_worker(record.worker)
            await self._forward_to(
                src_worker, None, "persist", {"session": name}
            )
            dest_worker = await self._ensure_worker(dest)
            await self._forward_to(
                dest_worker, None, "rehydrate", {"session": name}
            )
            record.worker = dest  # atomic route flip
            await self._rearm_watches(record, dest_worker)
            try:
                await self._forward_to(
                    src_worker, None, "close",
                    {"session": name, "keep_state": True},
                )
            except WorkerCommandError:
                # The old worker died after the state was safely
                # copied; its restart path will find the session
                # re-routed and leave it alone.
                pass
            obs.incr("server.sessions_migrated")
        finally:
            record.moving = None
            gate.set()

    async def _retire_workers(self, wids: List[int]) -> None:
        """Shut down and remove the given (already-drained) workers."""
        for wid in wids:
            worker = self._workers.pop(wid)
            # A drained worker has no session command in flight; what
            # is (a ``stats`` fan-out) gets an answer, not a hang.
            self._fail_pending(wid, f"worker {wid} retired by resize")
            await self._reap(worker)
            obs.incr("server.workers_retired")


def default_state_root(store_root: Optional[str]) -> str:
    """Pick a session-journal directory when the caller gave none."""
    if store_root:
        return store_root.rstrip("/\\") + ".state"
    return tempfile.mkdtemp(prefix="livesim-state-")


__all__ = [
    "MAX_EVENT_QUEUE",
    "MAX_EVENT_ROUTES",
    "ShardedFrontend",
    "WorkerCommandError",
    "default_state_root",
]
