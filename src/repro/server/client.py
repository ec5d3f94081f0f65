"""Blocking client for the LiveSim server, plus a line-oriented REPL.

Library use::

    from repro.server.client import LiveSimClient

    with LiveSimClient("127.0.0.1", 7391) as client:
        client.open_session("alice", MY_SOURCE)
        client.command("alice", "instPipe p0, stage1")
        client.command("alice", "watch p0, c0")
        client.command("alice", "run tb0, p0, 10000")
        print(client.command("alice", "trace p0, c0, 9990, 10000"))

Every Table I line travels as one ``cmd`` request; the other methods
are the server's own verbs (``open``, ``reload``, ``stats``, ...).
One request is in flight at a time per client (the simple model a
scripted session wants); server events that arrive while waiting for a
response (``value_change`` from a ``watch`` line, ``verify_status``,
...) are buffered on :attr:`LiveSimClient.events` and can also be
consumed with :meth:`wait_event`.

REPL use (``python -m repro.server.client``)::

    python -m repro.server.client --port 7391 --session alice \
        --design design.v
    alice> instPipe p0, stage1
    alice> run tb0, p0, 10000
"""

from __future__ import annotations

import argparse
import itertools
import socket
import sys
import time
from typing import Any, Callable, List, Optional

from . import protocol
from .protocol import Event, ProtocolError, Request, Response
from .service import DEFAULT_PORT


class ServerError(Exception):
    """The server answered a request with an error response."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"[{kind}] {message}")
        self.kind = kind
        self.message = message


class ReadTimeout(ConnectionError):
    """No bytes from the server within ``read_timeout`` seconds.

    Distinct from :class:`TimeoutError` so a hung worker surfaces as a
    clear, catchable client-side condition instead of blocking forever
    (or masquerading as a protocol failure).  A timeout *between*
    frames is recoverable — responses carry ids, so a late reply is
    simply skipped.  A timeout *mid-frame* (some bytes of a line
    arrived, then silence) is not: the buffered partial line would make
    the next read decode garbage far from the cause, so the client
    marks itself :attr:`~LiveSimClient.broken` and every later request
    demands a reconnect.
    """


class LiveSimClient:
    """One connection to a LiveSim server.

    ``timeout`` bounds the TCP connect; ``read_timeout`` bounds every
    wait for a response or event line.  The read timeout defaults to
    **off** (a REPL happily blocks on a long ``run``); scripted
    harnesses — smoke tests, load benches — should set it so a hung or
    killed worker turns into a :class:`ReadTimeout` instead of a stuck
    process.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: Optional[float] = 30.0,
        on_event: Optional[Callable[[Event], None]] = None,
        read_timeout: Optional[float] = None,
    ):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.settimeout(read_timeout)
        self._rbuf = bytearray()
        self._timeout = read_timeout
        self._ids = itertools.count(1)
        self._on_event = on_event
        self._broken = False
        self.events: List[Event] = []

    @property
    def broken(self) -> bool:
        """True once the read stream is desynchronized (a timeout hit
        mid-frame); the connection must be replaced, not reused."""
        return self._broken

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "LiveSimClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- core request/response ----------------------------------------------

    def request(self, cmd: str, **params: Any) -> Any:
        """Send one request; block until its response arrives.

        Events interleaved with the response are buffered, not lost.
        Raises :class:`ServerError` on an error response and
        :class:`ConnectionError` if the server goes away mid-request.
        """
        if self._broken:
            raise ConnectionError(
                "connection is desynchronized (timeout hit mid-frame); "
                "open a fresh LiveSimClient"
            )
        request_id = next(self._ids)
        line = protocol.encode_request(
            Request(id=request_id, cmd=cmd, params=params)
        )
        self._sock.sendall(line.encode("utf-8"))
        while True:
            message = self._read_message()
            if isinstance(message, Event):
                self._record_event(message)
                continue
            if isinstance(message, Response):
                if message.id != request_id:
                    continue  # stale reply from an aborted exchange
                if message.ok:
                    return message.value
                error = message.error or {}
                raise ServerError(
                    error.get("type", "internal"),
                    error.get("message", "unknown error"),
                )

    def _read_message(self):
        line = self._read_line()
        try:
            return protocol.decode(line)
        except ProtocolError as exc:
            self._broken = True
            raise ConnectionError(f"bad frame from server: {exc}") from exc

    def _read_line(self) -> bytes:
        """Read one ``\\n``-terminated frame with explicit buffering.

        Explicit (rather than ``makefile``) so a timeout can tell
        whether it struck between frames (buffer empty — recoverable)
        or mid-frame (partial line buffered — the stream is
        desynchronized and the client is marked broken).
        """
        while True:
            newline = self._rbuf.find(b"\n")
            if newline >= 0:
                line = bytes(self._rbuf[:newline + 1])
                del self._rbuf[:newline + 1]
                return line
            if len(self._rbuf) > protocol.MAX_LINE_BYTES:
                self._broken = True
                raise ConnectionError(
                    "frame from server exceeds "
                    f"{protocol.MAX_LINE_BYTES} bytes"
                )
            try:
                chunk = self._sock.recv(65536)
            except socket.timeout:
                if self._rbuf:
                    self._broken = True
                    raise ReadTimeout(
                        f"server stalled mid-frame ({len(self._rbuf)} "
                        "bytes of an unterminated line buffered); the "
                        "stream is desynchronized — reconnect"
                    ) from None
                raise ReadTimeout(
                    f"no data from server within {self._timeout}s "
                    "(hung worker or stalled command?)"
                ) from None
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._rbuf += chunk

    def _record_event(self, event: Event) -> None:
        self.events.append(event)
        if self._on_event is not None:
            self._on_event(event)

    # -- events --------------------------------------------------------------

    def wait_event(
        self,
        name: str,
        predicate: Optional[Callable[[Event], bool]] = None,
        timeout: float = 10.0,
    ) -> Event:
        """Return (and consume) the first matching buffered event, or
        read from the socket until one arrives.  Raises TimeoutError."""

        def matches(event: Event) -> bool:
            return event.name == name and (
                predicate is None or predicate(event)
            )

        for i, event in enumerate(self.events):
            if matches(event):
                return self.events.pop(i)
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"no {name!r} event within {timeout}s")
            self._sock.settimeout(remaining)
            try:
                message = self._read_message()
            except ReadTimeout:
                raise TimeoutError(
                    f"no {name!r} event within {timeout}s"
                ) from None
            finally:
                self._sock.settimeout(self._timeout)
            if isinstance(message, Event):
                if matches(message):
                    return message
                self._record_event(message)

    # -- conveniences --------------------------------------------------------

    def ping(self) -> Any:
        return self.request("ping")

    def open_session(self, session: str, source: str,
                     reset_cycles: int = 2) -> Any:
        return self.request(
            "open", session=session, source=source,
            reset_cycles=reset_cycles,
        )

    def command(self, session: str, line: str,
                max_events: Optional[int] = None) -> Any:
        """Run one Table I command line.  A ``watch`` line also streams
        batched ``value_change`` events back on this connection
        (buffered on :attr:`events` / :meth:`wait_event`), at most
        ``max_events`` queued on the server before the oldest drop."""
        extra = {} if max_events is None else {"max_events": max_events}
        return self.request("cmd", session=session, line=line, **extra)

    def reload(self, session: str, source: str,
               override: bool = False) -> Any:
        return self.request(
            "reload", session=session, source=source, override=override,
        )

    def sessions(self) -> Any:
        return self.request("sessions")

    def stats(self) -> Any:
        return self.request("stats")

    def resize(self, workers: int) -> Any:
        """Resize the server's worker pool (admin verb)."""
        return self.request("resize", workers=workers)

    def migrate(self, session: str, worker: int) -> Any:
        """Move one session to an explicit worker (admin verb)."""
        return self.request("migrate", session=session, worker=worker)

    def close_session(self, session: str) -> Any:
        return self.request("close", session=session)

    def shutdown_server(self) -> Any:
        return self.request("shutdown")


# -- REPL --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server.client",
        description="LiveSim server client REPL (Table I command lines "
                    "over a repro.server/v1 socket)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--session", default="repl",
                        help="server-side session name (default: repl)")
    parser.add_argument("--design", metavar="PATH",
                        help="LHDL source to open the session with "
                             "(omit to attach to an existing session)")
    parser.add_argument("--reset-cycles", type=int, default=2)
    parser.add_argument("--script", metavar="PATH",
                        help="command script to run instead of the REPL")
    return parser


def _print_event(event: Event, out) -> None:
    print(f"  [event {event.name} @{event.session}] {event.data}",
          file=out)


def run_lines(client: LiveSimClient, session: str, lines, out) -> None:
    """Drive one command per line; REPL verbs: quit, stats, sessions,
    resize N, migrate session, worker-id.  Every other line is a
    Table I command sent as ``cmd`` (a ``watch`` line streams, and the
    stream survives a crash or migration)."""
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in ("quit", "exit"):
            return
        try:
            if line == "stats":
                value = client.stats()
            elif line == "sessions":
                value = client.sessions()
            elif line.startswith("resize "):
                value = client.resize(int(line.split(None, 1)[1]))
            elif line.startswith("migrate "):
                operands = [
                    op.strip()
                    for op in line.split(None, 1)[1].split(",")
                ]
                if len(operands) != 2:
                    raise ValueError(
                        "usage: migrate session, worker-id"
                    )
                value = client.migrate(operands[0], int(operands[1]))
            else:
                value = client.command(session, line)
            if value is not None:
                print(f"  {value}", file=out)
        except (ServerError, ValueError) as exc:
            print(f"error: {exc}", file=out)
        while client.events:
            _print_event(client.events.pop(0), out)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    out = sys.stdout
    try:
        client = LiveSimClient(args.host, args.port)
    except OSError as exc:
        print(f"error: cannot connect to {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    with client:
        if args.design:
            try:
                with open(args.design) as fh:
                    source = fh.read()
                info = client.open_session(
                    args.session, source, reset_cycles=args.reset_cycles
                )
            except (OSError, ServerError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            print(f"opened session {args.session!r}: "
                  f"modules {info['modules']}, tb {info['tb']}", file=out)
        if args.script:
            try:
                with open(args.script) as fh:
                    run_lines(client, args.session, fh, out)
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            return 0
        print(f"connected to {args.host}:{args.port} "
              f"(session {args.session!r}); Table I commands, "
              "plus stats/sessions/quit", file=out)
        while True:  # pragma: no cover - interactive
            try:
                line = input(f"{args.session}> ")
            except EOFError:
                return 0
            run_lines(client, args.session, [line], out)
            if line.strip() in ("quit", "exit"):
                return 0


if __name__ == "__main__":
    sys.exit(main())
