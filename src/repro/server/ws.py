"""WebSocket gateway for the LiveSim server (``python -m repro.server.ws``).

A thin, stdlib-only bridge so browsers can speak ``repro.server/v1``:
each WebSocket connection is paired with one TCP connection to the
upstream LiveSim server (however its workers are hosted — the gateway
does not care), text frames are forwarded as protocol lines, and
upstream lines (responses *and* streamed events such as
``value_change``) come back as text frames.  The gateway adds no
protocol of its own: what a ``LiveSimClient`` would write on the
socket, a browser writes in a frame.

Plain HTTP ``GET /`` serves the bundled single-file page
(``static/livesim.html``) that renders live waveforms from ``watch``
streams and the obs metrics from ``stats`` — the paper's "insert
printfs and replay" loop in a browser tab.

The handshake (RFC 6455 §4) and framing (§5) are implemented here
directly — SHA-1 + GUID accept key, client-masked frames, ping/pong,
close — because the gateway must run with nothing but the standard
library.  The pure helpers (:func:`accept_key`, :func:`encode_frame`,
:class:`FrameParser`) are module-level for unit testing.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import os
import socket
import struct
import sys
import threading
from typing import Dict, Iterator, List, Optional, Tuple

from .service import DEFAULT_PORT

WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
DEFAULT_WS_PORT = 7392

OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

# A browser should never need more than one protocol line per frame;
# bound frame payloads like the wire protocol bounds lines.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_STATIC_DIR = os.path.join(os.path.dirname(__file__), "static")


class WsProtocolError(ValueError):
    """Malformed WebSocket handshake or frame."""


# -- handshake ---------------------------------------------------------------


def accept_key(key: str) -> str:
    """``Sec-WebSocket-Accept`` for a client's ``Sec-WebSocket-Key``."""
    digest = hashlib.sha1((key + WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def parse_http_request(raw: bytes) -> Tuple[str, str, Dict[str, str]]:
    """``(method, path, lower-cased headers)`` from one request head."""
    try:
        head = raw.decode("latin-1")
    except UnicodeDecodeError as exc:
        raise WsProtocolError(f"undecodable request head: {exc}") from exc
    lines = head.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) < 3:
        raise WsProtocolError(f"bad request line {lines[0]!r}")
    method, path = parts[0], parts[1]
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line or ":" not in line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return method, path, headers


def is_upgrade(headers: Dict[str, str]) -> bool:
    return (
        "websocket" in headers.get("upgrade", "").lower()
        and "upgrade" in headers.get("connection", "").lower()
    )


def handshake_response(headers: Dict[str, str]) -> bytes:
    key = headers.get("sec-websocket-key")
    if not key:
        raise WsProtocolError("upgrade request lacks Sec-WebSocket-Key")
    return (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {accept_key(key)}\r\n"
        "\r\n"
    ).encode("ascii")


# -- framing -----------------------------------------------------------------


def encode_frame(
    payload: bytes, opcode: int = OP_TEXT,
    mask: Optional[bytes] = None, fin: bool = True,
) -> bytes:
    """One frame.  Servers send unmasked (``mask=None``); a test
    client passes a 4-byte mask, as RFC 6455 requires of clients."""
    header = bytearray()
    header.append((0x80 if fin else 0x00) | (opcode & 0x0F))
    mask_bit = 0x80 if mask is not None else 0x00
    length = len(payload)
    if length < 126:
        header.append(mask_bit | length)
    elif length < 1 << 16:
        header.append(mask_bit | 126)
        header += struct.pack(">H", length)
    else:
        header.append(mask_bit | 127)
        header += struct.pack(">Q", length)
    if mask is not None:
        if len(mask) != 4:
            raise WsProtocolError("mask must be 4 bytes")
        header += mask
        payload = bytes(
            b ^ mask[i % 4] for i, b in enumerate(payload)
        )
    return bytes(header) + payload


class FrameParser:
    """Incremental frame decoder: feed bytes, iterate messages.

    Continuation frames are reassembled; control frames (ping/pong/
    close) are yielded as-is (they may interleave with a fragmented
    message).  Yields ``(opcode, payload)`` with the *initial* opcode
    for reassembled messages.
    """

    def __init__(self, require_mask: bool = True):
        self._buf = bytearray()
        self._require_mask = require_mask
        self._assembly_op: Optional[int] = None
        self._assembly = bytearray()

    def feed(self, data: bytes) -> List[Tuple[int, bytes]]:
        self._buf += data
        out: List[Tuple[int, bytes]] = []
        while True:
            frame = self._next_frame()
            if frame is None:
                return out
            fin, opcode, payload = frame
            if opcode in (OP_CLOSE, OP_PING, OP_PONG):
                out.append((opcode, payload))
                continue
            if opcode == OP_CONT:
                if self._assembly_op is None:
                    raise WsProtocolError(
                        "continuation frame without a started message"
                    )
                self._assembly += payload
            else:
                if self._assembly_op is not None:
                    raise WsProtocolError(
                        "new data frame inside a fragmented message"
                    )
                self._assembly_op = opcode
                self._assembly += payload
            if len(self._assembly) > MAX_FRAME_BYTES:
                raise WsProtocolError(
                    f"message exceeds {MAX_FRAME_BYTES} bytes"
                )
            if fin:
                out.append((self._assembly_op, bytes(self._assembly)))
                self._assembly_op = None
                self._assembly = bytearray()

    def _next_frame(self) -> Optional[Tuple[bool, int, bytes]]:
        buf = self._buf
        if len(buf) < 2:
            return None
        first, second = buf[0], buf[1]
        fin = bool(first & 0x80)
        if first & 0x70:
            raise WsProtocolError("RSV bits set without an extension")
        opcode = first & 0x0F
        masked = bool(second & 0x80)
        length = second & 0x7F
        offset = 2
        if length == 126:
            if len(buf) < offset + 2:
                return None
            length = struct.unpack_from(">H", buf, offset)[0]
            offset += 2
        elif length == 127:
            if len(buf) < offset + 8:
                return None
            length = struct.unpack_from(">Q", buf, offset)[0]
            offset += 8
        if length > MAX_FRAME_BYTES:
            raise WsProtocolError(
                f"frame exceeds {MAX_FRAME_BYTES} bytes"
            )
        if masked:
            if len(buf) < offset + 4:
                return None
            mask = bytes(buf[offset:offset + 4])
            offset += 4
        elif self._require_mask and opcode != OP_CLOSE:
            raise WsProtocolError("client frames must be masked")
        else:
            mask = None
        if len(buf) < offset + length:
            return None
        payload = bytes(buf[offset:offset + length])
        del buf[:offset + length]
        if mask is not None:
            payload = bytes(
                b ^ mask[i % 4] for i, b in enumerate(payload)
            )
        return fin, opcode, payload


# -- gateway -----------------------------------------------------------------


def _recv_http_head(sock: socket.socket) -> bytes:
    """Read bytes until the blank line ending the request head."""
    data = bytearray()
    while b"\r\n\r\n" not in data:
        if len(data) > 64 * 1024:
            raise WsProtocolError("request head too large")
        chunk = sock.recv(4096)
        if not chunk:
            raise ConnectionError("client closed during handshake")
        data += chunk
    head, _, rest = bytes(data).partition(b"\r\n\r\n")
    if rest:
        # No request body is ever expected; leftover bytes are the
        # first WebSocket frames raced ahead of our 101.
        return head + b"\r\n\r\n" + rest
    return head


def _http_response(
    status: str, body: bytes, content_type: str = "text/plain"
) -> bytes:
    return (
        f"HTTP/1.1 {status}\r\n"
        f"Content-Type: {content_type}; charset=utf-8\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("ascii") + body


def static_page() -> bytes:
    with open(os.path.join(_STATIC_DIR, "livesim.html"), "rb") as fh:
        return fh.read()


class WsGateway:
    """Threaded WebSocket <-> JSON-lines bridge.

    One daemon thread per browser connection plus one per upstream
    socket; the gateway holds no protocol state, so a dying browser tab
    simply closes its upstream connection (the server then tears down
    that connection's watches exactly as it would for a TCP client).
    """

    def __init__(
        self,
        upstream_host: str = "127.0.0.1",
        upstream_port: int = DEFAULT_PORT,
        host: str = "127.0.0.1",
        port: int = DEFAULT_WS_PORT,
    ):
        self.upstream = (upstream_host, upstream_port)
        self._host = host
        self._port = port
        self._listener: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self.address: Optional[Tuple[str, int]] = None

    def start(self) -> Tuple[str, int]:
        listener = socket.create_server(
            (self._host, self._port), reuse_port=False
        )
        listener.settimeout(0.5)
        self._listener = listener
        self.address = listener.getsockname()[:2]
        thread = threading.Thread(
            target=self._accept_loop, name="livesim-ws-accept", daemon=True
        )
        thread.start()
        self._threads.append(thread)
        return self.address

    def serve_forever(self) -> None:
        if self._listener is None:
            self.start()
        try:
            while not self._stop.is_set():
                self._stop.wait(0.5)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass

    # -- connection handling -------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="livesim-ws-conn", daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            raw = _recv_http_head(conn)
            head, _, leftover = raw.partition(b"\r\n\r\n")
            method, path, headers = parse_http_request(head)
            if not is_upgrade(headers):
                self._serve_http(conn, method, path)
                return
            conn.sendall(handshake_response(headers))
            self._bridge(conn, leftover)
        except (WsProtocolError, ConnectionError, OSError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _serve_http(
        self, conn: socket.socket, method: str, path: str
    ) -> None:
        if method != "GET":
            conn.sendall(_http_response(
                "405 Method Not Allowed", b"GET only"
            ))
            return
        if path in ("/", "/index.html", "/livesim.html"):
            conn.sendall(_http_response(
                "200 OK", static_page(), "text/html"
            ))
        elif path == "/healthz":
            conn.sendall(_http_response("200 OK", b"ok"))
        else:
            conn.sendall(_http_response("404 Not Found", b"not found"))

    def _bridge(self, conn: socket.socket, leftover: bytes) -> None:
        """Pump frames <-> lines until either side closes."""
        upstream = socket.create_connection(self.upstream, timeout=30.0)
        upstream.settimeout(None)
        conn.settimeout(None)
        send_lock = threading.Lock()
        done = threading.Event()

        def ws_send(payload: bytes, opcode: int = OP_TEXT) -> bool:
            try:
                with send_lock:
                    conn.sendall(encode_frame(payload, opcode))
                return True
            except OSError:
                done.set()
                return False

        def upstream_to_ws() -> None:
            buf = bytearray()
            try:
                while not done.is_set():
                    chunk = upstream.recv(65536)
                    if not chunk:
                        break
                    buf += chunk
                    while True:
                        newline = buf.find(b"\n")
                        if newline < 0:
                            break
                        line = bytes(buf[:newline])
                        del buf[:newline + 1]
                        if not ws_send(line):
                            return
            except OSError:
                pass
            finally:
                done.set()
                ws_send(b"", OP_CLOSE)

        pump = threading.Thread(
            target=upstream_to_ws, name="livesim-ws-upstream", daemon=True
        )
        pump.start()
        parser = FrameParser(require_mask=True)
        try:
            pending = leftover
            while not done.is_set():
                if pending:
                    data, pending = pending, b""
                else:
                    data = conn.recv(65536)
                    if not data:
                        return
                for opcode, payload in parser.feed(data):
                    if opcode == OP_CLOSE:
                        ws_send(payload[:2], OP_CLOSE)
                        return
                    if opcode == OP_PING:
                        ws_send(payload, OP_PONG)
                        continue
                    if opcode == OP_PONG:
                        continue
                    if opcode != OP_TEXT:
                        raise WsProtocolError(
                            "the repro.server/v1 bridge is text-only"
                        )
                    upstream.sendall(payload.rstrip(b"\n") + b"\n")
        except (WsProtocolError, OSError):
            pass
        finally:
            done.set()
            try:
                upstream.close()
            except OSError:
                pass


# -- test-client helpers -----------------------------------------------------


def client_handshake(sock: socket.socket, host: str = "gateway") -> None:
    """Perform the client side of the upgrade (for tests/tools)."""
    key = base64.b64encode(os.urandom(16)).decode("ascii")
    sock.sendall((
        "GET / HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Key: {key}\r\n"
        "Sec-WebSocket-Version: 13\r\n"
        "\r\n"
    ).encode("ascii"))
    head = _recv_http_head(sock)
    status = head.split(b"\r\n", 1)[0]
    if b"101" not in status:
        raise WsProtocolError(f"upgrade refused: {status!r}")
    _, _, headers = parse_http_request(head.partition(b"\r\n\r\n")[0])
    expected = accept_key(key)
    if headers.get("sec-websocket-accept") != expected:
        raise WsProtocolError("bad Sec-WebSocket-Accept from gateway")


def iter_messages(
    sock: socket.socket, parser: FrameParser
) -> Iterator[Tuple[int, bytes]]:
    """Blocking message iterator over a client socket (tests/tools)."""
    while True:
        data = sock.recv(65536)
        if not data:
            return
        yield from parser.feed(data)


# -- entry point -------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server.ws",
        description="WebSocket gateway bridging browsers onto a "
                    "repro.server/v1 LiveSim server",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_WS_PORT)
    parser.add_argument("--upstream-host", default="127.0.0.1")
    parser.add_argument("--upstream-port", type=int, default=DEFAULT_PORT)
    args = parser.parse_args(argv)
    gateway = WsGateway(
        upstream_host=args.upstream_host,
        upstream_port=args.upstream_port,
        host=args.host,
        port=args.port,
    )
    host, port = gateway.start()
    print(f"livesim ws gateway listening on {host}:{port} "
          f"(upstream {args.upstream_host}:{args.upstream_port})",
          flush=True)
    gateway.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
