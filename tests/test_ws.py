"""WebSocket gateway unit + end-to-end tests (repro.server.ws):
RFC 6455 handshake math, frame codec (extended lengths, masking,
fragmentation), HTTP fallbacks, and a bridged live session."""

import json
import socket

import pytest

from repro.server.frontend import ShardedFrontend
from repro.server.ws import (
    OP_BINARY,
    OP_CONT,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    FrameParser,
    WsGateway,
    WsProtocolError,
    accept_key,
    client_handshake,
    encode_frame,
    handshake_response,
    is_upgrade,
    iter_messages,
    parse_http_request,
)
from tests.conftest import COUNTER_SRC

UPGRADE = (
    b"GET /chat HTTP/1.1\r\n"
    b"Host: example.com\r\n"
    b"Upgrade: websocket\r\n"
    b"Connection: Upgrade\r\n"
    b"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n"
    b"Sec-WebSocket-Version: 13\r\n"
)


class TestHandshake:
    def test_accept_key_rfc_vector(self):
        # the worked example from RFC 6455 section 1.3
        assert accept_key("dGhlIHNhbXBsZSBub25jZQ==") == \
            "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="

    def test_parse_http_request(self):
        method, path, headers = parse_http_request(UPGRADE)
        assert (method, path) == ("GET", "/chat")
        assert headers["host"] == "example.com"
        assert headers["sec-websocket-version"] == "13"
        assert is_upgrade(headers) is True

    def test_plain_get_is_not_upgrade(self):
        _, _, headers = parse_http_request(
            b"GET / HTTP/1.1\r\nHost: x\r\n"
        )
        assert is_upgrade(headers) is False

    def test_handshake_response_echoes_accept(self):
        _, _, headers = parse_http_request(UPGRADE)
        response = handshake_response(headers)
        assert response.startswith(b"HTTP/1.1 101")
        assert b"s3pPLMBiTxaQ9kYGzzhZRbK+xOo=" in response

    def test_handshake_requires_key(self):
        with pytest.raises(WsProtocolError, match="Sec-WebSocket-Key"):
            handshake_response({"upgrade": "websocket"})


class TestFrameCodec:
    def roundtrip(self, payload, **kwargs):
        parser = FrameParser(require_mask=False)
        frames = parser.feed(encode_frame(payload, **kwargs))
        assert len(frames) == 1
        return frames[0]

    def test_short_frame(self):
        assert self.roundtrip(b"hi") == (OP_TEXT, b"hi")

    def test_extended_16bit_length(self):
        payload = b"x" * 300
        assert self.roundtrip(payload) == (OP_TEXT, payload)

    def test_extended_64bit_length(self):
        payload = b"y" * 70_000
        assert self.roundtrip(payload, opcode=OP_BINARY) == \
            (OP_BINARY, payload)

    def test_masked_roundtrip(self):
        parser = FrameParser(require_mask=True)
        wire = encode_frame(b"secret", mask=b"\x01\x02\x03\x04")
        assert b"secret" not in wire  # actually transformed
        assert parser.feed(wire) == [(OP_TEXT, b"secret")]

    def test_unmasked_client_frame_rejected(self):
        parser = FrameParser(require_mask=True)
        with pytest.raises(WsProtocolError, match="masked"):
            parser.feed(encode_frame(b"hi"))

    def test_mask_must_be_four_bytes(self):
        with pytest.raises(WsProtocolError, match="4 bytes"):
            encode_frame(b"hi", mask=b"\x01")

    def test_rsv_bits_rejected(self):
        parser = FrameParser(require_mask=False)
        wire = bytearray(encode_frame(b"hi"))
        wire[0] |= 0x40
        with pytest.raises(WsProtocolError, match="RSV"):
            parser.feed(bytes(wire))

    def test_byte_at_a_time_feed(self):
        parser = FrameParser(require_mask=False)
        wire = encode_frame(b"piecewise", opcode=OP_TEXT)
        collected = []
        for i in range(len(wire)):
            collected += parser.feed(wire[i:i + 1])
        assert collected == [(OP_TEXT, b"piecewise")]

    def test_fragmented_message_reassembled(self):
        parser = FrameParser(require_mask=False)
        wire = (
            encode_frame(b"hel", opcode=OP_TEXT, fin=False)
            + encode_frame(b"lo ", opcode=OP_CONT, fin=False)
            + encode_frame(b"world", opcode=OP_CONT, fin=True)
        )
        assert parser.feed(wire) == [(OP_TEXT, b"hello world")]

    def test_control_frame_interleaves_fragments(self):
        parser = FrameParser(require_mask=False)
        wire = (
            encode_frame(b"half", opcode=OP_TEXT, fin=False)
            + encode_frame(b"beat", opcode=OP_PING)
            + encode_frame(b"-done", opcode=OP_CONT, fin=True)
        )
        assert parser.feed(wire) == [
            (OP_PING, b"beat"), (OP_TEXT, b"half-done"),
        ]

    def test_stray_continuation_rejected(self):
        parser = FrameParser(require_mask=False)
        with pytest.raises(WsProtocolError, match="continuation"):
            parser.feed(encode_frame(b"x", opcode=OP_CONT))


class TestGatewayEndToEnd:
    @pytest.fixture
    def stack(self):
        server = ShardedFrontend(workers=0)
        host, port = server.start()
        gateway = WsGateway(upstream_host=host, upstream_port=port,
                            port=0)
        address = gateway.start()
        yield address
        gateway.shutdown()
        server.shutdown()

    def _http(self, address, request):
        sock = socket.create_connection(address, timeout=10)
        sock.sendall(request)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
        sock.close()
        return data

    def test_serves_static_waveform_page(self, stack):
        page = self._http(
            stack, b"GET / HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        assert page.startswith(b"HTTP/1.1 200 OK")
        assert b"LiveSim live waveforms" in page

    def test_healthz_and_404(self, stack):
        health = self._http(
            stack, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        assert b"200 OK" in health and b"ok" in health
        missing = self._http(
            stack, b"GET /nothing HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        assert missing.startswith(b"HTTP/1.1 404")

    def test_bridges_protocol_and_ping_frames(self, stack):
        sock = socket.create_connection(stack, timeout=30)
        client_handshake(sock)
        parser = FrameParser(require_mask=False)
        messages = iter_messages(sock, parser)

        def request(obj, rid=[0]):
            rid[0] += 1
            obj["id"] = rid[0]
            sock.sendall(encode_frame(
                json.dumps(obj).encode(), OP_TEXT, mask=b"\xaa\xbb\xcc\xdd"
            ))
            for opcode, payload in messages:
                if opcode != OP_TEXT:
                    continue
                msg = json.loads(payload)
                if msg.get("id") == rid[0]:
                    assert msg["ok"], msg
                    return msg["value"]

        assert request({"cmd": "ping"})["pong"] is True

        # a ws-level ping is answered by the gateway itself
        sock.sendall(encode_frame(b"probe", OP_PING, mask=b"\x01\x02\x03\x04"))
        opcode, payload = next(messages)
        assert (opcode, payload) == (OP_PONG, b"probe")

        request({"cmd": "open", "session": "ws", "source": COUNTER_SRC})
        request({"cmd": "cmd", "session": "ws",
                 "line": "instPipe p0, stage2"})
        request({"cmd": "watch", "session": "ws",
                 "pipe": "p0", "signal": "c0"})
        request({"cmd": "cmd", "session": "ws", "line": "run tb0, p0, 10"})
        window = request({"cmd": "trace", "session": "ws", "pipe": "p0",
                          "signal": "c0", "start": 0, "end": 10})
        assert len(window["samples"]) == 10
        sock.close()
