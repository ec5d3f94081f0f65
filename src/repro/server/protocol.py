"""JSON-lines wire protocol for the LiveSim server (``repro.server/v1``).

One message per line, three message shapes:

Request (client -> server)::

    {"id": 1, "cmd": "open", "session": "alice", "source": "..."}

Every key besides ``id`` and ``cmd`` is a command parameter.  ``id`` is
a client-chosen integer echoed in the response so a client can match
replies on a connection that also carries events.

Response (server -> client, exactly one per request)::

    {"id": 1, "ok": true, "value": ...}
    {"id": 1, "ok": false, "error": {"type": "command", "message": "..."}}

Event (server -> client, unsolicited, e.g. background-verify progress)::

    {"event": "verify_status", "session": "alice",
     "data": {"state": "running", "completed_segments": 3, ...}}

The framing layer knows nothing about sessions or simulators; it only
classifies lines and converts arbitrary command results into JSON-safe
values (:func:`to_jsonable`).

The commands themselves are declared once, in :data:`VERBS`: each
verb's required and optional parameters with their types, and whether
it is routed to the worker owning its session.  The server validates
every request against that table (:func:`check_request`) before
anything else looks at it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple, Union

PROTOCOL_VERSION = "repro.server/v1"

# A request line longer than this is a protocol error, not a command:
# it bounds per-connection memory against a hostile or broken client.
# Large enough for a multi-megabyte design source in an ``open``.
MAX_LINE_BYTES = 16 * 1024 * 1024

# How deep to_jsonable follows nested containers before flattening the
# remainder to repr() — command results are summaries, not state dumps.
_MAX_DEPTH = 8


class ProtocolError(ValueError):
    """Malformed frame: not JSON, too long, or not a known shape."""


@dataclass
class Request:
    id: int
    cmd: str
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Response:
    id: int
    ok: bool
    value: Any = None
    error: Optional[Dict[str, str]] = None


@dataclass
class Event:
    name: str
    session: str
    data: Dict[str, Any] = field(default_factory=dict)


Message = Union[Request, Response, Event]


# -- verbs -------------------------------------------------------------------

# The worker pool can be resized at runtime; cap it so a typo'd
# ``resize`` cannot fork-bomb the host.
MAX_WORKERS = 64

# A parameter type: (check, what a valid value is).
Param = Tuple[Callable[[Any], bool], str]


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


STR: Param = (lambda v: isinstance(v, str) and bool(v), "a non-empty string")
INT: Param = (_is_int, "an integer")
COUNT: Param = (lambda v: _is_int(v) and v >= 1, "a positive integer")
BOOL: Param = (lambda v: isinstance(v, bool), "a boolean")
WORKERS: Param = (
    lambda v: _is_int(v) and 1 <= v <= MAX_WORKERS,
    f"an integer in [1, {MAX_WORKERS}]",
)


@dataclass(frozen=True)
class Verb:
    """One server command: the parameters it takes (other keys are
    ignored) and whether the frontend routes it to the worker that owns
    ``params["session"]`` or handles it itself."""

    required: Dict[str, Param] = field(default_factory=dict)
    optional: Dict[str, Param] = field(default_factory=dict)
    routed: bool = False


_SESSION = {"session": STR}

# The one declaration of every verb: the frontend validates requests
# against it before anything is forwarded, so workers read parameters
# without re-checking them, and both sides dispatch by verb name.
# Every Table I line, ``watch`` / ``unwatch`` / ``trace`` / ``replay``
# included, travels as ``cmd`` (a ``watch`` line also streams
# ``value_change`` events); ``resize``/``migrate`` administer the pool.
VERBS: Dict[str, Verb] = {
    "ping": Verb(),
    "open": Verb({**_SESSION, "source": STR}, {"reset_cycles": INT}),
    # max_events: for a ``cmd`` whose line is a ``watch``.
    "cmd": Verb({**_SESSION, "line": STR}, {"max_events": COUNT},
                routed=True),
    "reload": Verb({**_SESSION, "source": STR},
                   {"override": BOOL}, routed=True),
    "close": Verb(_SESSION, routed=True),
    "sessions": Verb(),
    # deep: add each worker's own stats (``worker_stats``).
    "stats": Verb({}, {"deep": BOOL}),
    "shutdown": Verb(),
    "resize": Verb({"workers": WORKERS}),
    "migrate": Verb({**_SESSION, "worker": INT}),
}


def check_request(request: Request) -> Verb:
    """Validate ``request`` against its verb's declaration."""
    verb = VERBS.get(request.cmd)
    if verb is None:
        raise ProtocolError(
            f"unknown server command {request.cmd!r}; expected one of "
            f"{sorted(VERBS)}"
        )
    for params, may_omit in ((verb.required, False), (verb.optional, True)):
        for key, (check, what) in params.items():
            value = request.params.get(key)
            if not (check(value) or (may_omit and value is None)):
                raise ProtocolError(f"{key!r} must be {what}")
    return verb


# -- encoding ----------------------------------------------------------------


def _dump_line(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"


def encode_request(request: Request) -> str:
    payload = dict(request.params)
    payload["id"] = request.id
    payload["cmd"] = request.cmd
    return _dump_line(payload)


def encode_response(response: Response) -> str:
    payload: Dict[str, Any] = {"id": response.id, "ok": response.ok}
    if response.ok:
        payload["value"] = response.value
    else:
        payload["error"] = response.error or {
            "type": "internal", "message": "unknown error"
        }
    return _dump_line(payload)


def encode_event(event: Event) -> str:
    return _dump_line({
        "event": event.name,
        "session": event.session,
        "data": event.data,
    })


def ok_response(request_id: int, value: Any = None) -> Response:
    return Response(id=request_id, ok=True, value=value)


def error_response(request_id: int, kind: str, message: str) -> Response:
    return Response(
        id=request_id, ok=False,
        error={"type": kind, "message": message},
    )


# -- decoding ----------------------------------------------------------------


def decode(line: Union[str, bytes]) -> Message:
    """Parse one wire line into a Request, Response, or Event."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(f"line exceeds {MAX_LINE_BYTES} bytes")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"line is not UTF-8: {exc}") from exc
    elif len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"line exceeds {MAX_LINE_BYTES} bytes")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"line is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("message must be a JSON object")

    if "event" in payload:
        name = payload["event"]
        if not isinstance(name, str) or not name:
            raise ProtocolError("event name must be a non-empty string")
        session = payload.get("session", "")
        if not isinstance(session, str):
            raise ProtocolError("event session must be a string")
        data = payload.get("data", {})
        if not isinstance(data, dict):
            raise ProtocolError("event data must be an object")
        return Event(name=name, session=session, data=data)

    if "cmd" in payload:
        cmd = payload["cmd"]
        if not isinstance(cmd, str) or not cmd:
            raise ProtocolError("cmd must be a non-empty string")
        request_id = payload.get("id")
        if not isinstance(request_id, int) or isinstance(request_id, bool):
            raise ProtocolError("request id must be an integer")
        params = {
            key: value for key, value in payload.items()
            if key not in ("id", "cmd")
        }
        return Request(id=request_id, cmd=cmd, params=params)

    if "ok" in payload:
        ok = payload["ok"]
        if not isinstance(ok, bool):
            raise ProtocolError("ok must be a boolean")
        request_id = payload.get("id")
        if not isinstance(request_id, int) or isinstance(request_id, bool):
            raise ProtocolError("response id must be an integer")
        if ok:
            return Response(id=request_id, ok=True,
                            value=payload.get("value"))
        error = payload.get("error")
        if not isinstance(error, dict):
            raise ProtocolError("error response needs an error object")
        return Response(id=request_id, ok=False, error={
            "type": str(error.get("type", "internal")),
            "message": str(error.get("message", "")),
        })

    raise ProtocolError(
        "message is neither a request (cmd), response (ok) nor event"
    )


# -- result conversion -------------------------------------------------------


def to_jsonable(value: Any, _depth: int = 0) -> Any:
    """Convert an arbitrary command result into JSON-safe data.

    Dataclasses become objects (plus a ``_type`` tag so clients can
    tell a SwapReport from a VerifyStatus), sets become sorted lists,
    tuples become lists, dict keys are coerced to strings, and anything
    unrepresentable falls back to ``repr``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if _depth >= _MAX_DEPTH:
        return repr(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out: Dict[str, Any] = {"_type": type(value).__name__}
        for f in dataclasses.fields(value):
            out[f.name] = to_jsonable(getattr(value, f.name), _depth + 1)
        return out
    if isinstance(value, dict):
        return {
            str(key): to_jsonable(item, _depth + 1)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item, _depth + 1) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(to_jsonable(item, _depth + 1) for item in value)
    return repr(value)
