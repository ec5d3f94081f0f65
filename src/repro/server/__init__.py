"""Multi-session LiveSim service with a shared compile-artifact store.

The production face of the reproduction: a long-lived process serving
many concurrent edit-run-debug sessions over a JSON-lines socket
protocol, backed by an on-disk content-addressed store of compiled
modules so compile work survives restarts and is shared across users.

* :mod:`repro.server.protocol` — request/response/event framing
  (``repro.server/v1``) and the one declaration of every verb; every
  Table I command line, ``watch`` and ``trace`` included, is one
  ``cmd`` request.
* :mod:`repro.server.store` — the on-disk artifact store
  :class:`~repro.server.store.ArtifactStore` that
  :class:`~repro.live.compiler_live.LiveCompiler` reads through.
* :mod:`repro.server.service` — command results and errors as
  wire-level JSON, shared by the worker and the front door.
* :mod:`repro.server.client` — blocking :class:`LiveSimClient` and the
  ``python -m repro.server.client`` REPL.
* :mod:`repro.server.shard` — consistent-hash ring, per-session crash
  journal, and the session worker, which keeps one
  :class:`ManagedSession` record per named session (a
  :class:`~repro.live.session.LiveSession` behind a per-session lock,
  with its journal) and admits it one way, on ``open`` and on
  rehydration alike.
* :mod:`repro.server.frontend` — the server: an asyncio front door
  that routes sessions to worker processes (``--workers N``),
  restarting and rehydrating them on crashes, or to one worker on a
  thread of its own process (``--workers 0``, the default).

Run a server::

    python -m repro.server --port 7391 --store /var/cache/livesim
    python -m repro.server --port 7391 --workers 4 \\
        --store /var/cache/livesim --state-dir /var/cache/livesim.state
"""

from ..codegen.build import STORE_FORMAT
from .protocol import (
    PROTOCOL_VERSION,
    Event,
    ProtocolError,
    Request,
    Response,
)
from .service import (
    DEFAULT_PORT,
    DuplicateSessionError,
    UnknownSessionError,
)
from .shard import HashRing, ManagedSession, SessionJournal, WorkerConfig
from .store import ArtifactStore


def __getattr__(name):
    # Lazy so ``python -m repro.server.client`` does not import the
    # client module twice (once via the package, once as __main__),
    # and so importing the package never drags in asyncio machinery.
    if name in ("LiveSimClient", "ReadTimeout", "ServerError"):
        from . import client

        return getattr(client, name)
    if name in ("ShardedFrontend", "WorkerCommandError"):
        from . import frontend

        return getattr(frontend, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ArtifactStore",
    "DEFAULT_PORT",
    "DuplicateSessionError",
    "Event",
    "HashRing",
    "LiveSimClient",
    "ManagedSession",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ReadTimeout",
    "Request",
    "Response",
    "STORE_FORMAT",
    "ServerError",
    "SessionJournal",
    "ShardedFrontend",
    "UnknownSessionError",
    "WorkerCommandError",
    "WorkerConfig",
]
