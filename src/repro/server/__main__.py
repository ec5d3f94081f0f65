"""Command-line entry point: ``python -m repro.server``.

Starts the multi-session LiveSim service and blocks until SIGINT or a
client sends ``shutdown``.  The listening address is printed on stdout
(one line, machine-parseable) so wrappers that bind port 0 can discover
the real port::

    $ python -m repro.server --port 0 --store /tmp/livesim-store
    livesim server listening on 127.0.0.1:43251 (in-process worker)

There is one server (:class:`~repro.server.frontend.ShardedFrontend`);
``--workers`` only chooses where its session workers run.  The default
``--workers 0`` hosts the one worker on a thread of the server process
and, without ``--state-dir``, keeps no session journal.  ``--workers
N`` shards the sessions across N worker *processes* (same code, same
wire protocol, many cores, crash recovery from the journals)::

    $ python -m repro.server --port 0 --workers 4 \\
          --store /tmp/livesim-store --state-dir /tmp/livesim-state
    livesim server listening on 127.0.0.1:43251 (4 worker processes)

``--workers`` only sets the *starting* pool size: the pool resizes at
runtime through the ``resize`` admin verb (and moves single sessions
with ``migrate``), e.g. from the client REPL::

    repl> resize 8
    repl> migrate alice, 3
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .frontend import ShardedFrontend, default_state_root
from .service import DEFAULT_PORT


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="LiveSim multi-session server "
                    "(JSON-lines protocol repro.server/v1)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"listen port (default {DEFAULT_PORT}; "
                             "0 picks a free port)")
    parser.add_argument("--store", metavar="DIR",
                        help="on-disk compile-artifact store shared by "
                             "all sessions (and across restarts)")
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="shard sessions across N worker processes "
                             "(default 0: one worker on a thread of the "
                             "server process); the pool can be resized "
                             "at runtime with the 'resize' admin verb")
    parser.add_argument("--state-dir", metavar="DIR",
                        help="session-journal directory for crash "
                             "recovery and migration (default with "
                             "--workers N: <store>.state, or a fresh "
                             "temp dir without --store; with --workers "
                             "0: none, nothing is journaled)")
    parser.add_argument("--idle-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="evict sessions idle longer than this")
    parser.add_argument("--checkpoint-interval", type=int, default=10_000)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.checkpoint_interval <= 0:
        parser.error("--checkpoint-interval must be positive")
    state_dir = args.state_dir
    if state_dir is None and args.workers > 0:
        state_dir = default_state_root(args.store)
    server = ShardedFrontend(
        host=args.host,
        port=args.port,
        workers=args.workers,
        store_root=args.store,
        state_root=state_dir,
        checkpoint_interval=args.checkpoint_interval,
        idle_timeout=args.idle_timeout,
    )
    host, port = server.start()
    hosting = (f"{args.workers} worker processes" if args.workers
               else "in-process worker")
    print(f"livesim server listening on {host}:{port} ({hosting})",
          flush=True)
    if state_dir:
        print(f"session state dir: {state_dir}",
              file=sys.stderr, flush=True)
    if args.store:
        print(f"artifact store: {args.store}",
              file=sys.stderr, flush=True)
    try:
        server.serve_forever()
    finally:
        server.shutdown()
        print("livesim server stopped", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
