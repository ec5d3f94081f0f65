"""Load-test bench: many concurrent scripted sessions against the server.

``python -m repro.bench loadtest`` boots the LiveSim server in-process —
N worker processes (``--workers N``) or its one worker on a thread
(``--workers 0``) — then drives ``--sessions`` scripted edit-run-debug
sessions from a pool of ``--concurrency`` client threads over real
sockets.  Every
command is timed client-side into an :mod:`repro.obs` histogram per
command class (open / instpipe / run / peek / close), and the run is
summarized as p50/p95/p99 latency per class plus aggregate
commands/sec.

The same JSON artifact (``repro.bench.loadtest/v1``) feeds:

* humans — a latency table and throughput line are printed;
* CI — ``--baseline PATH`` gates the per-class p99 latency against a
  checked-in baseline with the same host-speed calibration scaling as
  the fig7 gate (throughput is not gated: it depends on core count,
  which calibration cannot normalize away, so the artifact records
  ``cpu_count``).

``--chaos`` (worker processes only) disrupts the pool *during* the
measured run: a controller thread SIGKILLs one worker, then resizes
the pool W→2W→W through the ``resize`` admin verb, recording a
disruption window around each action.  Every command is timestamped
client-side, so the artifact can split latency post-hoc: ``latency_s``
(and the p99 gate) cover only commands that never overlapped a
disruption window, while ``chaos.disrupted_latency_s`` reports the
tail seen by commands that rode through a kill, a failover replay or
a live migration.  Migration/failover counts come from the server's
own counters.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from .reporting import format_table

# One timed command: (class, start, end, ok) in perf_counter seconds.
Sample = Tuple[str, float, float, bool]

LOADTEST_SCHEMA_ID = "repro.bench.loadtest/v1"
COMMAND_CLASSES = ("open", "instpipe", "run", "peek", "close")

# Small three-module design (same shape as tools/server_smoke.py): a
# combinational adder feeding two registered counters.  Big enough to
# exercise compile, checkpoint and simulate paths; small enough that a
# single host can sustain hundreds of sessions.
DESIGN = """
module adder #(parameter W = 8) (
  input clk,
  input [W-1:0] a,
  input [W-1:0] b,
  output [W-1:0] sum
);
  assign sum = a + b;
endmodule

module counter #(parameter W = 8) (
  input clk,
  input rst,
  input [W-1:0] step,
  output [W-1:0] count
);
  reg [W-1:0] count_q;
  wire [W-1:0] next;
  adder #(.W(W)) u_add (.clk(clk), .a(count_q), .b(step), .sum(next));
  assign count = count_q;
  always @(posedge clk) begin
    if (rst)
      count_q <= 0;
    else
      count_q <= next;
  end
endmodule

module top (
  input clk,
  input rst,
  output [7:0] c0,
  output [7:0] c1
);
  counter #(.W(8)) u0 (.clk(clk), .rst(rst), .step(8'd1), .count(c0));
  counter #(.W(8)) u1 (.clk(clk), .rst(rst), .step(8'd3), .count(c1));
endmodule
"""


@dataclass
class LoadtestConfig:
    """One load-test run: N sessions driven by C client threads."""

    sessions: int = 64
    workers: int = 4
    runs: int = 3
    run_cycles: int = 200
    concurrency: int = 16
    read_timeout: float = 300.0
    chaos: bool = False
    chaos_warmup: float = 0.75   # seconds before the first disruption
    chaos_margin: float = 0.5    # window cushion after recovery/resize


def _drive_session(client, name: str, config: LoadtestConfig,
                   registry: MetricsRegistry,
                   samples: List[Sample]) -> None:
    """Script one session end-to-end, timing each command class."""

    def timed(cls: str, fn, *args) -> None:
        started = time.perf_counter()
        try:
            fn(*args)
        except Exception:
            samples.append((cls, started, time.perf_counter(), False))
            raise
        ended = time.perf_counter()
        samples.append((cls, started, ended, True))
        registry.histogram(f"loadtest.{cls}.seconds", ended - started)
        registry.incr("loadtest.commands")

    timed("open", client.open_session, name, DESIGN)
    timed("instpipe", client.command, name, "instPipe p0, stage2")
    for _ in range(config.runs):
        timed("run", client.command, name,
              f"run tb0, p0, {config.run_cycles}")
        timed("peek", client.command, name, "peek p0")
    timed("close", client.close_session, name)


def _drive(
    host: str, port: int, config: LoadtestConfig
) -> Tuple[MetricsRegistry, float, List[Sample]]:
    """Run every session through a bounded pool of client threads."""
    from ..server.client import LiveSimClient, ReadTimeout, ServerError

    names: "queue.Queue[str]" = queue.Queue()
    for i in range(config.sessions):
        names.put(f"load-{i:04d}")
    registries = [MetricsRegistry() for _ in range(config.concurrency)]
    sample_lists: List[List[Sample]] = [
        [] for _ in range(config.concurrency)
    ]

    def client_thread(registry: MetricsRegistry,
                      samples: List[Sample]) -> None:
        client = LiveSimClient(host, port,
                               read_timeout=config.read_timeout)
        try:
            while True:
                try:
                    name = names.get_nowait()
                except queue.Empty:
                    return
                try:
                    _drive_session(client, name, config, registry,
                                   samples)
                except (ServerError, ReadTimeout,
                        ConnectionError, OSError) as exc:
                    registry.incr("loadtest.errors")
                    registry.incr(
                        f"loadtest.errors.{type(exc).__name__}"
                    )
                    if client.broken:
                        client.close()
                        client = LiveSimClient(
                            host, port,
                            read_timeout=config.read_timeout,
                        )
        finally:
            client.close()

    threads = [
        threading.Thread(target=client_thread,
                         args=(registry, samples),
                         name=f"loadtest-{i}", daemon=True)
        for i, (registry, samples)
        in enumerate(zip(registries, sample_lists))
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started

    merged = MetricsRegistry()
    for registry in registries:
        merged.merge(registry)
    samples = [s for per_thread in sample_lists for s in per_thread]
    return merged, wall_s, samples


# -- chaos mode --------------------------------------------------------------


class _ChaosController(threading.Thread):
    """Disrupt the worker pool while the workload is being measured.

    Sequence (each step records a disruption window, padded by
    ``chaos_margin`` to cover failover replays and rehydrate queues
    that drain just after the visible action completes):

    1. SIGKILL the lowest live worker, wait for the frontend to
       respawn it (its ``restarts`` counter ticks);
    2. ``resize`` the pool to twice its size;
    3. ``resize`` it back down.

    The controller stops early (between steps) once the drive
    finishes, so a short workload simply records fewer disruptions.
    """

    def __init__(self, server, host: str, port: int,
                 config: LoadtestConfig, stop: threading.Event):
        super().__init__(name="loadtest-chaos", daemon=True)
        self._server = server
        self._host = host
        self._port = port
        self._config = config
        self._halt = stop
        self.disruptions: List[Dict] = []
        self.error: Optional[str] = None

    def run(self) -> None:
        from ..server.client import LiveSimClient

        try:
            if self._halt.wait(self._config.chaos_warmup):
                return
            self._kill_one_worker()
            if self._halt.is_set():
                return
            workers = self._config.workers
            with LiveSimClient(self._host, self._port,
                               read_timeout=120.0) as admin:
                self._timed_window(
                    "resize", f"{workers} -> {workers * 2}",
                    lambda: admin.resize(workers * 2),
                )
                if self._halt.is_set():
                    return
                self._timed_window(
                    "resize", f"{workers * 2} -> {workers}",
                    lambda: admin.resize(workers),
                )
        except Exception as exc:  # surfaced in the artifact, not lost
            self.error = f"{type(exc).__name__}: {exc}"

    def _timed_window(self, kind: str, detail: str, action) -> None:
        start = time.perf_counter()
        action()
        self.disruptions.append({
            "kind": kind, "detail": detail, "start": start,
            "end": time.perf_counter() + self._config.chaos_margin,
        })

    def _kill_one_worker(self) -> None:
        # The server runs in-process, so the bench can reach its pool
        # handles directly — kills are not a protocol feature.
        handles = self._server._workers
        live = [wid for wid, w in handles.items() if w.alive]
        if not live:
            raise RuntimeError("no live worker to kill")
        wid = min(live)
        victim = handles[wid]
        restarts_before = victim.restarts
        start = time.perf_counter()
        os.kill(victim.pid, signal.SIGKILL)
        deadline = start + 60.0
        while time.perf_counter() < deadline:
            if victim.restarts > restarts_before and victim.alive:
                break
            if self._halt.wait(0.05):
                break
        self.disruptions.append({
            "kind": "kill", "detail": f"worker {wid} (SIGKILL)",
            "start": start,
            "end": time.perf_counter() + self._config.chaos_margin,
        })


def _latency_from_samples(samples: List[Sample]) -> Dict[str, Dict]:
    registry = MetricsRegistry()
    for cls, start, end, ok in samples:
        if ok:
            registry.histogram(f"loadtest.{cls}.seconds", end - start)
    return {
        cls: registry.histogram_stats(f"loadtest.{cls}.seconds")
        for cls in COMMAND_CLASSES
    }


def _split_by_disruption(
    samples: List[Sample], windows: List[Dict]
) -> Tuple[List[Sample], List[Sample]]:
    """Partition samples into (undisrupted, disrupted) by overlap."""
    clean: List[Sample] = []
    disrupted: List[Sample] = []
    for sample in samples:
        _, start, end, _ = sample
        hit = any(
            start < window["end"] and end > window["start"]
            for window in windows
        )
        (disrupted if hit else clean).append(sample)
    return clean, disrupted


def run_loadtest(config: LoadtestConfig) -> Dict:
    """Boot the server, drive the workload, return the result dict.

    ``config.workers > 0`` runs that many worker processes;
    ``config.workers == 0`` hosts the one worker on a thread of this
    process (the comparison point for the scaling claim).
    """
    from ..server.frontend import ShardedFrontend

    scratch = tempfile.mkdtemp(prefix="livesim-loadtest-")
    server = None
    try:
        server = ShardedFrontend(
            port=0,
            workers=config.workers,
            store_root=os.path.join(scratch, "store"),
            state_root=os.path.join(scratch, "state"),
        )
        host, port = server.start()

        chaos: Optional[_ChaosController] = None
        chaos_stop = threading.Event()
        if config.chaos:
            if config.workers <= 0:
                raise ValueError(
                    "--chaos needs worker processes (--workers >= 1)"
                )
            chaos = _ChaosController(server, host, port, config,
                                     chaos_stop)
            chaos.start()
        try:
            registry, wall_s, samples = _drive(host, port, config)
        finally:
            chaos_stop.set()
        if chaos is not None:
            chaos.join(timeout=120.0)

        from ..server.client import LiveSimClient

        with LiveSimClient(host, port, read_timeout=60.0) as probe:
            server_stats = probe.stats()
    finally:
        if server is not None:
            server.shutdown()
        shutil.rmtree(scratch, ignore_errors=True)

    commands = registry.counter("loadtest.commands")
    result: Dict = {
        "mode": "sharded" if config.workers > 0 else "thread-hosted",
        "wall_s": wall_s,
        "commands": commands,
        "commands_per_sec": commands / wall_s if wall_s > 0 else 0.0,
        "errors": registry.counter("loadtest.errors"),
        "latency_s": {
            cls: registry.histogram_stats(f"loadtest.{cls}.seconds")
            for cls in COMMAND_CLASSES
        },
        "server": {
            "sessions_left": server_stats.get("sessions"),
            "workers": server_stats.get("workers"),
            "request_seconds": (
                server_stats.get("metrics", {})
                .get("histograms", {})
                .get("server.request_seconds")
            ),
        },
    }
    error_counters = {
        name: value
        for name, value in sorted(registry.counters.items())
        if name.startswith("loadtest.errors.")
    }
    if error_counters:
        result["error_kinds"] = error_counters

    if chaos is not None:
        clean, disrupted = _split_by_disruption(
            samples, chaos.disruptions
        )
        # The gate sees only commands that never overlapped a
        # disruption: latency_s and errors are recomputed over the
        # clean partition; the disrupted tail is reported separately.
        result["latency_s"] = _latency_from_samples(clean)
        result["errors"] = sum(1 for s in clean if not s[3])
        counters = (
            server_stats.get("metrics", {}).get("counters", {})
        )
        run_start = min(
            (s[1] for s in samples),
            default=min(
                (w["start"] for w in chaos.disruptions),
                default=0.0,
            ),
        )
        result["chaos"] = {
            "disruptions": [
                {
                    "kind": w["kind"],
                    "detail": w["detail"],
                    "start_s": round(w["start"] - run_start, 3),
                    "end_s": round(w["end"] - run_start, 3),
                }
                for w in chaos.disruptions
            ],
            "commands_disrupted": len(disrupted),
            "disrupted_errors": sum(
                1 for s in disrupted if not s[3]
            ),
            "disrupted_latency_s": _latency_from_samples(disrupted),
            "sessions_migrated": counters.get(
                "server.sessions_migrated", 0),
            "migrations_failed": counters.get(
                "server.migrations_failed", 0),
            "request_failovers": counters.get(
                "server.request_failovers", 0),
            "worker_restarts": counters.get(
                "server.worker_restarts", 0),
            "resizes": counters.get("server.resizes", 0),
            "sessions_dropped": counters.get(
                "server.sessions_dropped", 0),
        }
        if chaos.error:
            result["chaos"]["controller_error"] = chaos.error
    return result


def run_loadtest_payload(config: LoadtestConfig) -> Dict:
    """Full ``repro.bench.loadtest/v1`` artifact for one configuration."""
    from .run import calibrate

    payload: Dict = {
        "schema": LOADTEST_SCHEMA_ID,
        "generated_unix_s": time.time(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "calibration_s": calibrate(),
        "config": asdict(config),
    }
    payload.update(run_loadtest(config))
    return payload


# -- regression gate ---------------------------------------------------------


def compare_to_baseline(
    current: Dict, baseline: Dict, max_regression: float
) -> List[str]:
    """Per-class p99 latency gate; returns failure messages (empty = ok).

    Throughput is deliberately NOT gated: commands/sec scales with core
    count, which the single-thread calibration probe cannot see.  The
    p99 gate uses the same host-speed scaling as the fig7 gate.
    """
    from .run import host_speed_scale

    failures: List[str] = []
    base_latency = baseline.get("latency_s") or {}
    cur_latency = current.get("latency_s") or {}
    if not base_latency:
        return ["baseline JSON has no latency_s data"]

    scale = host_speed_scale(current, baseline)
    for cls in sorted(base_latency):
        base_p99 = base_latency[cls].get("p99")
        if not base_p99:
            continue
        stats = cur_latency.get(cls)
        if not stats or not stats.get("count"):
            failures.append(
                f"loadtest: command class {cls!r} missing from current run"
            )
            continue
        allowed = base_p99 * (1.0 + max_regression) * scale
        if stats["p99"] > allowed:
            failures.append(
                f"loadtest: {cls} p99 latency regressed: "
                f"{stats['p99'] * 1e3:.1f} ms > allowed "
                f"{allowed * 1e3:.1f} ms "
                f"(baseline {base_p99 * 1e3:.1f} ms, "
                f"host-speed scale {scale:.2f})"
            )
    if current.get("errors"):
        failures.append(
            f"loadtest: {current['errors']} session scripts failed "
            f"({current.get('error_kinds')})"
        )
    return failures


# -- CLI ---------------------------------------------------------------------


def _print_summary(payload: Dict, out) -> None:
    config = payload["config"]
    rows = []
    for cls in COMMAND_CLASSES:
        stats = payload["latency_s"][cls]
        rows.append([
            stats["count"],
            round(stats["p50"] * 1e3, 2),
            round(stats["p95"] * 1e3, 2),
            round(stats["p99"] * 1e3, 2),
            round(stats["max"] * 1e3, 2),
        ])
    print(format_table(
        f"Load test — {config['sessions']} sessions, "
        f"{config['workers']} workers, "
        f"{config['concurrency']} client threads ({payload['mode']})",
        ["count", "p50 ms", "p95 ms", "p99 ms", "max ms"],
        rows,
        row_labels=list(COMMAND_CLASSES),
    ), file=out)
    print(
        f"  {payload['commands']} commands in {payload['wall_s']:.2f} s "
        f"= {payload['commands_per_sec']:.1f} commands/sec, "
        f"{payload['errors']} errors "
        f"(host: {payload['cpu_count']} cores)",
        file=out,
    )
    chaos = payload.get("chaos")
    if chaos:
        kinds = [w["kind"] for w in chaos["disruptions"]]
        run_p99 = chaos["disrupted_latency_s"].get("run") or {}
        print(
            f"  chaos: {len(kinds)} disruptions "
            f"({kinds.count('kill')} kill, "
            f"{kinds.count('resize')} resize); "
            f"{chaos['commands_disrupted']} commands overlapped one "
            f"({chaos['disrupted_errors']} errored)",
            file=out,
        )
        print(
            "  chaos: "
            f"migrations={chaos['sessions_migrated']} "
            f"failovers={chaos['request_failovers']} "
            f"worker-restarts={chaos['worker_restarts']} "
            f"sessions-dropped={chaos['sessions_dropped']}; "
            "disrupted run p99 "
            f"{(run_p99.get('p99') or 0.0) * 1e3:.1f} ms",
            file=out,
        )
        if chaos.get("controller_error"):
            print(
                "  chaos: controller error: "
                f"{chaos['controller_error']}",
                file=out,
            )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench loadtest",
        description="LiveSim server load test: latency histograms per "
                    "command class + CI p99 gate",
    )
    parser.add_argument("--sessions", type=int, default=64)
    parser.add_argument("--workers", type=int, default=4,
                        help="worker processes (0 = the one worker "
                             "on a thread of the server process)")
    parser.add_argument("--runs", type=int, default=3,
                        help="run/peek iterations per session")
    parser.add_argument("--run-cycles", type=int, default=200,
                        help="cycles per run command")
    parser.add_argument("--concurrency", type=int, default=16,
                        help="concurrent client threads")
    parser.add_argument("--chaos", action="store_true",
                        help="kill one worker and resize the pool "
                             "W->2W->W during the measured run; the "
                             "p99 gate then covers only commands that "
                             "never overlapped a disruption")
    parser.add_argument("--chaos-warmup", type=float, default=0.75,
                        help="seconds into the run before the first "
                             "disruption (default: 0.75)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the repro.bench.loadtest/v1 "
                             "artifact to PATH")
    parser.add_argument("--baseline", metavar="PATH",
                        help="gate per-class p99 latency against this "
                             "artifact")
    parser.add_argument("--max-regression", type=float, default=1.0,
                        help="allowed fractional p99 regression vs "
                             "--baseline (default: 1.0, i.e. 2x — "
                             "tail latency is noisy)")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    if args.sessions < 1 or args.concurrency < 1 or args.workers < 0:
        print("error: --sessions/--concurrency must be >= 1 and "
              "--workers >= 0", file=sys.stderr)
        return 2
    if args.chaos and args.workers < 1:
        print("error: --chaos needs worker processes "
              "(--workers >= 1)", file=sys.stderr)
        return 2

    config = LoadtestConfig(
        sessions=args.sessions,
        workers=args.workers,
        runs=args.runs,
        run_cycles=args.run_cycles,
        concurrency=args.concurrency,
        chaos=args.chaos,
        chaos_warmup=args.chaos_warmup,
    )
    payload = run_loadtest_payload(config)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"loadtest artifact written to {args.json}",
              file=sys.stderr)
    if not args.quiet:
        _print_summary(payload, out)

    if args.baseline:
        try:
            with open(args.baseline) as fh:
                baseline = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline: {exc}", file=sys.stderr)
            return 2
        failures = compare_to_baseline(
            payload, baseline, args.max_regression
        )
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        base_tput = baseline.get("commands_per_sec")
        if base_tput:
            print(
                "loadtest throughput (report-only): "
                f"{payload['commands_per_sec']:.1f} commands/sec vs "
                f"baseline {base_tput:.1f}",
                file=sys.stderr,
            )
        print(
            "loadtest p99 gate passed "
            f"(max allowed +{args.max_regression * 100:.0f}%)",
            file=sys.stderr,
        )
    elif payload["errors"]:
        print(f"error: {payload['errors']} session scripts failed",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
