"""Driver of the server workloads: ``python -m repro.server`` as a
subprocess, driven over sockets by a closed loop of client threads.

Each client owns a fixed share of the sessions and sends its next
request only after the previous reply arrived (interactive users wait
for each reply).  Every reply is checked against the closed form of
the counter design, so a wrong simulation state is a failed command.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import subprocess
import sys
import threading
from time import perf_counter
from typing import Dict, List, Optional

from . import metrics
from .workloads import (
    COUNTER_DESIGN,
    COUNTER_EDIT_TARGETS,
    COUNTER_TOP,
    RESET_CYCLES,
    WARMUP_CMDS,
    EditGenerator,
    Workload,
    counter_outputs,
)

PIPE = "p0"
READ_TIMEOUT_S = 60.0
SRC_DIR = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
)


class _Client:
    """One connection, its sessions and its samples."""

    def __init__(self, run: "ServerRun", index: int):
        from repro.server.client import LiveSimClient

        w = self.workload = run.workload
        self.run = run
        self.index = index
        self.conn = LiveSimClient(
            "127.0.0.1", run.port, read_timeout=READ_TIMEOUT_S
        )
        self.sessions = [
            f"s{i}" for i in range(w.sessions) if i % w.clients == index
        ]
        self.cycle = {name: 0 for name in self.sessions}
        self.edits = {
            name: EditGenerator(
                COUNTER_DESIGN, COUNTER_EDIT_TARGETS, w.edit_block,
                run.seed * 7919 + int(name[1:]), stream=int(name[1:]),
            )
            for name in self.sessions
        }
        self.rng = random.Random(run.seed * 104_729 + index)
        self.tb = ""
        self.chunk_s: List[float] = []
        self.run_s: List[float] = []
        self.peek_s: List[float] = []
        self.reload_s: List[float] = []
        # Module each timed reload edited.
        self.reload_modules: List[str] = []
        self.reports: List[Dict] = []
        self.cmd_wall_s = 0.0
        self.cmds = 0
        self.attempted = 0
        # Summed round trip of the requests of the measured loop.
        self.rtt_s = 0.0
        self.failures: List[str] = []

    def open_sessions(self) -> None:
        for name in self.sessions:
            info = self.conn.open_session(
                name, COUNTER_DESIGN, reset_cycles=RESET_CYCLES
            )
            self.tb = info["tb"]
            self.conn.command(
                name, f"instPipe {PIPE}, {info['handles'][COUNTER_TOP]}"
            )

    # -- one request ---------------------------------------------------------

    def _request(self, what: str, fn, *args):
        """Send one request; returns (seconds, value).  An errored or
        timed-out request is a failure and counts as the slowest
        possible sample."""
        from repro.server.client import ServerError

        self.attempted += 1
        started = perf_counter()
        try:
            value = fn(*args)
        except (ServerError, ConnectionError, OSError) as exc:
            self.failures.append(f"{what} failed: {exc}")
            self.rtt_s += READ_TIMEOUT_S
            return READ_TIMEOUT_S, None
        seconds = perf_counter() - started
        self.rtt_s += seconds
        return seconds, value

    def run_cmd(self, name: str, cycles: int) -> float:
        seconds, value = self._request(
            "run", self.conn.command, name,
            f"run {self.tb}, {PIPE}, {cycles}",
        )
        if value is not None:
            self.cycle[name] += cycles
            self._check_outputs(name, value)
        return seconds

    def peek_cmd(self, name: str) -> float:
        seconds, value = self._request(
            "peek", self.conn.command, name, f"peek {PIPE}"
        )
        if value is not None:
            self._check_outputs(name, value)
        return seconds

    def reload(self, name: str, timed: bool = True) -> None:
        edits = self.edits[name]
        edit = edits.next() if timed else edits.warmup()
        seconds, value = self._request(
            "reload", self.conn.reload, name, edit.source
        )
        if value is None:
            return
        if not value.get("recompiled_keys"):
            self.failures.append("fresh reload recompiled nothing")
        if timed:
            self.reload_s.append(seconds)
            self.reload_modules.append(edit.module)
            self.reports.append(value)

    def _check_outputs(self, name: str, outputs: Dict[str, int]) -> None:
        if outputs != counter_outputs(self.cycle[name]):
            self.failures.append(
                f"{name} at cycle {self.cycle[name]}: outputs {outputs}"
            )

    # -- the loop ------------------------------------------------------------

    def drive(self) -> None:
        """Sessions take turns in the warm-up and for the chunks, and a
        burst holds equally many ``run`` and ``peek`` lines for each
        session, so a session's cycle count at each reload -- and with
        it the distance the reload replays -- is the same at every
        seed; the seed decides the order inside a burst."""
        w, sessions = self.workload, self.sessions
        for name in sessions:
            # Past the server's reload distance (10 000 cycles), so
            # every reload replays that distance.
            self.run_cmd(name, 6 * w.chunk_cycles)
        for i in range(WARMUP_CMDS):
            self.run_cmd(sessions[i % len(sessions)], w.step_cycles)
        for i in range(w.warmup_edits):
            self.reload(sessions[i % len(sessions)], timed=False)
        self.rtt_s = 0.0

        # Everyone starts the measured loop together, once the server's
        # own request times up to here are on record.
        self.run.barrier.wait()
        self.run.barrier.wait()
        per_kind = w.cmds_per_edit // (2 * len(sessions))
        burst = [
            (kind, name) for name in sessions
            for kind in ("run", "peek") for _ in range(per_kind)
        ]
        for edit in range(w.edits):
            for i in range(w.chunks_per_edit):
                name = sessions[(edit + i) % len(sessions)]
                self.chunk_s.append(self.run_cmd(name, w.chunk_cycles))
            self.rng.shuffle(burst)
            started = perf_counter()
            for kind, name in burst:
                if kind == "peek":
                    self.peek_s.append(self.peek_cmd(name))
                else:
                    self.run_s.append(self.run_cmd(name, w.step_cycles))
            self.cmd_wall_s += perf_counter() - started
            self.cmds += len(burst)
            self.reload(sessions[edit % len(sessions)])


class ServerRun:
    def __init__(self, workload: Workload, seed: int, work_dir: str):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.failures: List[str] = []
        self.attempted = 0
        self.server: Optional[subprocess.Popen] = None
        self.control = None
        self.clients: List[_Client] = []
        self.barrier = threading.Barrier(workload.clients + 1)

    # -- setup ---------------------------------------------------------------

    def setup(self) -> None:
        from repro.server.client import LiveSimClient

        w = self.workload
        # One core for the clients, the server and its workers (they
        # inherit it).  A command is a chain of wake-ups between them;
        # across the two virtual cores of the reference box each one
        # costs an inter-processor interrupt whose price varies
        # several-fold with the host, on one core it is a context
        # switch.  What is measured is the CPU work of the chain.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        os.makedirs(self.work_dir, exist_ok=True)
        self.state_dir = os.path.join(self.work_dir, "state")
        env = dict(os.environ, PYTHONPATH=SRC_DIR, PYTHONHASHSEED="0")
        self._stderr = open(os.path.join(self.work_dir, "server.err"), "w")
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.server", "--port", "0",
                "--workers", str(w.workers),
                "--store", os.path.join(self.work_dir, "store"),
                "--state-dir", self.state_dir,
                "--checkpoint-interval", str(w.interval),
            ],
            stdout=subprocess.PIPE, stderr=self._stderr, env=env, text=True,
        )
        line = self.server.stdout.readline()
        match = re.search(r"listening on [^:]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"server did not announce a port: {line!r}")
        self.port = int(match.group(1))
        # The main thread's own connection (``stats``, ``shutdown``).
        self.control = LiveSimClient(
            "127.0.0.1", self.port, read_timeout=READ_TIMEOUT_S
        )
        self.clients = [_Client(self, i) for i in range(w.clients)]
        for client in self.clients:
            client.open_sessions()

    def close(self) -> None:
        """Stop the server and every process it started, and wait."""
        for client in self.clients:
            client.conn.close()
        if self.control is not None:
            if self.server.poll() is None:
                try:
                    self.control.shutdown_server()
                    self.server.wait(timeout=15)
                except (OSError, subprocess.TimeoutExpired):
                    pass
            self.control.close()
        if self.server is not None and self.server.poll() is None:
            for pid in process_tree(self.server.pid)[::-1]:
                try:
                    os.kill(pid, 9)
                except ProcessLookupError:
                    pass
            self.server.wait()
        if self.server is not None:
            self.server.stdout.close()
            self._stderr.close()
        shutil.rmtree(self.work_dir, ignore_errors=True)

    # -- measurement ---------------------------------------------------------

    def measure(self) -> None:
        threads = [
            threading.Thread(target=self._client_main, args=(client,),
                             name=f"livebench-client-{client.index}")
            for client in self.clients
        ]
        for thread in threads:
            thread.start()
        self.barrier.wait()
        before = request_seconds(self.control.stats())
        self.barrier.wait()
        for thread in threads:
            thread.join()
        self.stats = self.control.stats()
        self.server_request_s = request_seconds(self.stats) - before
        self.server_rss_mb = sum(
            peak_rss_mb(pid) for pid in process_tree(self.server.pid)
        )
        self.journal_bytes = dir_bytes(self.state_dir)
        for client in self.clients:
            self.attempted += client.attempted
            self.failures.extend(client.failures)

    def _client_main(self, client: _Client) -> None:
        try:
            client.drive()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            self.failures.append(f"client {client.index} died: {exc!r}")
            self.barrier.abort()
            raise

    def check(self) -> Dict[str, object]:
        """Final outputs of every session against the closed form."""
        final = {}
        for client in self.clients:
            for name in client.sessions:
                self.attempted += 1
                outputs = client.conn.command(name, f"peek {PIPE}")
                if outputs != counter_outputs(client.cycle[name]):
                    self.failures.append(f"{name}: final outputs {outputs}")
                final[name] = {"cycle": client.cycle[name], **outputs}
        return {"final": final}

    # -- results -------------------------------------------------------------

    def _all(self, attr: str) -> List:
        return [x for client in self.clients for x in getattr(client, attr)]

    def exact_counts(self) -> Dict[str, int]:
        reports = self._all("reports")
        return {
            "live.replay.cycles.n": sum(
                r["cycles_replayed"] for r in reports
            ),
            "live.compile.recompiled.n": sum(
                len(r["recompiled_keys"]) for r in reports
            ),
            "live.compile.reused.n": sum(
                len(r["reused_keys"]) for r in reports
            ),
            "live.swap.instances.n": sum(
                r["swapped_instances"] for r in reports
            ),
            "cmds.run.n": len(self._all("run_s")),
            "cmds.peek.n": len(self._all("peek_s")),
        }

    def host_probe_s(self) -> float:
        """Median probe of the host after the measured loop (nothing
        probes it while the clients run: they share one core with the
        server)."""
        host = metrics.HostProbe()
        for _ in range(16):
            host()
        return host.median_s()

    def end_to_end(self) -> Dict[str, float]:
        by_module: Dict[str, List[float]] = {}
        for module, seconds in zip(self._all("reload_modules"),
                                   self._all("reload_s")):
            by_module.setdefault(module, []).append(seconds)
        return {
            "sim_hz": self.workload.chunk_cycles / metrics.undisturbed(
                {"chunk": self._all("chunk_s")}
            ),
            "erd_s": metrics.undisturbed(by_module),
            "cmd_s": metrics.undisturbed(
                {"run": self._all("run_s"), "peek": self._all("peek_s")}
            ),
        }

    def per_layer(self) -> Dict[str, float]:
        out = {
            name: 0.0
            for name in (*metrics.PER_LAYER, *metrics.SERVER_PER_LAYER)
        }
        reports = self._all("reports")
        out["phase.run.s"] = sum(self._all("chunk_s"))
        out["phase.cmd.s"] = sum(c.cmd_wall_s for c in self.clients)
        out["phase.edit.s"] = sum(self._all("reload_s"))
        # Clients run side by side: their rates add.
        out["cmd.per_s"] = sum(c.cmds / c.cmd_wall_s for c in self.clients)
        cmd_s = self._all("run_s") + self._all("peek_s")
        out["cmd.p50_s"] = metrics.median(cmd_s)
        out["cmd.p99_s"] = metrics.percentile(cmd_s, 99)
        out["sim.chunk.p50_hz"] = self.workload.chunk_cycles / metrics.median(
            self._all("chunk_s")
        )
        # What the reload reply (an ERDReport) says about the edit path.
        for field, name in (
            ("parse_seconds", "live.update_source.s"),
            ("compile_seconds", "live.compile_top.s"),
            ("swap_seconds", "live.swap.s"),
            ("reload_seconds", "live.reload.s"),
            ("replay_seconds", "live.replay.s"),
            ("replay_seconds", "live.replay.wall.s"),
            ("analyze_seconds", "analyze.run.s"),
        ):
            out[name] = sum(r[field] for r in reports)
        out["analyze.analyzed.n"] = sum(len(r["analyzed_keys"]) for r in reports)
        out["analyze.reused.n"] = sum(
            len(r["analysis_reused_keys"]) for r in reports
        )
        for name, value in self.exact_counts().items():
            if name in out:
                out[name] = value
        compiled = (
            out["live.compile.recompiled.n"] + out["live.compile.reused.n"]
        )
        if compiled:
            out["live.compile.reuse_ratio"] = (
                out["live.compile.reused.n"] / compiled
            )
        reload_s = self._all("reload_s")
        out["live.edit.fresh.p50_s"] = metrics.median(reload_s)
        out["live.edit.p50_s"] = metrics.median(reload_s)
        out["live.edit.p95_s"] = metrics.percentile(reload_s, 95)
        client_rtt = sum(c.rtt_s for c in self.clients)
        out["server.client_rtt.s"] = client_rtt
        out["server.request.s"] = self.server_request_s
        out["server.hop.s"] = client_rtt - self.server_request_s
        out["server.run.p50_s"] = metrics.median(self._all("run_s"))
        out["server.peek.p50_s"] = metrics.median(self._all("peek_s"))
        out["server.errors.n"] = len(self.failures)
        out["server.journal.bytes"] = self.journal_bytes
        out["server.store.artifacts.n"] = self.stats["store"]["artifacts"]
        # Nothing is wrapped: the client times every request in both
        # modes and the server reports its own time through ``stats``.
        out["trace_overhead_ratio"] = 1.0
        return out


def request_seconds(stats: Dict) -> float:
    """Summed handling time of every request so far, as the server
    itself measured it."""
    return stats["metrics"]["histograms"]["server.request_seconds"]["sum"]


# -- /proc helpers -----------------------------------------------------------


def process_tree(root: int) -> List[int]:
    """``root`` and its live descendants, parents first."""
    parent_of = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # pid (comm) state ppid ...; comm may hold spaces and parens.
        parent_of[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree = [root]
    for pid in tree:
        tree.extend(p for p, parent in parent_of.items() if parent == pid)
    return tree


def peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total
