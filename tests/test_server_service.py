"""LiveSim server tests: a worker's session registry, socket end-to-end on both
hostings (worker on a thread / worker processes), idle eviction, the
acceptance-criteria concurrency and warm-restart scenarios."""

import threading
import time

import pytest

from repro import obs
from repro.server import protocol
from repro.server.client import ServerError
from repro.server.service import (
    DuplicateSessionError,
    UnknownSessionError,
    summarize,
)
from repro.server.shard import SessionWorker, WorkerConfig
from tests.conftest import COUNTER_SRC, connect, running_server

EDITED_SRC = COUNTER_SRC.replace("assign sum = a + b;",
                                 "assign sum = a - b;")

# A 1 024-word memory written only while reset is asserted.
MEMORY_SRC = """
module top (input clk, input rst, output [7:0] q);
  reg [9:0] ptr;
  reg [7:0] m [0:1023];
  assign q = m[ptr];
  always @(posedge clk) begin
    ptr <= ptr + 10'd1;
    if (rst)
      m[ptr] <= 8'd1;
  end
endmodule
"""


HOSTINGS = pytest.mark.parametrize(
    "workers", [0, 1], ids=["thread", "process"]
)


def _livesim_threads():
    return [
        t for t in threading.enumerate()
        if t.is_alive() and t.name.startswith("livesim-")
    ]


def _wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and not condition():
        time.sleep(0.05)
    return condition()


class _Pipe:
    """The worker's end of the pipe: what it sends is kept."""

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


@pytest.fixture
def worker():
    worker = SessionWorker(_Pipe(), WorkerConfig(worker_id=0))
    yield worker
    for entry in worker._cmd_describe(0, {}):
        worker._cmd_close(0, {"session": entry["session"]})


def _open(worker, name, **params):
    return worker._cmd_open(
        0, {"session": name, "source": COUNTER_SRC, **params}
    )


def _cmd(worker, name, line):
    return worker._cmd_cmd(0, {"session": name, "line": line})


class TestSessionRegistry:
    def test_open_returns_handles_and_tb(self, worker):
        info = _open(worker, "alice")
        assert info["session"] == "alice"
        assert info["modules"] == ["adder", "counter", "top"]
        assert info["handles"] == {
            "adder": "stage0", "counter": "stage1", "top": "stage2",
        }
        assert info["tb"] == "tb0"
        assert worker._cmd_stats(0, {})["session_names"] == ["alice"]

    def test_duplicate_name_rejected(self, worker):
        _open(worker, "alice")
        with pytest.raises(DuplicateSessionError, match="alice"):
            _open(worker, "alice")
        with pytest.raises(DuplicateSessionError, match="non-empty"):
            _open(worker, "")
        assert worker._cmd_stats(0, {})["session_names"] == ["alice"]

    def test_unknown_session(self, worker):
        with pytest.raises(UnknownSessionError, match="ghost"):
            _cmd(worker, "ghost", "peek p0")
        with pytest.raises(UnknownSessionError, match="ghost"):
            worker._cmd_close(0, {"session": "ghost"})

    def test_negative_reset_cycles_skips_testbench(self, worker):
        assert _open(worker, "bare", reset_cycles=-1)["tb"] is None

    def test_close_frees_the_name(self, worker):
        _open(worker, "alice")
        assert worker._cmd_close(0, {"session": "alice"}) == {
            "closed": "alice"
        }
        assert worker._cmd_stats(0, {})["sessions"] == 0
        _open(worker, "alice")  # name reusable

    def test_describe(self, worker):
        _open(worker, "alice")
        _cmd(worker, "alice", "instPipe p0, stage2")
        (entry,) = worker._cmd_describe(0, {})
        assert entry["session"] == "alice"
        assert entry["pipes"] == ["p0"]
        assert entry["commands"] == 1
        assert entry["modules"] == 3
        assert entry["worker"] == 0


class TestSummarize:
    def test_pipe_summary(self, worker):
        _open(worker, "alice")
        _cmd(worker, "alice", "instPipe p0, stage2")
        result = _cmd(worker, "alice", "run tb0, p0, 10")
        out = summarize(worker._get("alice").session.pipe("p0"))
        assert out["_type"] == "Pipe"
        assert out["cycle"] == 10
        assert out["outputs"]["c0"] == 8  # 10 cycles - 2 reset
        assert result["c0"] == 8

    def test_plain_values_pass_through(self):
        assert summarize({"c0": 5}) == {"c0": 5}
        assert summarize([1, "a"]) == [1, "a"]
        assert summarize(None) is None


class TestSocketEndToEnd:
    def test_ping(self, server, client):
        assert client.ping() == {
            "pong": True,
            "protocol": protocol.PROTOCOL_VERSION,
            "sharded": not server._thread_hosted,
            "workers": server.num_workers,
        }

    def test_full_session_flow(self, client):
        info = client.open_session("alice", COUNTER_SRC)
        assert info["handles"]["top"] == "stage2"
        client.command("alice", "instPipe p0, stage2")
        result = client.command("alice", "run tb0, p0, 100")
        assert result["c0"] == 98
        peek = client.command("alice", "peek p0")
        assert peek["c0"] == 98
        cp = client.command("alice", "chkp p0")
        assert cp["_type"] == "Checkpoint"
        assert cp["cycle"] == 100
        assert client.close_session("alice") == {"closed": "alice"}

    def test_hot_reload_over_the_wire(self, client):
        client.open_session("alice", COUNTER_SRC)
        client.command("alice", "instPipe p0, stage2")
        client.command("alice", "run tb0, p0, 40")
        report = client.reload("alice", EDITED_SRC)
        assert report["_type"] == "ERDReport"
        assert report["behavioral"] is True
        assert report["recompiled_keys"] == ["adder#(W=8)"]
        assert report["pipes_updated"] == ["p0"]
        # Replay re-executes history under the *new* semantics:
        # with "a - b" the counter steps -1 per cycle, so 38 live
        # cycles land at -38 mod 256.
        peek = client.command("alice", "peek p0")
        assert peek["c0"] == 256 - 38

    def test_error_kinds(self, client):
        with pytest.raises(ServerError) as err:
            client.command("nope", "peek p0")
        assert err.value.kind == "unknown-session"
        client.open_session("alice", COUNTER_SRC)
        with pytest.raises(ServerError) as err:
            client.open_session("alice", COUNTER_SRC)
        assert err.value.kind == "duplicate-session"
        with pytest.raises(ServerError) as err:
            client.command("alice", "teleport p0")
        assert err.value.kind == "command"
        with pytest.raises(ServerError) as err:
            client.command("alice", "ldLib x, /no/such/lib.v")
        assert err.value.kind == "command"
        assert "/no/such/lib.v" in err.value.message
        with pytest.raises(ServerError) as err:
            client.request("frobnicate")
        assert err.value.kind == "protocol"
        with pytest.raises(ServerError, match="'reset_cycles' must be"):
            client.open_session("bad", COUNTER_SRC, reset_cycles="2")
        # The connection and the session survived every error.
        assert client.ping()["pong"] is True
        client.command("alice", "instPipe p0, stage2")

    def test_malformed_line_gets_error_not_disconnect(self, client):
        client._sock.sendall(b"this is not json\n")
        message = client._read_message()
        assert not message.ok
        assert message.error["type"] == "protocol"
        assert client.ping()["pong"] is True

    def test_sessions_and_stats(self, client):
        client.open_session("alice", COUNTER_SRC)
        client.open_session("bob", COUNTER_SRC)
        listing = client.sessions()
        assert sorted(s["session"] for s in listing) == ["alice", "bob"]
        stats = client.stats()
        assert stats["sessions"] == 2
        assert stats["metrics"]["counters"]["server.requests"] >= 3
        assert "server.request_seconds" in stats["metrics"]["histograms"]
        client.close_session("bob")
        assert client.stats()["sessions"] == 1

    def test_stats_report_what_checkpoints_hold(self, client):
        info = client.open_session("alice", MEMORY_SRC)
        client.command("alice", f"instPipe p0, {info['handles']['top']}")
        for _ in range(3):
            client.command("alice", "run tb0, p0, 5")
            client.command("alice", "chkp p0")
        held = client.stats()["checkpoints"]
        assert held["count"] == 3
        # The memory is idle after reset: the last two checkpoints hold
        # its pages by reference.
        assert held["resident_bytes"] == held["bytes"] - 2 * 8 * 1024

    def test_one_request_is_one_sample(self, client):
        """N commands add exactly N to ``server.requests`` and its
        histograms, also when the worker shares the frontend's
        registry; pass-cache counters reach ``stats`` either way."""
        client.open_session("alice", COUNTER_SRC)
        client.command("alice", "instPipe p0, stage2")
        client.command("alice", "opt full")
        before = client.stats()
        for _ in range(20):
            client.command("alice", "peek p0")
        after = client.stats()

        def samples(stats, name):
            return stats["metrics"]["histograms"][name]["count"]

        def grew(name):
            return samples(after, name) - samples(before, name)

        # 20 commands plus the second ``stats`` itself.
        assert (after["metrics"]["counters"]["server.requests"]
                - before["metrics"]["counters"]["server.requests"]) == 21
        assert grew("server.request_seconds") == 21
        assert grew("server.cmd.cmd.seconds") == 20
        assert after["passes"]["constprop"]["misses"] >= 3
        assert set(after["passes"]["constprop"]) == {"hits", "misses"}

    def test_verify_events_stream_to_the_client(self, client):
        client.open_session("alice", COUNTER_SRC)
        client.command("alice", "instPipe p0, stage2")
        client.command("alice", "run tb0, p0, 60")
        status = client.command("alice", "verify p0")
        assert status["state"] in ("running", "consistent")
        final = client.wait_event(
            "verify_status",
            predicate=lambda e: e.data["state"] != "running",
            timeout=30.0,
        )
        assert final.session == "alice"
        assert final.data["pipe"] == "p0"
        assert final.data["state"] == "consistent"
        report = client.command("alice", "verifyWait p0")
        assert report["all_consistent"] is True

    def test_two_clients_distinct_sessions_progress_concurrently(
        self, server, client
    ):
        """Acceptance criterion: one client mid-``run`` must not block
        another session's hot reload — locks are per-session."""
        alice = client
        with connect(server) as bob:
            alice.open_session("alice", COUNTER_SRC)
            alice.command("alice", "instPipe p0, stage2")
            bob.open_session("bob", COUNTER_SRC)
            bob.command("bob", "instPipe p0, stage2")
            bob.command("bob", "run tb0, p0, 50")

            run_result = {}

            def long_run():
                run_result["value"] = alice.command(
                    "alice", "run tb0, p0, 300000"
                )

            runner = threading.Thread(target=long_run, daemon=True)
            runner.start()
            assert _wait_until(
                lambda: server._sessions["alice"].inflight
            ), (
                "alice's run never started"
            )
            # With alice mid-run, bob hot-reloads — and completes.
            report = bob.reload("bob", EDITED_SRC)
            assert report["behavioral"] is True
            assert runner.is_alive(), (
                "alice's run finished before bob's reload — "
                "no overlap was exercised"
            )
            # Bob's pipe replayed under "a - b": -48 mod 256.
            assert bob.command("bob", "peek p0")["c0"] == 256 - 48
            runner.join(60.0)
            assert run_result["value"]["c0"] == (300000 - 2) % 256


class TestServerLifecycle:
    @HOSTINGS
    def test_shutdown_command_stops_everything(self, tmp_path, workers):
        others = set(_livesim_threads())  # the module's shared server
        with running_server(tmp_path, workers) as srv:
            with connect(srv) as client:
                client.open_session("alice", COUNTER_SRC)
                ack = client.shutdown_server()
                assert ack == {"stopping": True, "sessions": 1}
            assert _wait_until(
                lambda: set(_livesim_threads()) <= others
            )
            assert all(
                not worker.process.is_alive()
                for worker in srv._workers.values()
            )
            # A second shutdown is an idempotent no-op.
            srv.shutdown()

    def test_warm_server_restart_hits_the_store(self, tmp_path):
        """Acceptance criterion: a restarted server compiling the same
        design takes every module from the on-disk store — zero
        codegen, ``compile.store_hits > 0``.  (Thread-hosted, so the
        worker's counters are this process's.)"""
        with running_server(tmp_path, 0) as srv1, connect(srv1) as client:
            client.open_session("cold", COUNTER_SRC)
            client.command("cold", "instPipe p0, stage2")
            assert client.command("cold", "run tb0, p0, 10")["c0"] == 8
            assert client.stats()["store"]["artifacts"] == 3

        metrics = obs.get_metrics()
        compiled = metrics.counter("codegen.modules_compiled")
        hits = metrics.counter("compile.store_hits")

        with running_server(tmp_path, 0) as srv2, connect(srv2) as client:
            client.open_session("warm", COUNTER_SRC)
            client.command("warm", "instPipe p0, stage2")
            # Rehydrated modules simulate identically.
            assert client.command("warm", "run tb0, p0, 10")["c0"] == 8
            stats = client.stats()

        assert metrics.counter("compile.store_hits") == hits + 3
        assert metrics.counter("codegen.modules_compiled") == compiled
        assert stats["store"]["artifacts"] == 3

    def test_store_shared_across_sessions_in_one_server(self, tmp_path):
        metrics = obs.get_metrics()
        with running_server(tmp_path, 0) as srv, connect(srv) as client:
            client.open_session("first", COUNTER_SRC)
            # Compilation is lazy: instPipe triggers it (and the
            # write-behind to the shared store).
            client.command("first", "instPipe p0, stage2")
            compiled = metrics.counter("codegen.modules_compiled")
            hits = metrics.counter("compile.store_hits")
            # The second session's in-process cache is empty; all
            # three modules come from the shared disk store.
            client.open_session("second", COUNTER_SRC)
            client.command("second", "instPipe p0, stage2")
            assert metrics.counter("compile.store_hits") == hits + 3
            assert metrics.counter("codegen.modules_compiled") == compiled


@HOSTINGS
class TestIdleEviction:
    def test_reaper_evicts_on_the_wire(self, tmp_path, workers):
        with running_server(tmp_path, workers, idle_timeout=0.2) as srv:
            with connect(srv) as client:
                client.open_session("ephemeral", COUNTER_SRC)
                assert _wait_until(lambda: not srv._sessions)
                assert client.sessions() == []
                with pytest.raises(ServerError) as err:
                    client.command("ephemeral", "peek p0")
                assert err.value.kind == "unknown-session"

    def test_evict_never_reaps_mid_command(self, tmp_path, workers):
        with running_server(tmp_path, workers, idle_timeout=0.2) as srv:
            with connect(srv) as client, connect(srv) as other:
                client.open_session("alice", COUNTER_SRC)
                client.command("alice", "instPipe p0, stage2")
                result = {}
                runner = threading.Thread(
                    target=lambda: result.update(client.command(
                        "alice", "run tb0, p0, 500000"
                    )),
                    daemon=True,
                )
                runner.start()
                assert _wait_until(lambda: srv._sessions["alice"].inflight)
                # Idle by the clock for several timeouts, but a command
                # is in flight: not evicted.
                time.sleep(0.6)
                assert runner.is_alive(), "the run ended too early to tell"
                assert [s["session"] for s in other.sessions()] == ["alice"]
                runner.join(60.0)
                assert result["c0"] == (500000 - 2) % 256
                # Once it has finished and idled, it goes.
                assert _wait_until(lambda: not srv._sessions)
