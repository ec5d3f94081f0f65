"""Live trace over the wire: the watch/unwatch/trace/replay Table I
lines sent as ``cmd`` on the server in both hostings, value-change
streaming, backpressure accounting, and subscription survival across
hot reload, worker crash, and migration.

Each hosting is one module-scoped server; the migration and crash
tests need worker processes, and the crash tests run last so earlier
tests can rely on live workers.
"""

import io
import os
import time

import pytest

from repro.server.client import ServerError, run_lines
from repro.server.shard import SessionJournal
from tests.conftest import (
    COUNTER_SRC,
    connect,
    names_on_each_worker,
    worker_processes_only,
)

DOUBLED = COUNTER_SRC.replace("assign sum = a + b;",
                              "assign sum = a + b + b;")
RENAMED = COUNTER_SRC.replace("count_q", "cnt_q")


def _drain_changes(client, signal, until_cycle, timeout=30.0):
    """Collect streamed value-change samples for ``signal`` until one
    at-or-past ``until_cycle`` arrives (value_change events are
    batched; markers and drops ride along)."""
    seen = {}
    markers = []
    dropped = 0
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        remaining = max(deadline - time.monotonic(), 0.01)
        try:
            event = client.wait_event("value_change", timeout=remaining)
        except TimeoutError:
            break
        dropped = max(dropped, event.data.get("events_dropped", 0))
        for item in event.data["events"]:
            if "value" in item and item.get("signal") == signal:
                seen[item["cycle"]] = item["value"]
            elif "value" not in item:
                markers.append(item)
        if seen and max(seen) >= until_cycle:
            break
    return seen, markers, dropped


def _assert_streamed_matches_trace(client, session, seen):
    """Every streamed (cycle, value) must equal the post-hoc trace
    read (streamed events are change-only, so compare this direction)."""
    window = client.command(session, f"trace p0, c0, 0, {max(seen) + 1}")
    post = {cycle: value for cycle, value in window["samples"]}
    for cycle, value in seen.items():
        assert post[cycle] == value, f"cycle {cycle}: {value} != {post[cycle]}"


class TestTraceVerbs:
    def test_watch_streams_value_changes(self, client):
        client.open_session("s", COUNTER_SRC)
        client.command("s", "instPipe p0, stage2")
        info = client.command("s", "watch p0, c0")
        assert info["signal"] == "c0" and info["missing"] is False
        client.command("s", "run tb0, p0, 30")
        seen, _, _ = _drain_changes(client, "c0", until_cycle=29)
        assert len(seen) >= 27  # change-only: reset plateau is one
        _assert_streamed_matches_trace(client, "s", seen)

    def test_unwatch_stops_the_stream(self, client):
        client.open_session("s", COUNTER_SRC)
        client.command("s", "instPipe p0, stage2")
        client.command("s", "watch p0, c0")
        client.command("s", "run tb0, p0, 5")
        _drain_changes(client, "c0", until_cycle=4)
        assert client.command("s", "unwatch p0, c0")["removed"] is True
        client.events.clear()
        client.command("s", "run tb0, p0, 10")
        with pytest.raises(TimeoutError):
            client.wait_event("value_change", timeout=0.5)

    def test_trace_without_signal_returns_status(self, client):
        client.open_session("s", COUNTER_SRC)
        client.command("s", "instPipe p0, stage2")
        client.command("s", "watch p0, c0")
        client.command("s", "run tb0, p0, 10")
        status = client.command("s", "trace p0")
        assert status["probes"][0]["signal"] == "c0"
        assert status["probes"][0]["samples"] == 10

    def test_replay_bit_identical_over_socket(self, client):
        client.open_session("s", COUNTER_SRC)
        client.command("s", "instPipe p0, stage2")
        client.command("s", "watch p0, c0")
        client.command("s", "run tb0, p0, 40")
        live = client.command("s", "trace p0, c0, 10, 30")["samples"]
        replay = client.command("s", "replay p0, 10, 30, c0")
        assert replay["signals"]["c0"] == live

    def test_watch_survives_hot_reload(self, client):
        client.open_session("s", COUNTER_SRC)
        client.command("s", "instPipe p0, stage2")
        client.command("s", "watch p0, c0")
        client.command("s", "run tb0, p0, 20")
        _drain_changes(client, "c0", until_cycle=19)
        client.reload("s", DOUBLED)
        client.command("s", "run tb0, p0, 10")
        seen, _, _ = _drain_changes(client, "c0", until_cycle=29)
        assert max(seen) == 29
        _assert_streamed_matches_trace(client, "s", seen)

    def test_vanished_signal_marked_not_fatal(self, client):
        client.open_session("s", COUNTER_SRC)
        client.command("s", "instPipe p0, stage2")
        client.command("s", "watch p0, u0.count_q")
        client.command("s", "run tb0, p0, 10")
        _drain_changes(client, "u0.count_q", until_cycle=9)
        client.reload("s", RENAMED)
        client.command("s", "run tb0, p0, 5")
        _, markers, _ = _drain_changes(
            client, "u0.count_q", until_cycle=14, timeout=2.0
        )
        assert {"signal": "u0.count_q", "missing": True} in markers
        status = client.command("s", "trace p0")
        assert status["probes"][0]["missing"] is True

    def test_backpressure_reports_drops(self, client):
        client.open_session("s", COUNTER_SRC)
        client.command("s", "instPipe p0, stage2")
        client.command("s", "watch p0, c0", max_events=2)
        result = client.command("s", "run tb0, p0, 200")
        assert result["c0"] == 198  # sim never blocked on the queue
        seen, _, dropped = _drain_changes(
            client, "c0", until_cycle=199
        )
        assert dropped > 0
        _assert_streamed_matches_trace(client, "s", seen)
        stats = client.stats()
        assert stats["trace"]["events_dropped"] >= dropped

    def test_stats_exposes_trace_counters(self, client):
        client.open_session("s", COUNTER_SRC)
        client.command("s", "instPipe p0, stage2")
        client.command("s", "watch p0, c0")
        client.command("s", "run tb0, p0, 10")
        stats = client.stats()
        assert "events_dropped" in stats
        assert set(stats["trace"]) == {
            "cycles_dropped", "events_dropped",
        }
        assert "worker_stats" not in stats  # only with deep=true

    def test_wire_validation_errors(self, client):
        client.open_session("s", COUNTER_SRC)
        client.command("s", "instPipe p0, stage2")
        # Table I lines travel as ``cmd`` only: there is no second
        # route for the trace lines.
        for verb in ("watch", "unwatch", "trace", "replay"):
            with pytest.raises(ServerError,
                               match="unknown server command") as caught:
                client.request(verb, session="s", pipe="p0", signal="c0")
            assert caught.value.kind == "protocol"
        # A malformed line is the interpreter's error.
        for line in ("watch p0", "watch p0, bad, name", "trace p0, c0, -1"):
            with pytest.raises(ServerError) as caught:
                client.command("s", line)
            assert caught.value.kind == "command"

    def test_repl_lines_route_trace_verbs(self, client, capsys):
        client.open_session("s", COUNTER_SRC)
        import sys
        run_lines(client, "s", [
            "instPipe p0, stage2",
            "watch p0, c0",
            "run tb0, p0, 12",
            "trace p0, c0, 0, 5",
            "replay p0, 2, 8, c0",
            "unwatch p0, c0",
        ], sys.stdout)
        out = capsys.readouterr().out
        assert "'signal': 'c0'" in out
        assert "'removed': True" in out


@worker_processes_only
class TestTraceAcrossWorkers:
    def test_events_only_reach_the_arming_client(self, server):
        with connect(server) as armed, connect(server) as other:
            armed.open_session("rt", COUNTER_SRC)
            armed.command("rt", "instPipe p0, stage2")
            armed.command("rt", "watch p0, c0")
            armed.command("rt", "run tb0, p0, 10")
            seen, _, _ = _drain_changes(armed, "c0", until_cycle=9)
            assert seen
            with pytest.raises(TimeoutError):
                other.wait_event("value_change", timeout=0.5)
            armed.close_session("rt")

    # A watch is armed by a ``cmd`` whose line is ``watch``, sent from
    # the API or typed at the console; both must re-arm after a move.
    ARMING = {
        "api": lambda client, session: client.command(session,
                                                      "watch p0, c0"),
        "console": lambda client, session: run_lines(
            client, session, ["watch p0, c0"], io.StringIO()),
    }

    def _watch_survives_migration(self, server, arming):
        first, _ = names_on_each_worker("mig-" + arming)
        with connect(server) as client:
            client.open_session(first, COUNTER_SRC)
            client.command(first, "instPipe p0, stage2")
            self.ARMING[arming](client, first)
            client.command(first, "run tb0, p0, 20")
            _drain_changes(client, "c0", until_cycle=19)

            moved = client.migrate(first, 1)
            assert moved["worker"] == 1
            client.events.clear()
            client.command(first, "run tb0, p0, 10")
            seen, _, _ = _drain_changes(client, "c0", until_cycle=29)
            assert seen and min(seen) >= 20 and max(seen) == 29
            _assert_streamed_matches_trace(client, first, seen)
            client.close_session(first)

    def test_watch_survives_migration(self, server):
        self._watch_survives_migration(server, "api")

    def test_cmd_watch_survives_migration(self, server):
        self._watch_survives_migration(server, "console")

    def test_moves_journal_the_watch_once(self, server):
        # A re-arm after a move subscribes; it is not the ``watch``
        # line again, so the journal keeps the one line the user sent.
        first, _ = names_on_each_worker("journal")
        with connect(server) as client:
            client.open_session(first, COUNTER_SRC)
            client.command(first, "instPipe p0, stage2")
            client.command(first, "watch p0, c0")
            client.command(first, "run tb0, p0, 5")
            _drain_changes(client, "c0", until_cycle=4)
            for worker in (1, 0):
                assert client.migrate(first, worker)["migrated"] is True
            ops = SessionJournal(server.state_root, first).ops()
            assert [op.get("line") for op in ops
                    if op["op"] == "line"] == [
                "instPipe p0, stage2", "watch p0, c0",
            ]
            client.events.clear()
            client.command(first, "run tb0, p0, 10")
            seen, _, _ = _drain_changes(client, "c0", until_cycle=14)
            assert seen and min(seen) >= 5 and max(seen) == 14
            _assert_streamed_matches_trace(client, first, seen)
            client.close_session(first)

    def _watch_survives_crash_rehydration(self, server, arming):
        # SIGKILL the session's worker: the journaled watch re-arms on
        # the restarted worker and streaming resumes with no gap
        # (these tests run last — they restart a worker).
        first, _ = names_on_each_worker("crash-" + arming)
        with connect(server) as client:
            client.open_session(first, COUNTER_SRC)
            client.command(first, "instPipe p0, stage2")
            self.ARMING[arming](client, first)
            client.command(first, "run tb0, p0, 20")
            client.command(first, "chkp p0")
            _drain_changes(client, "c0", until_cycle=19)

            stats = client.stats()
            by_id = {w["id"]: w for w in stats["workers"]}
            os.kill(by_id[0]["pid"], 9)

            client.events.clear()
            result = client.command(first, "run tb0, p0, 10")
            assert result["c0"] == 28
            seen, _, _ = _drain_changes(client, "c0", until_cycle=29)
            assert seen and min(seen) >= 20 and max(seen) == 29
            _assert_streamed_matches_trace(client, first, seen)
            replay = client.command(first, "replay p0, 20, 30, c0")
            post = {c: v for c, v in replay["signals"]["c0"]}
            for cycle, value in seen.items():
                assert post[cycle] == value
            ops = SessionJournal(server.state_root, first).ops()
            assert sum(op.get("line") == "watch p0, c0" for op in ops) == 1
            client.close_session(first)

    def test_watch_survives_crash_rehydration(self, server):
        self._watch_survives_crash_rehydration(server, "api")

    def test_cmd_watch_survives_crash_rehydration(self, server):
        self._watch_survives_crash_rehydration(server, "console")
