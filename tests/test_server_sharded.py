"""End-to-end tests for what only worker *processes* can show: session
placement, crash rehydration, live resize/migration, and per-client
event routing across a worker restart.  (Everything a thread-hosted
worker does too is in test_server_service.py / test_trace_server.py,
on both hostings.)

One module-scoped server (2 worker processes) serves every test —
spawning workers is the expensive part.  Resize tests return the pool
to its original size, and the crash test runs last so earlier tests
can assert zero restarts.
"""

import os
import threading

import pytest

from repro.server.client import ServerError
from repro.server.shard import HashRing
from tests.conftest import (
    COUNTER_SRC,
    connect,
    names_on_each_worker,
    running_server,
    worker_processes_only,
)

WORKERS = 2


@worker_processes_only
class TestShardedBasics:
    def test_ping_reports_sharding(self, server):
        with connect(server) as client:
            pong = client.ping()
            assert pong["pong"] is True
            assert pong["sharded"] is True
            assert pong["workers"] == WORKERS
            assert server.num_workers == WORKERS

    def test_sessions_spread_across_workers(self, server):
        first, second = names_on_each_worker("spread")
        with connect(server) as client:
            client.open_session(first, COUNTER_SRC)
            client.open_session(second, COUNTER_SRC)
            stats = client.stats()
            by_id = {w["id"]: w for w in stats["workers"]}
            assert by_id[0]["sessions"] >= 1
            assert by_id[1]["sessions"] >= 1
            listed = {s["session"] for s in client.sessions()}
            assert {first, second} <= listed
            client.close_session(first)
            client.close_session(second)


@worker_processes_only
class TestShardedResize:
    # Runs after the basics; returns the pool to WORKERS so the crash
    # test's restart accounting still holds.

    def test_resize_grow_and_shrink_preserves_state(self, server):
        ring2 = HashRing(range(2))
        ring4 = HashRing(range(4))
        movers, stayers, i = [], [], 0
        while len(movers) < 2 or len(stayers) < 2:
            name = f"resize-{i}"
            i += 1
            if ring4.lookup(name) != ring2.lookup(name):
                movers.append(name)
            else:
                stayers.append(name)
        names = movers[:2] + stayers[:2]

        with connect(server) as client:
            for name in names:
                client.open_session(name, COUNTER_SRC)
                client.command(name, "instPipe p0, stage2")
                assert client.command(
                    name, "run tb0, p0, 100"
                )["c0"] == 98
            # A build setting, too, must move with its session.
            client.command(movers[0], "opt full")
            before = client.command(movers[0], "peek p0")

            # Hammer the moving sessions from another connection while
            # the pool resizes: commands must queue behind the
            # migration gates, never fail.
            stop = threading.Event()
            errors = []

            def hammer():
                with connect(server) as other:
                    j = 0
                    while not stop.is_set():
                        try:
                            other.command(
                                names[j % len(names)], "peek p0"
                            )
                        except Exception as exc:  # noqa: BLE001
                            errors.append(exc)
                            return
                        j += 1

            thread = threading.Thread(target=hammer, daemon=True)
            thread.start()
            try:
                grown = client.resize(4)
                assert grown["workers"] == 4
                assert grown["previous"] == 2
                assert grown["spawned"] == [2, 3]
                assert grown["retired"] == []
                assert set(grown["migrated"]) == set(movers[:2])

                stats = client.stats()
                by_id = {w["id"]: w for w in stats["workers"]}
                assert sorted(by_id) == [0, 1, 2, 3]
                assert all(w["alive"] for w in stats["workers"])
                placed = {
                    s["session"]: s["worker"]
                    for s in client.sessions()
                }
                for name in names:
                    assert placed[name] == ring4.lookup(name)
                    # Simulated state survived the move (the persist
                    # step checkpoints at the *current* cycle).
                    assert client.command(
                        name, "peek p0"
                    )["c0"] == 98
                assert client.command(movers[0], "opt")["level"] == "full"

                shrunk = client.resize(2)
                assert shrunk["workers"] == 2
                assert shrunk["retired"] == [2, 3]
                assert set(shrunk["migrated"]) == set(movers[:2])
            finally:
                stop.set()
                thread.join(timeout=30.0)
            assert errors == []

            stats = client.stats()
            assert sorted(w["id"] for w in stats["workers"]) == [0, 1]
            assert client.command(movers[0], "opt")["level"] == "full"
            assert client.command(movers[0], "peek p0") == before
            for name in names:
                assert client.command(
                    name, "run tb0, p0, 10"
                )["c0"] == 108
                client.close_session(name)

    def test_resize_to_same_size_is_a_noop(self, server):
        with connect(server) as client:
            value = client.resize(WORKERS)
            assert value["workers"] == WORKERS
            assert value["migrated"] == []
            assert value["spawned"] == []

    def test_resize_validates_worker_count(self, server):
        with connect(server) as client:
            with pytest.raises(ServerError, match="must be an integer"):
                client.resize(0)

    def test_explicit_migrate_moves_one_session(self, server):
        with connect(server) as client:
            client.open_session("mover", COUNTER_SRC)
            client.command("mover", "instPipe p0, stage2")
            client.command("mover", "opt full")
            before = client.command("mover", "run tb0, p0, 60")
            assert before["c0"] == 58
            src = next(
                s["worker"] for s in client.sessions()
                if s["session"] == "mover"
            )
            dest = 1 - src
            value = client.migrate("mover", dest)
            assert value == {
                "session": "mover", "from": src, "worker": dest,
                "migrated": True,
            }
            assert next(
                s["worker"] for s in client.sessions()
                if s["session"] == "mover"
            ) == dest
            assert client.command("mover", "peek p0") == before
            assert client.command("mover", "opt")["level"] == "full"
            # Migrating to the worker it already lives on is a no-op.
            again = client.migrate("mover", dest)
            assert again["migrated"] is False
            client.close_session("mover")

    def test_migrate_rejects_bad_targets(self, server):
        with connect(server) as client:
            with pytest.raises(ServerError, match="no worker 9"):
                client.open_session("badmig", COUNTER_SRC)
                client.migrate("badmig", 9)
            with pytest.raises(ServerError, match="unknown session"):
                client.migrate("no-such-session", 0)
            client.close_session("badmig")


@worker_processes_only
class TestShardedCrashRecovery:
    # Must run after the basics: it restarts worker processes.

    def test_kill_worker_rehydrates_sessions(self, server):
        victim_name, survivor_name = names_on_each_worker("crash")
        with connect(server) as client, connect(server) as other:
            client.open_session(victim_name, COUNTER_SRC)
            client.open_session(survivor_name, COUNTER_SRC)
            client.command(victim_name, "instPipe p0, stage2")
            client.command(survivor_name, "instPipe p0, stage2")
            client.command(victim_name, "opt full")
            before = client.command(victim_name, "run tb0, p0, 200")
            assert before["c0"] == 198
            assert client.command(victim_name, "chkp p0")["cycle"] == 200
            client.command(survivor_name, "run tb0, p0, 50")

            stats = client.stats()
            by_id = {w["id"]: w for w in stats["workers"]}
            os.kill(by_id[0]["pid"], 9)

            # First command after the kill blocks on restart +
            # rehydration: journal replay rebuilds the design, the
            # checkpoint store restores the simulated state.
            assert client.command(victim_name, "peek p0") == before
            assert client.command(victim_name, "opt")["level"] == "full"
            assert client.command(
                victim_name, "run tb0, p0, 10"
            )["c0"] == 208
            # The other worker's session never noticed.
            assert client.command(survivor_name, "peek p0")["c0"] == 48

            # Event streams route to the requesting client — and only
            # to it — even though the session now lives in a brand-new
            # worker process.  The verdict covers what the recovered
            # session can replay: the ten cycles run since, not the 200
            # whose run history died with the worker.
            assert client.command(victim_name, "chkp p0")["cycle"] == 210
            client.command(victim_name, "verify p0")
            event = client.wait_event(
                "verify_status",
                predicate=lambda e: e.data["state"] != "running",
                timeout=60.0,
            )
            assert event.session == victim_name
            assert event.data["state"] == "consistent"
            assert event.data["completed_segments"] == 1
            assert event.data["unverifiable_segments"] == 1
            with pytest.raises(TimeoutError):
                other.wait_event("verify_status", timeout=0.5)

            stats = client.stats()
            by_id = {w["id"]: w for w in stats["workers"]}
            assert by_id[0]["alive"] is True
            assert by_id[0]["restarts"] == 1
            assert by_id[1]["restarts"] == 0
            client.close_session(victim_name)
            client.close_session(survivor_name)


class TestFailoverReplayDies:
    def test_replay_that_also_kills_the_worker_is_one_shot(
        self, tmp_path
    ):
        # A poison command that SIGKILL-crashes every worker it
        # touches: the frontend replays it exactly once against the
        # recovered session, then gives up instead of restart-looping.
        with running_server(
            tmp_path, 1, worker_extra={"crash_line": "peek poison"}
        ) as server:
            with connect(server) as client:
                client.open_session("boom", COUNTER_SRC)
                client.command("boom", "instPipe p0, stage2")
                assert client.command(
                    "boom", "run tb0, p0, 50"
                )["c0"] == 48
                assert client.command("boom", "chkp p0")["cycle"] == 50
                # The obs registry is process-global (shared with any
                # earlier frontend in this test process), so assert
                # deltas, not absolutes.
                before = client.stats()["metrics"]["counters"]
                with pytest.raises(ServerError,
                                   match="died mid-request"):
                    client.command("boom", "peek poison")
                # One failover happened, exactly one.
                counters = client.stats()["metrics"]["counters"]
                assert counters.get("server.request_failovers", 0) \
                    - before.get("server.request_failovers", 0) == 1
                assert counters.get("server.worker_deaths", 0) \
                    - before.get("server.worker_deaths", 0) == 2
                # The session itself recovered from its checkpoint and
                # keeps working for non-poison commands.
                assert client.command("boom", "peek p0")["c0"] == 48
                client.close_session("boom")


class TestRetireWithARequestInFlight:
    def test_pending_request_gets_the_worker_error(self, tmp_path):
        # Session commands drain before their worker retires; a request
        # not routed through a session (a ``stats`` fan-out) can still
        # be in flight on it.  It is answered, not left hanging.
        import asyncio

        from repro.server.frontend import WorkerCommandError

        with running_server(tmp_path, 2) as server:
            async def retire_under_a_request():
                # Deaf to worker 1 from here, so the request below is
                # still pending when the retirement starts.
                server._detach(server._workers[1])
                request = asyncio.ensure_future(server._forward_to(
                    server._workers[1], None, "stats", {}
                ))
                await asyncio.sleep(0.2)  # sent, and nobody listens
                assert any(wid == 1 for _, wid in server._pending.values())
                await server._retire_workers([1])
                return await asyncio.wait_for(
                    asyncio.gather(request, return_exceptions=True), 10.0
                )

            (outcome,) = asyncio.run_coroutine_threadsafe(
                retire_under_a_request(), server._loop
            ).result(30.0)
            assert isinstance(outcome, WorkerCommandError)
            assert outcome.payload == {
                "type": "worker", "message": "worker 1 retired by resize",
            }
            assert sorted(server._workers) == [0]
            assert not server._pending
