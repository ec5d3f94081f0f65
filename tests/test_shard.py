"""Unit tests for the sharding primitives: the consistent-hash ring,
the on-disk session journal (crash-recovery log), and the worker's
journal/rollback paths."""

import os
import shutil
import sys
import threading

import pytest

from repro.server import shard
from repro.server.service import DuplicateSessionError
from repro.server.shard import (
    STRUCTURAL_VERBS,
    HashRing,
    SessionJournal,
    SessionWorker,
    WorkerConfig,
)
from tests.conftest import COUNTER_SRC, TWO_COUNTERS

KEYS = [f"session-{i}" for i in range(2000)]

BLINKER_SRC = """
module blinker (input clk, output y);
  reg q;
  assign y = q;
  always @(posedge clk) q <= !q;
endmodule
"""


# Owners under HashRing(range(2)) and HashRing(range(4)), computed
# once: a change to the point labels, the replica count or the
# tie-break moves sessions between workers and fails the pin.
PLACEMENT = {
    "alice": (0, 0), "bob": (0, 2), "carol": (0, 2), "dave": (1, 2),
    "erin": (1, 1), "frank": (0, 0), "grace": (0, 3), "heidi": (1, 1),
    "ivan": (1, 1), "judy": (1, 2), "mallory": (0, 2), "oscar": (1, 1),
}


class TestHashRing:
    def test_placement_is_pinned(self):
        two, four = HashRing(range(2)), HashRing(range(4))
        assert {
            name: (two.lookup(name), four.lookup(name))
            for name in PLACEMENT
        } == PLACEMENT

    def test_lookup_is_deterministic_across_instances(self):
        a = HashRing(range(4))
        b = HashRing([3, 2, 1, 0])  # insertion order must not matter
        assert [a.lookup(k) for k in KEYS] == [b.lookup(k) for k in KEYS]

    def test_empty_ring_raises(self):
        with pytest.raises(LookupError, match="no nodes"):
            HashRing([]).lookup("alice")

    def test_every_node_owns_a_reasonable_share(self):
        ring = HashRing(range(4))
        counts = {node: 0 for node in range(4)}
        for key in KEYS:
            counts[ring.lookup(key)] += 1
        for node, count in counts.items():
            # Perfect balance would be 500 each; virtual replicas get
            # within a loose factor of that.
            assert count > len(KEYS) / 4 / 3, (node, counts)

    def test_remove_moves_only_the_victims_keys(self):
        # A shrink retires the highest worker id, as resize does.
        before, after = HashRing(range(4)), HashRing(range(3))
        for key in KEYS:
            if before.lookup(key) == 3:
                assert after.lookup(key) != 3
            else:
                # The consistent-hashing contract: keys not owned by
                # the retired worker never move.
                assert after.lookup(key) == before.lookup(key)

    def test_join_moves_about_one_wth_of_the_keys(self):
        before, after = HashRing(range(4)), HashRing(range(5))
        moved = [
            key for key in KEYS if after.lookup(key) != before.lookup(key)
        ]
        # Every moved key must have moved TO the new worker...
        assert all(after.lookup(key) == 4 for key in moved)
        # ...and the moved fraction is ~1/5 (loose bounds: virtual
        # replicas make it approximate, not exact).
        fraction = len(moved) / len(KEYS)
        assert 0.05 < fraction < 0.45, fraction

    def test_equal_points_tie_break_insertion_order_independent(
        self, monkeypatch
    ):
        # Force every virtual replica onto one ring point: lookup must
        # still pick exactly one node, the same one no matter the
        # insertion order (the tuple sort falls back to the node key).
        monkeypatch.setattr(shard, "_ring_point", lambda label: 7)
        a = HashRing(range(4))
        b = HashRing([3, 2, 1, 0])
        keys = [f"tie-{i}" for i in range(50)]
        owners_a = [a.lookup(key) for key in keys]
        assert owners_a == [b.lookup(key) for key in keys]
        assert len(set(owners_a)) == 1


class TestSessionJournal:
    def test_structural_verbs_cover_the_table_i_structure_commands(self):
        assert "instpipe" in STRUCTURAL_VERBS
        assert "swapstage" in STRUCTURAL_VERBS
        # Build settings are structure too: a rehydrated session must
        # come back at the opt level and sanitize mode it was left at.
        assert {"san", "opt"} <= STRUCTURAL_VERBS
        # What these did is recovered from checkpoints, never replayed.
        assert not {"run", "chkp", "ldch"} & STRUCTURAL_VERBS

    def test_begin_append_roundtrip(self, tmp_path):
        journal = SessionJournal(str(tmp_path), "alice")
        assert not journal.exists()
        journal.begin("module m; endmodule", reset_cycles=2)
        journal.append({"op": "line", "line": "instPipe p0, stage0"})
        journal.append({"op": "lib", "name": "patch", "source": "..."})
        assert journal.exists()

        # A fresh object (what a restarted worker builds) reads the
        # same ordered history.
        replayed = SessionJournal(str(tmp_path), "alice").ops()
        assert [op["op"] for op in replayed] == ["open", "line", "lib"]
        assert replayed[0]["source"] == "module m; endmodule"
        assert replayed[0]["reset_cycles"] == 2

    def test_checkpoint_paths_are_stable_and_registered(self, tmp_path):
        journal = SessionJournal(str(tmp_path), "alice")
        journal.begin("src", reset_cycles=2)
        path = journal.checkpoint_path("p0")
        assert path == journal.checkpoint_path("p0")
        assert path.startswith(str(tmp_path))
        # Registered but not yet written: not listed as recoverable.
        assert journal.checkpoints() == {}
        with open(path, "wb") as fh:
            fh.write(b"ckpt")
        assert SessionJournal(str(tmp_path), "alice").checkpoints() == {
            "p0": path
        }

    def test_sessions_do_not_collide(self, tmp_path):
        a = SessionJournal(str(tmp_path), "alice")
        b = SessionJournal(str(tmp_path), "bob")
        a.begin("a-src", reset_cycles=1)
        b.begin("b-src", reset_cycles=2)
        assert a.path != b.path
        assert a.checkpoint_path("p0") != b.checkpoint_path("p0")
        assert SessionJournal(str(tmp_path), "alice").ops()[0]["source"] \
            == "a-src"

    def test_wrong_session_name_is_rejected(self, tmp_path):
        SessionJournal(str(tmp_path), "alice").begin("src", reset_cycles=2)
        mallory = SessionJournal(str(tmp_path), "alice")
        mallory.name = "mallory"  # simulate a digest collision
        with pytest.raises(ValueError, match="'mallory'"):
            mallory.ops()

    def test_delete_removes_journal_and_checkpoints(self, tmp_path):
        journal = SessionJournal(str(tmp_path), "alice")
        journal.begin("src", reset_cycles=2)
        path = journal.checkpoint_path("p0")
        with open(path, "wb") as fh:
            fh.write(b"ckpt")
        journal.delete()
        assert not journal.exists()
        assert not os.path.exists(path)
        # No stray tmp files from the atomic rewrites either.
        assert os.listdir(str(tmp_path)) == []

    def test_delete_of_missing_journal_is_a_noop(self, tmp_path):
        SessionJournal(str(tmp_path), "ghost").delete()


class _FakeConn:
    """Pipe stand-in: records worker->frontend messages."""

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)

    def close(self):
        pass


def _worker(state_root=None, **config):
    return SessionWorker(
        _FakeConn(),
        WorkerConfig(worker_id=0, state_root=state_root, **config),
    )


class TestSessionWorkerJournaling:
    def test_open_rolls_back_when_journal_begin_fails(self, tmp_path):
        # A file where the state dir should be makes journal.begin
        # fail with OSError after the session was built.
        state = tmp_path / "state"
        state.write_text("not a directory")
        worker = _worker(state_root=str(state))
        with pytest.raises(OSError):
            worker._cmd_open(0, {"session": "alice", "source": COUNTER_SRC})
        # The failed open must not leave the session resident: a retry
        # (after the operator fixes the dir) would otherwise die with
        # duplicate-session forever.
        assert "alice" not in worker._sessions
        state.unlink()
        info = worker._cmd_open(
            0, {"session": "alice", "source": COUNTER_SRC}
        )
        assert "top" in info["handles"]

    def test_concurrent_opens_of_one_name_admit_one(self, tmp_path):
        # Each open builds its session off the registry; only one may
        # enter it, and the losers must not rewrite the winner's journal.
        worker = _worker(state_root=str(tmp_path))
        barrier = threading.Barrier(8)
        outcomes = []

        def open_one():
            barrier.wait(10)
            try:
                worker._cmd_open(
                    0, {"session": "alice", "source": COUNTER_SRC}
                )
                outcomes.append("opened")
            except DuplicateSessionError:
                outcomes.append("duplicate")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=open_one) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(outcomes) == ["duplicate"] * 7 + ["opened"]
        assert worker._cmd_stats(0, {})["session_names"] == ["alice"]
        worker._cmd_cmd(
            0, {"session": "alice", "line": "instPipe p0, stage2"}
        )
        ops = SessionJournal(str(tmp_path), "alice").ops()
        assert [op["op"] for op in ops] == ["open", "line"]

    def test_ldlib_journals_the_merged_source_not_the_path(
        self, tmp_path
    ):
        state = str(tmp_path / "state")
        worker = _worker(state_root=state)
        worker._cmd_open(0, {"session": "alice", "source": COUNTER_SRC})
        lib = tmp_path / "extra.v"
        lib.write_text(BLINKER_SRC)
        worker._cmd_cmd(
            1, {"session": "alice", "line": f"ldLib extras, {lib}"}
        )
        # The file diverging — or vanishing — after the load must not
        # change what recovery replays.
        lib.unlink()
        ops = SessionJournal(state, "alice").ops()
        lib_ops = [op for op in ops if op["op"] == "lib"]
        assert lib_ops == [
            {"op": "lib", "name": "extras", "source": BLINKER_SRC}
        ]
        # A fresh worker rehydrates the lib from the journaled text.
        other = _worker(state_root=state)
        info = other._cmd_rehydrate(0, {"session": "alice"})
        assert info["rehydrated"] is True
        session = other._get("alice").session
        assert session.stage_handle_for("blinker")

    def test_a_redefining_lib_survives_persist_and_rehydrate(
        self, tmp_path
    ):
        from repro.hdl.parser import parse

        state = str(tmp_path / "state")
        worker = _worker(state_root=state)
        worker._cmd_open(0, {"session": "alice", "source": COUNTER_SRC})
        lib = tmp_path / "adder.v"
        lib.write_text(
            COUNTER_SRC[:COUNTER_SRC.index("module counter")].replace(
                "assign sum = a + b;", "assign sum = a + b + 8'd1;"
            )
        )
        worker._cmd_cmd(
            1, {"session": "alice", "line": f"ldLib extras, {lib}"}
        )
        worker._cmd_cmd(
            2, {"session": "alice", "line": "instPipe p0, stage2"}
        )
        worker._cmd_cmd(3, {"session": "alice", "line": "run tb0, p0, 12"})
        worker._cmd_persist(0, {"session": "alice"})
        source = worker._get("alice").session.compiler.source
        other = _worker(state_root=state)
        assert other._cmd_rehydrate(0, {"session": "alice"})["pipes"] == {
            "p0": 12
        }
        moved = other._get("alice").session
        assert moved.compiler.source == source
        assert source.count("module adder") == 1
        assert sorted(parse(source).modules) == ["adder", "counter", "top"]
        assert moved.pipe("p0").outputs()["c0"] == 20  # 10 cycles at +2

    def test_journal_write_failure_warns_but_command_succeeds(
        self, tmp_path
    ):
        state = tmp_path / "state"
        worker = _worker(state_root=str(state))
        info = worker._cmd_open(
            0, {"session": "alice", "source": COUNTER_SRC}
        )
        handle = info["handles"]["top"]
        shutil.rmtree(state)
        state.write_text("journal root is gone")  # breaks every flush
        value = worker._cmd_cmd(
            7, {"session": "alice", "line": f"instPipe p0, {handle}"}
        )
        assert value is not None  # the command itself succeeded
        events = [
            msg for msg in worker.conn.sent
            if msg.get("kind") == "event"
        ]
        assert events, "journal failure must surface as an event"
        assert events[0]["name"] == "journal_warning"
        assert events[0]["rid"] == 7
        assert events[0]["session"] == "alice"
        assert "instPipe" in events[0]["data"]["command"]

    def test_rehydrate_fails_when_a_lib_op_is_missing(self, tmp_path):
        # Hand-build a journal whose structural line depends on a lib
        # that was never journaled (the pre-capture TOCTOU shape).
        journal = SessionJournal(str(tmp_path), "ghost")
        journal.begin(COUNTER_SRC, reset_cycles=2)
        journal.append({"op": "line", "line": "instPipe b0, stage99"})
        worker = _worker(state_root=str(tmp_path))
        with pytest.raises(Exception, match="stage99"):
            worker._cmd_rehydrate(0, {"session": "ghost"})

    def test_persist_without_state_dir_raises(self):
        worker = _worker(state_root=None)
        worker._cmd_open(0, {"session": "alice", "source": COUNTER_SRC})
        with pytest.raises(ValueError, match="state dir"):
            worker._cmd_persist(0, {"session": "alice"})


def _run_line(worker, line):
    return worker._cmd_cmd(0, {"session": "s", "line": line})


class TestRewindIsARecoveryPoint:
    """What a crash brings back is where the pipe stands after a rewind,
    never the future the rewind abandoned."""

    def _worker(self, state_root):
        worker = _worker(state_root, checkpoint_interval=10)
        worker._cmd_open(0, {"session": "s", "source": COUNTER_SRC})
        _run_line(worker, "instPipe p0, stage2")
        return worker

    def _rehydrated(self, state_root):
        worker = _worker(state_root, checkpoint_interval=10)
        pipes = worker._cmd_rehydrate(0, {"session": "s"})["pipes"]
        return pipes, _run_line(worker, "peek p0")["c0"]

    def test_ldch_survives_a_crash(self, tmp_path):
        state, path = str(tmp_path / "state"), tmp_path / "p.ckpt"
        worker = self._worker(state)
        _run_line(worker, "run tb0, p0, 10")
        _run_line(worker, f"chkp p0, {path}")
        _run_line(worker, "run tb0, p0, 30")
        _run_line(worker, f"ldch p0, {path}")
        assert _run_line(worker, "peek p0")["c0"] == 8
        assert self._rehydrated(state) == ({"p0": 10}, 8)
        # Recovery reads the journal's store, not the user's file.
        path.unlink()
        assert self._rehydrated(state) == ({"p0": 10}, 8)

    def test_another_state_at_the_saved_cycle_is_saved(self, tmp_path):
        from repro.sim.testbench import reset_sequence

        state = str(tmp_path / "state")
        worker = self._worker(state)
        _run_line(worker, "run tb0, p0, 40")  # saved: c0 == 38 at 40
        session = worker._get("s").session
        # Back to cycle 10 without a journaled line, then to cycle 40
        # again under a testbench that holds the counters in reset.
        session.ldch("p0", session.store("p0").nearest_before(10))
        held = session.load_testbench(reset_sequence("rst", cycles=1000))
        _run_line(worker, f"run {held}, p0, 30")
        assert self._rehydrated(state) == ({"p0": 40}, 0)


class TestReloadAfterRehydrate:
    # A migration or a crash recovery carries the checkpoints, not the
    # run history: the moved session can replay what it ran since and
    # nothing before.  The first reload used to rewind to a checkpoint
    # it had no history to replay from, and fail after the swap.

    EDIT = COUNTER_SRC.replace(
        "assign sum = a + b;", "assign sum = a + b + 8'd1;"
    )

    def _moved(self, state_root):
        first = _worker(state_root, checkpoint_interval=10)
        first._cmd_open(0, {"session": "s", "source": COUNTER_SRC})
        first._cmd_cmd(0, {"session": "s", "line": "instPipe p0, stage2"})
        first._cmd_cmd(0, {"session": "s", "line": "run tb0, p0, 25"})
        first._cmd_persist(0, {"session": "s"})
        second = _worker(state_root, checkpoint_interval=10)
        assert second._cmd_rehydrate(0, {"session": "s"})["pipes"] == {
            "p0": 25
        }
        return second

    def test_reload_right_after_the_move(self, tmp_path):
        worker = self._moved(str(tmp_path))
        session = worker._get("s").session
        assert session.store("p0").cycles() == [10, 20, 25]
        assert session.ops("p0") == []
        report = worker._cmd_reload(0, {"session": "s", "source": self.EDIT})
        assert report["_type"] == "ERDReport"
        assert report["checkpoint_cycle"] == 25
        assert report["cycles_replayed"] == 0
        assert report["version"] == session.version == "1.1"
        # c0 was 23 at cycle 25 (two reset cycles); +2 a cycle now.
        assert worker._cmd_cmd(
            0, {"session": "s", "line": "run tb0, p0, 5"}
        )["c0"] == 33

    def test_reload_replays_only_what_was_run_since(self, tmp_path):
        worker = self._moved(str(tmp_path))
        worker._cmd_cmd(0, {"session": "s", "line": "run tb0, p0, 10"})
        report = worker._cmd_reload(0, {"session": "s", "source": self.EDIT})
        assert report["checkpoint_cycle"] == 25
        assert report["cycles_replayed"] == 10
        assert worker._cmd_cmd(
            0, {"session": "s", "line": "peek p0"}
        )["c0"] == 23 + 20

    def test_a_recovery_point_cut_in_half_is_an_error_naming_the_file(
        self, tmp_path
    ):
        self._moved(str(tmp_path))
        (ckpt,) = [p for p in tmp_path.iterdir() if p.suffix == ".ckpt"]
        ckpt.write_bytes(ckpt.read_bytes()[:100])
        from repro.hdl.errors import SimulationError
        from repro.server.service import error_payload

        for _ in range(2):
            with pytest.raises(SimulationError, match=ckpt.name) as caught:
                _worker(str(tmp_path))._cmd_rehydrate(0, {"session": "s"})
            assert error_payload(caught.value)["type"] == "simulation"


class TestAFailedRehydrateChangesNothing:
    """A rehydrate that fails leaves no session of that name on the
    worker and every journal and checkpoint file as it was; once the
    good file is back, the next rehydrate restores the pipe."""

    def _persisted(self, state_root):
        worker = _worker(state_root, checkpoint_interval=10)
        worker._cmd_open(0, {"session": "s", "source": COUNTER_SRC})
        _run_line(worker, "instPipe p0, stage2")
        _run_line(worker, "run tb0, p0, 25")
        worker._cmd_persist(0, {"session": "s"})

    def _refused(self, tmp_path, path, good, match):
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        worker = _worker(str(tmp_path), checkpoint_interval=10)
        with pytest.raises(Exception, match=match):
            worker._cmd_rehydrate(0, {"session": "s"})
        assert worker._cmd_stats(0, {})["session_names"] == []
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files
        path.write_bytes(good)
        assert worker._cmd_rehydrate(0, {"session": "s"})["pipes"] == {
            "p0": 25
        }
        assert _run_line(worker, "peek p0")["c0"] == 23

    def test_a_journal_line_naming_a_missing_handle(self, tmp_path):
        self._persisted(str(tmp_path))
        journal = SessionJournal(str(tmp_path), "s")
        path = tmp_path / os.path.basename(journal.path)
        good = path.read_bytes()
        journal.append({"op": "line", "line": "instPipe b0, stage99"})
        self._refused(tmp_path, path, good, "stage99")

    @pytest.mark.parametrize("level", ["basic", "turbo"])
    def test_a_journal_line_naming_an_unknown_opt_level(self, tmp_path,
                                                        level):
        # ``basic`` was a level once; a journal written then is refused
        # like any other unknown level.
        self._persisted(str(tmp_path))
        journal = SessionJournal(str(tmp_path), "s")
        path = tmp_path / os.path.basename(journal.path)
        good = path.read_bytes()
        journal.append({"op": "line", "line": f"opt {level}"})
        self._refused(tmp_path, path, good, f"unknown opt level '{level}'")

    def test_a_checkpoint_file_cut_to_100_bytes(self, tmp_path):
        self._persisted(str(tmp_path))
        (ckpt,) = [p for p in tmp_path.iterdir() if p.suffix == ".ckpt"]
        good = ckpt.read_bytes()
        ckpt.write_bytes(good[:100])
        self._refused(tmp_path, ckpt, good, ckpt.name)


class TestARefusedEditNumbersNoVersion:
    # The journal holds only the edits that landed, so a rehydrated
    # session numbers its versions by them.  A refused edit used to
    # take a version id anyway: a checkpoint saved under "1.2" (after
    # the first rename) was then read as the rehydrated "1.2" (after
    # the second) and the second rename was never applied to it.

    BROKEN = TWO_COUNTERS.replace("mb ub", "mc ub")  # no module mc
    RENAMED_A = TWO_COUNTERS.replace("cnt_a", "cnt_a2")
    RENAMED_BOTH = RENAMED_A.replace("cnt_b", "cnt_b2")

    def test_rehydrate_reads_the_checkpoint_in_its_own_version(
        self, tmp_path
    ):
        from repro.hdl.errors import HDLError
        from repro.sim.testbench import hold_inputs

        state = str(tmp_path / "state")
        worker = _worker(state)
        handles = worker._cmd_open(
            0, {"session": "s", "source": TWO_COUNTERS, "reset_cycles": -1}
        )["handles"]
        session = worker._get("s").session
        tb = session.load_testbench(hold_inputs())
        _run_line(worker, f"instPipe p0, {handles['top']}")
        _run_line(worker, f"run {tb}, p0, 50")

        versions = session.history.versions()
        with pytest.raises(HDLError):
            worker._cmd_reload(0, {"session": "s", "source": self.BROKEN})
        assert session.version == "1.0"
        assert session.history.versions() == versions

        reload = {"session": "s", "source": self.RENAMED_A}
        assert worker._cmd_reload(0, reload)["version"] == "1.1"
        _run_line(worker, f"chkp p0, {tmp_path / 'user.ckpt'}")
        reload = {"session": "s", "source": self.RENAMED_BOTH}
        assert worker._cmd_reload(0, reload)["version"] == "1.2"
        assert session.peek("p0") == {"y": 200}

        other = _worker(state)
        assert other._cmd_rehydrate(0, {"session": "s"})["pipes"] == {
            "p0": 50
        }
        moved = other._get("s").session
        assert moved.version == "1.2"
        assert moved.peek("p0") == {"y": 200}
        assert moved.pipe("p0").find("ub").peek_reg("cnt_b2") == 150
