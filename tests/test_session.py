"""LiveSession tests: the Table I command set and the live loop."""

import pytest

from repro.bench.tables import ERD_PHASES
from repro.hdl.errors import SimulationError
from repro.live.session import LiveSession
from repro.live.transform import RegisterTransform, TransformOp
from repro.sim.testbench import CallbackTestbench, hold_inputs
from tests.conftest import COUNTER_SRC, TWO_COUNTERS

BUGGY = COUNTER_SRC.replace("assign sum = a + b;", "assign sum = a + b + 8'd1;")
COMMENT = COUNTER_SRC.replace("assign sum = a + b;",
                              "assign sum = a + b; // reviewed")

# TWO_COUNTERS with both counter registers renamed.
BOTH_RENAMED = TWO_COUNTERS.replace("cnt_a", "cnt_a2").replace(
    "cnt_b", "cnt_b2"
)


def make_session(interval=10):
    session = LiveSession(COUNTER_SRC, checkpoint_interval=interval)
    session.inst_pipe("p0", session.stage_handle_for("top"))
    tb = session.load_testbench(hold_inputs(rst=0))
    return session, tb


class TestTableOneCommands:
    def test_ld_lib_registers_stage_handles(self):
        session = LiveSession(COUNTER_SRC)
        names = {e.payload for e in session.objects.by_type("Stage")}
        assert names == {"adder", "counter", "top"}

    def test_ld_lib_merges_new_source(self):
        session = LiveSession(COUNTER_SRC)
        added = session.ld_lib("extras", """
module blinker (input clk, output y);
  reg q;
  assign y = q;
  always @(posedge clk) q <= !q;
endmodule
""")
        assert len(added) == 1
        pipe = session.inst_pipe("b0", session.stage_handle_for("blinker"))
        pipe.step(1)
        assert pipe.outputs()["y"] == 1

    def test_ld_lib_splices_a_redefined_module(self):
        # A library that redefines a module replaces the old definition
        # in place: the session text parses from scratch, holds one
        # definition, and the later one is what gets instantiated.
        from repro.hdl.parser import parse
        from repro.sim.testbench import reset_sequence

        adder = COUNTER_SRC[:COUNTER_SRC.index("module counter")]
        session = LiveSession(COUNTER_SRC, checkpoint_interval=10)
        added = session.ld_lib("extras", adder.replace(
            "assign sum = a + b;", "assign sum = a + b + 8'd1;"
        ))
        assert added == []  # nothing new, one module redefined
        assert session.compiler.source == BUGGY.rstrip() + "\n"
        assert sorted(parse(session.compiler.source).modules) == [
            "adder", "counter", "top"
        ]
        session.inst_pipe("p0", session.stage_handle_for("top"))
        tb = session.load_testbench(reset_sequence("rst", 2), factory=(
            "repro.sim.testbench:reset_sequence",
            {"reset_name": "rst", "cycles": 2},
        ))
        session.run(tb, "p0", 25)
        assert session.pipe("p0").outputs()["c0"] == 46  # 23 cycles at +2
        # Workers rebuild from the session text: they can, and agree.
        try:
            session.verify_background("p0", workers=1)
            background = session.wait_for_verify("p0", timeout=120)
            serial = session.verify_consistency("p0")
            assert background.verdict == serial.verdict == "consistent"
            assert len(background.segments) == len(serial.segments) == 2
        finally:
            session.close()

    def test_inst_pipe_creates_running_uut(self):
        session, tb = make_session()
        assert "p0" in session.pipelines
        assert session.pipe("p0").cycle == 0

    def test_inst_pipe_rejects_tb_handle(self):
        session, tb = make_session()
        with pytest.raises(SimulationError, match="not a stage"):
            session.inst_pipe("p1", tb)

    def test_run_advances_and_records_history(self):
        session, tb = make_session()
        session.run(tb, "p0", 25)
        assert session.pipe("p0").cycle == 25
        ops = session.ops("p0")
        assert len(ops) == 1
        assert (ops[0].start_cycle, ops[0].end_cycle) == (0, 25)

    def test_run_and_peek_hand_out_copies(self):
        from repro.live.commands import CommandInterpreter

        session, tb = make_session()
        session.watch("p0", "c0")
        out = session.run(tb, "p0", 5)
        assert out == {"c0": 5, "c1": 15}
        out["c0"] = 999
        session.peek("p0")["c1"] = 999
        assert session.peek("p0") == {"c0": 5, "c1": 15}
        assert CommandInterpreter(session).execute("peek p0").value == {
            "c0": 5, "c1": 15
        }
        session.run(tb, "p0", 1)
        assert session.trace_read("p0", "c0", start=5)["samples"] == [[5, 5]]

    def test_run_takes_checkpoints(self):
        session, tb = make_session(interval=10)
        session.run(tb, "p0", 35)
        assert session.store("p0").cycles() == [10, 20, 30]

    def test_chkp_manual_checkpoint(self):
        session, tb = make_session()
        session.run(tb, "p0", 7)
        cp = session.chkp("p0")
        assert cp.cycle == 7

    def test_ldch_rewinds_and_truncates_history(self):
        session, tb = make_session(interval=10)
        session.run(tb, "p0", 35)
        cp = [c for c in session.checkpoints("p0") if c.cycle == 20][0]
        session.ldch("p0", cp)
        pipe = session.pipe("p0")
        assert pipe.cycle == 20
        assert pipe.outputs()["c0"] == 20
        assert all(op.end_cycle <= 20 for op in session.ops("p0"))

    def test_ldch_from_file(self, tmp_path):
        session, tb = make_session(interval=10)
        session.run(tb, "p0", 25)
        path = str(tmp_path / "cps.pkl")
        session.chkp("p0", path)
        session.run(tb, "p0", 10)
        session.ldch("p0", path)
        assert session.pipe("p0").cycle == 25

    def test_copy_pipe_duplicates_state(self):
        session, tb = make_session()
        session.run(tb, "p0", 15)
        clone = session.copy_pipe("p1", "p0")
        assert clone.outputs()["c0"] == 15
        # Divergent futures: the clone is independent.
        session.run(tb, "p1", 5)
        assert session.pipe("p1").outputs()["c0"] == 20
        assert session.pipe("p0").outputs()["c0"] == 15

    def test_stage_table_populated(self):
        session, tb = make_session()
        rows = session.stages.rows()
        paths = {(pipe, stage) for pipe, stage, _, _ in rows}
        assert ("p0", "u0") in paths
        assert ("p0", "u0.u_add") in paths

    def test_object_table_rows(self):
        session, tb = make_session()
        rows = session.objects.rows()
        types = {t for _, t, _, _ in rows}
        assert types == {"Stage", "Testbench"}


def failing_at(cycle):
    """A testbench holding ``rst`` low whose driver raises once, before
    the cycle ``cycle`` starts."""
    armed = [True]

    def drive(pipe):
        if armed[0] and pipe.cycle == cycle:
            armed[0] = False
            raise RuntimeError("testbench failed")
        pipe.set_inputs(rst=0)

    return CallbackTestbench(name="flaky", drive=drive)


def interrupting(monkeypatch, pipe, path, cycle):
    """Make the code instance ``path`` of ``pipe`` runs (shared by every
    instance of its module, and kept by a swap that does not recompile
    it) raise ``KeyboardInterrupt`` from ``cycle`` on the edge from
    ``cycle``."""
    code = pipe.find(path).code
    real = code.cycle_fn

    def cycle_fn(*args):
        if pipe.cycle == cycle:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(code, "cycle_fn", cycle_fn)


class TestInterruptedRun:
    def test_a_run_that_raises_keeps_the_cycles_it_ran(self):
        # No checkpoint before the failure: the history is all the
        # edit has to replay from power-on.
        session = LiveSession(COUNTER_SRC, checkpoint_interval=100)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        tb = session.load_testbench(failing_at(30))
        with pytest.raises(RuntimeError, match="testbench failed"):
            session.run(tb, "p0", 50)
        assert session.ops("p0") == [(tb, 0, 30)]
        session.run(tb, "p0", 20)
        session.apply_change(BUGGY)
        twin, twin_tb = make_session(interval=100)
        session.run(twin_tb, "p0", 0)
        twin.run(twin_tb, "p0", 30)
        twin.run(twin_tb, "p0", 20)
        twin.apply_change(BUGGY)
        pipe, other = session.pipe("p0"), twin.pipe("p0")
        assert pipe.cycle == other.cycle == 50
        assert pipe.snapshot().state.equal_state(other.snapshot().state)
        assert pipe.outputs() == other.outputs() == {"c0": 100, "c1": 200}

    def test_an_interrupted_edge_is_mended_from_the_history(self, monkeypatch):
        session, tb = make_session(interval=10)
        session.run(tb, "p0", 12)
        pipe = session.pipe("p0")
        interrupting(monkeypatch, pipe, "u1", 25)
        with pytest.raises(KeyboardInterrupt):
            session.run(tb, "p0", 30)
        monkeypatch.undo()
        # Back at the cycle the lost edge started from, with the cycles
        # before it recorded, equal to a pipe that was never stopped.
        assert pipe.torn is None and pipe.cycle == 25
        assert session.ops("p0")[-1] == (tb, 12, 25)
        twin, twin_tb = make_session(interval=10)
        twin.run(twin_tb, "p0", 25)
        assert pipe.snapshot().state.equal_state(twin.pipe("p0").snapshot().state)
        for each, handle in ((session, tb), (twin, twin_tb)):
            each.run(handle, "p0", 5)
            each.apply_change(BUGGY)
        assert session.peek("p0") == twin.peek("p0")

    def test_an_edit_interrupted_in_its_replay_keeps_the_cycles_it_replayed(
            self, monkeypatch):
        session, tb = make_session(interval=10)
        session.run(tb, "p0", 40)
        pipe = session.pipe("p0")
        interrupting(monkeypatch, pipe, "u0", 33)
        with pytest.raises(KeyboardInterrupt):
            session.apply_change(BUGGY)
        monkeypatch.undo()
        # The edit landed and its replay from the checkpoint at 10 is
        # back at cycle 33, two per cycle; what it had not replayed yet
        # is no longer history.
        assert pipe.torn is None and pipe.cycle == 33
        assert session.ops("p0")[-1].end_cycle == 33
        assert max(session.store("p0").cycles()) <= 33
        assert session.peek("p0") == {"c0": 10 + 2 * 23, "c1": 30 + 4 * 23}
        session.run(tb, "p0", 7)
        assert session.ops("p0")[-1][1:] == (33, 40)
        assert session.peek("p0") == {"c0": 10 + 2 * 30, "c1": 30 + 4 * 30}


class TestSessionSettings:
    @pytest.mark.parametrize("settings, message", [
        ({"checkpoint_interval": 0}, "checkpoint interval must be positive"),
        ({"checkpoint_interval": -3}, "checkpoint interval must be positive"),
        ({"reload_distance": -5}, "reload distance must not be negative"),
    ])
    def test_refused_before_anything_compiles(self, monkeypatch, settings,
                                              message):
        import repro.live.session as session_module

        def compile_nothing(*args, **kwargs):
            pytest.fail("the design was compiled")

        monkeypatch.setattr(session_module, "LiveCompiler", compile_nothing)
        with pytest.raises(SimulationError, match=message):
            LiveSession(COUNTER_SRC, **settings)

    def test_a_zero_reload_distance_replays_from_the_stop(self):
        session = LiveSession(COUNTER_SRC, checkpoint_interval=10,
                              reload_distance=0)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        session.run(session.load_testbench(hold_inputs(rst=0)), "p0", 25)
        report = session.apply_change(BUGGY)
        assert report.checkpoint_cycle == 20
        assert report.cycles_replayed == 5


class TestPipeNames:
    """A name is one row of the Pipeline Table: a taken one is refused
    before anything is compiled, copied or overwritten."""

    @pytest.mark.parametrize("verb", ["instPipe", "copyPipe"])
    def test_taken_name_leaves_the_pipe_as_it_was(self, verb):
        session, tb = make_session(interval=10)
        session.inst_pipe("p1", session.stage_handle_for("top"))
        session.watch("p0", "c0")
        session.run(tb, "p0", 20)
        pipe = session.pipe("p0")

        def timeline():
            return (
                session.pipe("p0").cycle,
                session.peek("p0"),
                session.store("p0").cycles(),
                session.ops("p0"),
                session.trace_read("p0", "c0")["samples"],
            )

        before = timeline()
        assert before[:3] == (20, {"c0": 20, "c1": 60}, [10, 20])
        with pytest.raises(SimulationError, match="already in use"):
            if verb == "instPipe":
                session.inst_pipe("p0", session.stage_handle_for("top"))
            else:
                session.copy_pipe("p0", "p1")
        assert timeline() == before
        assert session.pipe("p0") is pipe
        assert session.pipelines.get("p0").pipe is pipe


class TestApplyChange:
    def test_comment_edit_short_circuits(self):
        session, tb = make_session()
        session.run(tb, "p0", 20)
        report = session.apply_change(COMMENT)
        assert not report.behavioral
        assert report.compile_seconds == 0
        assert session.pipe("p0").cycle == 20

    def test_behavioral_edit_full_loop(self):
        session, tb = make_session(interval=10)
        session.run(tb, "p0", 35)
        report = session.apply_change(BUGGY)
        assert report.behavioral
        assert report.recompiled_keys == ["adder#(W=8)"]
        assert set(report.reused_keys) == {"counter#(W=8)", "top"}
        pipe = session.pipe("p0")
        # Estimate: reload checkpoint at 10 (closest to 35-10000 -> 0,
        # i.e. earliest), replay 25 cycles at +2/cycle.
        assert report.checkpoint_cycle == 10
        assert report.cycles_replayed == 25
        assert pipe.cycle == 35
        assert pipe.outputs()["c0"] == (10 + 2 * 25)

    def test_total_is_the_sum_of_the_six_phases(self):
        # The analyzer's gate runs between compile and swap, on the
        # reply path: it is part of the ERD.
        session, tb = make_session(interval=10)
        session.run(tb, "p0", 35)
        report = session.apply_change(BUGGY)
        assert report.analyzed_keys and report.analyze_seconds > 0
        phases = ("parse", "compile", "analyze", "swap", "reload", "replay")
        assert phases == ERD_PHASES
        assert report.total_seconds == pytest.approx(
            sum(getattr(report, f"{phase}_seconds") for phase in phases)
        )

    def test_version_advances_per_change(self):
        session, tb = make_session()
        v0 = session.version
        session.apply_change(BUGGY)
        assert session.version != v0
        assert session.history.parent_of(session.version) == v0

    def test_reload_distance_selects_near_checkpoint(self):
        session = LiveSession(
            COUNTER_SRC, checkpoint_interval=10, reload_distance=10
        )
        session.inst_pipe("p0", session.stage_handle_for("top"))
        tb = session.load_testbench(hold_inputs(rst=0))
        session.run(tb, "p0", 55)
        report = session.apply_change(BUGGY)
        assert report.checkpoint_cycle == 50  # closest to 55-10=45... ties later
        assert session.pipe("p0").cycle == 55

    def test_no_checkpoints_replays_from_reset(self):
        session = LiveSession(COUNTER_SRC)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        session.store("p0").enabled = False
        tb = session.load_testbench(hold_inputs(rst=0))
        session.run(tb, "p0", 30)
        report = session.apply_change(BUGGY)
        assert report.checkpoint_cycle is None
        assert report.cycles_replayed == 30
        assert session.pipe("p0").outputs()["c0"] == 60

    def test_explicit_transform_respected(self):
        renamed = COUNTER_SRC.replace("count_q", "tally_q").replace(
            "if (rst)", "if (rst || 1'b0)"
        )
        session, tb = make_session()
        session.run(tb, "p0", 12)
        transform = RegisterTransform(
            [TransformOp("rename", "count_q", new_name="tally_q")]
        )
        session.apply_change(renamed, transforms={"counter": transform})
        assert session.pipe("p0").find("u0").peek_reg("tally_q") == 12

    def test_explicit_transform_keeps_the_guess_for_other_modules(self):
        # An explicit entry for ``ma`` must not stop ``mb``'s rename from
        # being guessed where the swap does not look: the checkpoint the
        # edit rewinds to and the version history.
        def edited(transforms):
            session = LiveSession(
                TWO_COUNTERS, checkpoint_interval=10, reload_distance=10
            )
            session.inst_pipe("p0", session.stage_handle_for("top"))
            session.run(session.load_testbench(hold_inputs()), "p0", 50)
            report = session.apply_change(BOTH_RENAMED, transforms=transforms)
            assert report.checkpoint_cycle == 40
            return session

        rename_a = RegisterTransform(
            [TransformOp("rename", "cnt_a", new_name="cnt_a2")]
        )
        explicit = edited({"ma": rename_a})
        guessed = edited(None)
        assert explicit.peek("p0") == guessed.peek("p0") == {"y": 200}
        assert explicit.pipe("p0").find("ub").peek_reg("cnt_b2") == 150
        history = explicit.history.composed_transforms("1.0", "1.1")
        assert sorted(history) == ["ma", "mb"]
        assert history["ma"] == rename_a

    def test_a_checkpoint_keeps_the_version_it_was_taken_in(self):
        session, tb = make_session(interval=10)
        session.run(tb, "p0", 25)
        before = session.checkpoints("p0")
        snapshots = [cp.snapshot for cp in before]
        session.apply_change(BUGGY)
        assert session.version == "1.1"
        after = session.checkpoints("p0")
        assert [cp.cycle for cp in after] == [10, 20]
        for checkpoint, kept, snapshot in zip(after, before, snapshots):
            assert checkpoint is kept and checkpoint.snapshot is snapshot
            assert checkpoint.version == "1.0"
            # No register changed: it already reads in 1.1's names.
            assert session.in_current_version(checkpoint) is checkpoint

    def test_a_refused_edit_numbers_no_version(self):
        from repro.analyze import GateBlockedError
        from repro.hdl.errors import HDLError

        session, tb = make_session()
        session.run(tb, "p0", 5)
        looped = COUNTER_SRC.replace(
            "assign sum = a + b;",
            "wire [W-1:0] fb;\n  assign fb = fb & a;\n  assign sum = a + b;",
        )
        with pytest.raises(GateBlockedError):
            session.apply_change(looped)
        with pytest.raises(HDLError):
            session.apply_change(
                COUNTER_SRC.replace("adder #(.W", "adder2 #(.W")
            )
        assert session.version == "1.0"
        assert session.history.versions() == ["1.0"]
        assert session.apply_change(BUGGY).version == session.version == "1.1"

    def test_syntax_error_leaves_session_usable(self):
        session, tb = make_session()
        session.run(tb, "p0", 5)
        from repro.hdl.errors import HDLError

        with pytest.raises(HDLError):
            session.apply_change(COUNTER_SRC.replace("assign sum = a + b;",
                                                     "assign sum = ("))
        session.run(tb, "p0", 5)
        assert session.pipe("p0").outputs()["c0"] == 10


class TestConsistencyIntegration:
    def test_stale_checkpoints_detected_after_change(self):
        session, tb = make_session(interval=10)
        session.run(tb, "p0", 35)
        session.apply_change(BUGGY)
        report = session.verify_consistency("p0")
        assert not report.all_consistent
        assert report.divergence_cycle == 0

    def test_repair_reestablishes_truth(self):
        session, tb = make_session(interval=10)
        session.run(tb, "p0", 35)
        session.apply_change(BUGGY)
        estimate = session.pipe("p0").outputs()["c0"]
        session.verify_consistency("p0", repair=True)
        fixed = session.pipe("p0").outputs()["c0"]
        assert fixed == 70  # 35 cycles at +2
        assert fixed != estimate
        # Post-repair, the store is consistent under the new code.
        assert session.verify_consistency("p0").all_consistent

    def test_consistent_when_change_does_not_affect_history(self):
        # Change only counter's reset value: with rst held low the
        # replayed trajectories are identical, so checkpoints verify.
        session, tb = make_session(interval=10)
        session.run(tb, "p0", 25)
        changed = COUNTER_SRC.replace("count_q <= 0;", "count_q <= 8'd99;")
        session.apply_change(changed)
        report = session.verify_consistency("p0")
        assert report.all_consistent

    def test_swap_stage_command(self):
        session, tb = make_session()
        session.run(tb, "p0", 8)
        session.compiler.update_source(BUGGY)
        report = session.swap_stage("p0", "u0.u_add")
        assert report.swapped_instances == 1
        session.run(tb, "p0", 1)
        assert session.pipe("p0").outputs()["c0"] == 10  # +2 on patched u0
        assert session.pipe("p0").outputs()["c1"] == 27  # u1 untouched


class TestTransactionalApplyChange:
    def test_elaboration_failure_rolls_back(self):
        """Deleting a module that is still instantiated fails in
        elaboration; the session must stay on the old design."""
        session, tb = make_session()
        session.run(tb, "p0", 12)
        no_adder = COUNTER_SRC.replace(
            COUNTER_SRC[COUNTER_SRC.index("module adder"):
                        COUNTER_SRC.index("endmodule") + len("endmodule")],
            "",
        )
        from repro.hdl.errors import HDLError

        with pytest.raises(HDLError):
            session.apply_change(no_adder)
        # Old source intact, old version intact, pipe still runs.
        assert "module adder" in session.compiler.source
        assert session.version == "1.0"
        session.run(tb, "p0", 3)
        assert session.pipe("p0").outputs()["c0"] == 15

    def test_failure_then_good_edit_applies(self):
        session, tb = make_session()
        session.run(tb, "p0", 5)
        from repro.hdl.errors import HDLError

        with pytest.raises(HDLError):
            session.apply_change(
                COUNTER_SRC.replace("assign sum = a + b;",
                                    "assign sum = a + ;")
            )
        report = session.apply_change(BUGGY)
        assert report.behavioral
        session.run(tb, "p0", 1)
        assert session.pipe("p0").outputs()["c0"] == 12  # 5*2 replayed + 2


ADDER = COUNTER_SRC[:COUNTER_SRC.index("module counter")]
ADDER_PLUS_ONE = ADDER.replace("assign sum = a + b;",
                               "assign sum = a + b + 8'd1;")


class TestLdLibRedefinition:
    """``ldLib`` of a module the design already defines is an edit."""

    def test_pipes_follow_the_merged_source(self):
        session, tb = make_session(interval=100)  # replay is from reset
        session.run(tb, "p0", 10)
        assert session.ld_lib("fix", ADDER_PLUS_ONE) == []
        assert session.version != "1.0"
        session.run(tb, "p0", 10)
        # What a from-reset run of the session text holds at cycle 20.
        fresh = LiveSession(session.compiler.source)
        fresh.inst_pipe("p0", fresh.stage_handle_for("top"))
        fresh.run(fresh.load_testbench(hold_inputs(rst=0)), "p0", 20)
        assert session.pipe("p0").outputs() == fresh.pipe("p0").outputs()
        assert session.pipe("p0").outputs()["c0"] == 40  # 20 cycles at +2

    def test_additive_library_replays_nothing(self):
        session, tb = make_session()
        session.run(tb, "p0", 10)
        added = session.ld_lib("extras", """
module passthru (input [7:0] v, output [7:0] o);
  assign o = v;
endmodule
""")
        assert len(added) == 1
        assert session.version == "1.0"
        assert session.pipe("p0").cycle == 10

    @pytest.mark.parametrize("broken", [
        ADDER.replace("assign sum = a + b;", "assign sum = a + ;"),
        ADDER.replace("  output [W-1:0] sum\n", "  output [W-1:0] total\n")
             .replace("assign sum", "assign total"),
    ], ids=["syntax", "elaboration"])
    def test_failed_redefinition_changes_nothing(self, broken):
        from repro.hdl.errors import HDLError

        session, tb = make_session()
        session.run(tb, "p0", 12)
        before = session.compiler.source
        with pytest.raises(HDLError):
            session.ld_lib("bad", broken)
        assert session.compiler.source == before
        assert session.version == "1.0"
        session.run(tb, "p0", 3)
        assert session.pipe("p0").outputs()["c0"] == 15

    def test_verify_agrees_in_process_and_on_the_pool(self):
        from repro.sim.testbench import reset_sequence

        session = LiveSession(COUNTER_SRC, checkpoint_interval=10)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        tb = session.load_testbench(reset_sequence("rst", 2), factory=(
            "repro.sim.testbench:reset_sequence",
            {"reset_name": "rst", "cycles": 2},
        ))
        session.run(tb, "p0", 25)
        session.ld_lib("fix", ADDER_PLUS_ONE)
        session.run(tb, "p0", 10)
        try:
            def verdicts(report):
                return [(s.start_cycle, s.end_cycle, s.consistent)
                        for s in report.segments]

            # Checkpoints taken under the old adder are estimates now:
            # both sides replay the same (new) design and say so.
            here = session.verify_consistency("p0")
            pool = session.verify_consistency("p0", workers=2)
            assert pool.workers == 2
            assert here.verdict == pool.verdict == "divergent"
            assert verdicts(here) == verdicts(pool)
            session.verify_consistency("p0", repair=True)
            here = session.verify_consistency("p0")
            pool = session.verify_consistency("p0", workers=2)
            assert here.verdict == pool.verdict == "consistent"
            assert verdicts(here) == verdicts(pool)
        finally:
            session.close()


class TestApplyChangeWithVerify:
    """An edit never verifies; the verify is the next call."""

    def test_verify_on_consistent_history_is_noop(self):
        session, tb = make_session(interval=10)
        session.run(tb, "p0", 25)
        # Change only the reset value: trajectories identical with
        # rst held low, so verification confirms without repair.
        changed = COUNTER_SRC.replace("count_q <= 0;", "count_q <= 8'd9;")
        session.apply_change(changed)
        report = session.verify_consistency("p0", repair=True)
        assert report.all_consistent
        assert session.pipe("p0").outputs()["c0"] == 25


# Module ``a`` (three lines) above ``top``, whose unused wire is on line 6
# and whose truncating register write is on line 9.
ABOVE_TOP = """module a (input x, output y);
  assign y = x;
endmodule
module top (input clk, input [7:0] d, output [3:0] q);
  wire [7:0] w;
  wire spare;
  reg [3:0] r;
  assign w = d;
  always @(posedge clk) r <= w;
  assign q = r;
endmodule
"""


class TestFindingsFollowTheirModule:
    """An edit that moves a module down the file re-derives nothing of
    it (every cache key is position-free), yet its findings report the
    lines it sits on now."""

    @staticmethod
    def _lines(report, kind):
        return [d.line for d in report.diagnostics
                if d.module == "top" and d.kind == kind]

    @pytest.mark.parametrize("added", [
        "  wire z;\n  assign z = x;\n",   # behavioural: `a` recompiles
        "  // one\n  // two\n",           # cosmetic: nothing recompiles
    ])
    def test_static_and_sanitizer_findings_move_with_top(self, added):
        session = LiveSession(ABOVE_TOP, checkpoint_interval=10,
                              sanitize="report")
        session.inst_pipe("p0", session.stage_handle_for("top"))
        session.run(session.load_testbench(hold_inputs(d=1)), "p0", 5)
        lint = session.lint("p0")
        assert self._lines(lint, "unused-signal") == [6]
        assert self._lines(lint, "truncation") == [9]
        row = session.timeline("p0")
        top_parse = session.compiler.parser.region_parse("top")
        top_ir = row.compile_result.netlist.modules["top"]
        top_code = row.compile_result.library["top"]

        report = session.apply_change(
            ABOVE_TOP.replace("  assign y = x;\n", "  assign y = x;\n" + added))
        assert "top" not in report.recompiled_keys
        lint = session.lint("p0")
        assert self._lines(lint, "unused-signal") == [8]
        assert self._lines(lint, "truncation") == [11]
        # The first overflow after the edit is reported where it is now.
        session.run(session.load_testbench(hold_inputs(d=0xFF)), "p0", 3)
        (found,) = [d for d in session.sanitize_runtime.findings
                    if d.kind == "san-trunc-overflow"]
        assert found.line == 11
        # ... and none of it came from a second lex, elaboration or
        # compile of `top`.
        assert session.compiler.parser.region_parse("top") is top_parse
        assert row.compile_result.netlist.modules["top"] is top_ir
        assert row.compile_result.library["top"] is top_code
