"""One rewind: every time-travel in a session (hot reload, repair,
replay window, verification segment, ldch, regression case) picks its
base the same way and means the same thing by power-on.  Each test is
one way the six former copies had diverged."""

import pytest

from repro.hdl.errors import SimulationError
from repro.live.regression import RegressionSuite
from repro.live.session import LiveSession
from repro.live.transform import RegisterTransform, TransformOp
from repro.sim.testbench import CallbackTestbench, hold_inputs, reset_sequence
from tests.conftest import COUNTER_SRC

ACC = """
module acc (
  input clk,
  input rst,
  input [7:0] a,
  output [7:0] sum
);
  reg [7:0] total;
  assign sum = total;
  always @(posedge clk) begin
    if (rst)
      total <= 0;
    else
      total <= total + a;
  end
endmodule
"""
PLUS_ONE = ACC.replace("total + a;", "total + a + 8'd1;")


def two_runs(source, interval):
    """Reset for 2 of 10 cycles (``a`` never driven), then 10 cycles of
    ``a=5`` from a testbench that never touches ``rst``."""
    session = LiveSession(source, checkpoint_interval=interval)
    session.inst_pipe("p0", session.stage_handle_for("acc"))
    session.run(session.load_testbench(reset_sequence("rst", 2)), "p0", 10)
    session.run(session.load_testbench(hold_inputs(a=5)), "p0", 10)
    return session


class TestPowerOnIsPowerOn:
    # A rewind to power-on used to keep the inputs last driven, so the
    # replay of cycles 0-9 saw a=5, which nobody drove until cycle 10.

    def test_hot_reload_without_a_checkpoint_equals_a_fresh_session(self):
        live = two_runs(ACC, interval=1000)
        report = live.apply_change(PLUS_ONE)
        assert report.checkpoint_cycle is None
        assert report.cycles_replayed == 20
        assert live.peek("p0") == two_runs(PLUS_ONE, 1000).peek("p0")
        assert live.peek("p0")["sum"] == 68

    def test_repair_converges(self):
        live = two_runs(ACC, interval=8)
        live.apply_change(PLUS_ONE)
        live.verify_consistency("p0", repair=True)
        second = live.verify_consistency("p0", repair=True)
        assert second.verdict == "consistent" and len(second.segments) == 2
        assert live.peek("p0")["sum"] == 68

    def test_regression_case_from_power_on(self):
        live = two_runs(PLUS_ONE, interval=1000)
        seen = {}
        suite = RegressionSuite(live, "p0")
        suite.add(
            "from-reset", reset_sequence("rst", 2), cycles=10,
            check=lambda pipe: seen.update(pipe.outputs()) or True,
        )
        assert suite.run().passed
        assert seen["sum"] == 8  # eight cycles of a=0, +1 each


def drive_both(pipe):
    pipe.set_inputs(rst=int(pipe.cycle < 2), a=3)


def thirty_cycles(source, interval):
    session = LiveSession(source, checkpoint_interval=interval)
    session.inst_pipe("p0", session.stage_handle_for("acc"))
    tb = session.load_testbench(CallbackTestbench("both", drive=drive_both))
    session.run(tb, "p0", 30)
    return session


class TestAnAdoptedFileReadsInTheCurrentVersion:
    # What ldch adopts from a file keeps the version it was saved in;
    # every restore, the next edit's included, reads it in the current
    # version's names.

    RENAMED = ACC.replace("total", "accum")
    RENAME = {"acc": RegisterTransform(
        [TransformOp("rename", "total", new_name="accum")]
    )}

    def test_a_v1_0_file_adopted_into_a_v1_1_session(self, tmp_path):
        path = str(tmp_path / "v1_0.ckpt")
        thirty_cycles(ACC, interval=10).chkp("p0", path)

        # Same history, no checkpoints of its own, one rename later.
        session = thirty_cycles(ACC, interval=1000)
        session.apply_change(self.RENAMED, transforms=self.RENAME)
        session.ldch("p0", path)
        assert session.peek("p0")["sum"] == 84
        assert session.store("p0").cycles() == [10, 20, 30]
        for checkpoint in session.checkpoints("p0"):
            assert checkpoint.version == "1.0"
            view = session.in_current_version(checkpoint)
            assert view.version == session.version == "1.1"
            assert set(view.snapshot.state.regs) == {"accum"}
        report = session.verify_consistency("p0")
        assert report.verdict == "consistent" and len(report.segments) == 3

        # The next edit reloads checkpoint @10: exactly what a session
        # that took the checkpoints itself does, and from-reset after
        # the backend refinement.
        edited = self.RENAMED.replace("accum + a;", "accum + a + 8'd1;")
        session.apply_change(edited)
        own = thirty_cycles(ACC, interval=10)
        own.apply_change(self.RENAMED, transforms=self.RENAME)
        own.apply_change(edited)
        assert session.peek("p0") == own.peek("p0") == {"sum": 104}
        session.verify_consistency("p0", repair=True)
        assert session.peek("p0") == thirty_cycles(edited, 1000).peek("p0")
        assert session.peek("p0")["sum"] == 112


class TestHistoryWithAHole:
    def _session_with_a_gap(self):
        session = LiveSession(COUNTER_SRC, checkpoint_interval=1000)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        tb = session.load_testbench(hold_inputs(rst=0))
        session.run(tb, "p0", 10)
        session.pipe("p0").step(5)  # behind the session's back
        session.run(tb, "p0", 10)
        return session, tb

    EDIT = COUNTER_SRC.replace(
        "assign sum = a + b;", "assign sum = a + b + 8'd1;"
    )

    def test_an_edit_that_cannot_replay_is_refused_before_the_swap(self):
        session, tb = self._session_with_a_gap()
        before = session.peek("p0")
        with pytest.raises(SimulationError, match=r"cycles 10\.\.14"):
            session.apply_change(self.EDIT)
        assert session.compiler.source == COUNTER_SRC
        assert session.version == "1.0"
        assert session.pipe("p0").cycle == 25
        assert session.peek("p0") == before
        # Refused, not wedged: a checkpoint past the hole is a base.
        session.chkp("p0")
        report = session.apply_change(self.EDIT)
        assert report.checkpoint_cycle == 25 and report.cycles_replayed == 0
        assert session.run(tb, "p0", 1)["c0"] == 27

    def test_base_prefers_what_reload_candidate_picks(self):
        session = LiveSession(
            COUNTER_SRC, checkpoint_interval=10, reload_distance=25
        )
        session.inst_pipe("p0", session.stage_handle_for("top"))
        tb = session.load_testbench(hold_inputs(rst=0))
        session.run(tb, "p0", 45)
        timeline = session.timeline("p0")
        assert timeline.base(45, 25).cycle == 20
        assert timeline.base(45).cycle == 40
        assert timeline.base(7) is None  # power-on: ops reach cycle 0
        # A hole at 45..49: only checkpoints past it are replayable.
        session.pipe("p0").step(5)
        session.run(tb, "p0", 25)
        assert session.store("p0").cycles() == [10, 20, 30, 40, 60, 70]
        assert timeline.base(75, 25).cycle == 60
        assert timeline.base(75).cycle == 70
        assert timeline.base(45, 25).cycle == 20  # before the hole: as ever
        with pytest.raises(SimulationError, match="no checkpoint"):
            timeline.base(49)

    def test_replay_window_refuses_a_window_it_cannot_reach(self):
        session, _ = self._session_with_a_gap()
        assert session.replay_window("p0", 2, 8, ["c0"])["signals"]["c0"] == [
            [c, c] for c in range(2, 8)
        ]
        with pytest.raises(SimulationError, match="never recorded"):
            session.replay_window("p0", 18, 22, ["c0"])
