"""A checkpoint keeps the design version it was taken in.

An edit translates nothing in the store.  Every restore -- an edit's
rewind, ``ldch``, a replay window, a repair, a regression case, the
checkpoints a verification hands its segments -- reads the checkpoint
through one translation, ``LiveSession.in_current_version``, composed
over the Register Transform History (paper Table VI) from the
checkpoint's version to the current one.
"""

import pytest

import repro.live.session as session_module
from repro.hdl.errors import SimulationError
from repro.live.regression import RegressionSuite
from repro.live.session import LiveSession
from repro.live.transform import RegisterTransform, TransformOp
from repro.sim.testbench import hold_inputs
from tests.conftest import TWO_COUNTERS

# ``cnt`` counts by the input, ``acc`` sums it: a restore that loses
# ``cnt`` shows in every later ``y``.
ACC = """
module m (input clk, input [7:0] inc, output [15:0] q, output [15:0] c);
  reg [7:0] cnt;
  reg [15:0] acc;
  assign q = acc;
  assign c = cnt;
  always @(posedge clk) begin
    cnt <= cnt + inc;
    acc <= acc + cnt;
  end
endmodule

module top (input clk, input [7:0] inc, output [15:0] y, output [15:0] z);
  m u (.clk(clk), .inc(inc), .q(y), .c(z));
endmodule
"""


def acc_version(name, width=8, hold=False):
    """ACC with the counter register called ``name``, ``width`` bits
    wide, and with a register ``hold`` that keeps what it has."""
    source = ACC.replace("cnt", name)
    if width != 8:
        source = source.replace(
            f"reg [7:0] {name};", f"reg [{width - 1}:0] {name};"
        )
    if hold:
        source = source.replace(
            "  reg [15:0] acc;\n", "  reg [15:0] acc;\n  reg [3:0] hold;\n"
        ).replace(
            f"    acc <= acc + {name};\n",
            f"    acc <= acc + {name};\n    hold <= hold;\n",
        )
    return source


# Five edits, each of which changes a register: two guessed renames, a
# stated rename that widens the register, a CREATE, a guessed rename.
EDITS = [
    (acc_version("cnt1"), None),
    (acc_version("cnt2"), None),
    (acc_version("wide", 16), {"m": RegisterTransform(
        [TransformOp("rename", "cnt2", new_name="wide")]
    )}),
    (acc_version("wide", 16, hold=True), None),
    (acc_version("wide2", 16, hold=True), None),
]


def five_edits_later(factory=None):
    """Ten cycles and a checkpoint under each of versions 1.0 .. 1.5."""
    session = LiveSession(ACC, checkpoint_interval=10, reload_distance=10)
    session.inst_pipe("p0", session.stage_handle_for("top"))
    tb = session.load_testbench(hold_inputs(inc=3), factory=factory)
    session.run(tb, "p0", 10)
    for source, transforms in EDITS:
        session.apply_change(source, transforms=transforms)
        session.run(tb, "p0", 10)
    return session, tb


class TestFiveVersionsLater:
    def test_each_checkpoint_keeps_its_version(self):
        session, _ = five_edits_later()
        assert session.version == "1.5"
        assert [(c.cycle, c.version) for c in session.checkpoints("p0")] == [
            (10, "1.0"), (20, "1.1"), (30, "1.2"),
            (40, "1.3"), (50, "1.4"), (60, "1.5"),
        ]
        for checkpoint in session.checkpoints("p0"):
            view = session.in_current_version(checkpoint)
            regs = view.snapshot.state.child("u").regs
            assert set(regs) == {"wide2", "acc", "hold"}
            assert regs["wide2"] == 3 * checkpoint.cycle

    def test_verify_is_consistent(self):
        session, _ = five_edits_later()
        report = session.verify_consistency("p0")
        assert report.verdict == "consistent" and len(report.segments) == 6

    def test_pool_workers_get_translated_checkpoints(self):
        session, _ = five_edits_later(
            factory=("repro.sim.testbench:hold_inputs", {"inc": 3})
        )
        try:
            report = session.verify_consistency("p0", workers=2)
        finally:
            session.close()
        assert report.workers == 2
        assert report.verdict == "consistent" and len(report.segments) == 6

    # Per k: the cycle of the checkpoint k versions old, its replay
    # window [cycle, cycle + 4) of y, wide2 and hold, the outputs and
    # wide2 after a regression case started at it (and at cycle + 5)
    # ran 5 cycles, the outputs after ``ldch`` to it and 3 cycles on.
    # The values are those an eager store gives, one that translates
    # every stored checkpoint at each edit.
    EXPECTED = {
        1: (50, [3675, 3825, 3978, 4134], [150, 153, 156, 159],
            ({"y": 4455, "z": 165}, 165), ({"y": 5310, "z": 180}, 180),
            {"y": 3675, "z": 150}, {"y": 4134, "z": 159}),
        2: (40, [2340, 2460, 2583, 2709], [120, 123, 126, 129],
            ({"y": 2970, "z": 135}, 135), ({"y": 3675, "z": 150}, 150),
            {"y": 2340, "z": 120}, {"y": 2709, "z": 129}),
        3: (30, [1305, 1395, 1488, 1584], [90, 93, 96, 99],
            ({"y": 1785, "z": 105}, 105), ({"y": 2340, "z": 120}, 120),
            {"y": 1305, "z": 90}, {"y": 1584, "z": 99}),
        4: (20, [570, 630, 693, 759], [60, 63, 66, 69],
            ({"y": 900, "z": 75}, 75), ({"y": 1305, "z": 90}, 90),
            {"y": 570, "z": 60}, {"y": 759, "z": 69}),
        5: (10, [135, 165, 198, 234], [30, 33, 36, 39],
            ({"y": 315, "z": 45}, 45), ({"y": 570, "z": 60}, 60),
            {"y": 135, "z": 30}, {"y": 234, "z": 39}),
    }

    @pytest.mark.parametrize("k", sorted(EXPECTED))
    def test_a_checkpoint_k_versions_old(self, k):
        cycle, ys, wides, from_checkpoint, from_cycle, loaded, later = (
            self.EXPECTED[k]
        )
        session, tb = five_edits_later()
        checkpoint = session.checkpoints("p0")[5 - k]
        assert checkpoint.cycle == cycle
        assert checkpoint.version == f"1.{5 - k}"

        window = session.replay_window(
            "p0", cycle, cycle + 4, signals=["y", "u.wide2", "u.hold"]
        )
        assert window["base_cycle"] == cycle
        samples = {
            name: [value for _, value in values]
            for name, values in window["signals"].items()
        }
        assert samples == {"y": ys, "u.wide2": wides, "u.hold": [0] * 4}

        seen = {}

        def record(name):
            def check(pipe):
                seen[name] = (pipe.outputs(), pipe.find("u").peek_reg("wide2"))
                return True
            return check

        suite = RegressionSuite(session, "p0")
        suite.add("checkpoint", session.testbench(tb), 5,
                  record("checkpoint"), start=checkpoint)
        suite.add("cycle", session.testbench(tb), 5,
                  record("cycle"), start=cycle + 5)
        assert suite.run().passed
        assert seen == {"checkpoint": from_checkpoint, "cycle": from_cycle}

        session.ldch("p0", checkpoint)
        assert session.peek("p0") == loaded
        assert session.pipe("p0").find("u").peek_reg("wide2") == loaded["z"]
        session.run(tb, "p0", 3)
        assert session.peek("p0") == later

    def test_repair_rewinds_through_the_translation(self):
        session, tb = five_edits_later()
        # Double the sum: every stored delta is stale from cycle 0 on.
        doubled = acc_version("wide2", 16, hold=True).replace(
            "acc <= acc + wide2;", "acc <= acc + wide2 + wide2;"
        )
        session.apply_change(doubled)
        session.verify_consistency("p0", repair=True)
        # 2 * 3 * (0 + 1 + ... + 59): from reset, under the new sum.
        assert session.peek("p0") == {"y": 6 * 1770, "z": 180}
        assert session.verify_consistency("p0").verdict == "consistent"


class TestOneTranslationPerReload:
    RENAMED = TWO_COUNTERS.replace("cnt_a", "cnt_a2").replace(
        "cnt_b", "cnt_b2"
    )
    FASTER = TWO_COUNTERS.replace("8'd3", "8'd5")

    def _session(self):
        session = LiveSession(
            TWO_COUNTERS, checkpoint_interval=10, reload_distance=10
        )
        tb = session.load_testbench(hold_inputs())
        for pipe in ("p0", "p1"):
            session.inst_pipe(pipe, session.stage_handle_for("top"))
            session.run(tb, pipe, 200)
            assert len(session.checkpoints(pipe)) == 20
        return session

    @pytest.fixture
    def translations(self, monkeypatch):
        calls = []
        real = session_module.translate_snapshot

        def counted(snap, *args):
            calls.append(snap)
            return real(snap, *args)

        monkeypatch.setattr(session_module, "translate_snapshot", counted)
        return calls

    def test_a_register_changing_edit_translates_each_base(
        self, translations
    ):
        session = self._session()
        report = session.apply_change(self.RENAMED)
        assert report.checkpoint_cycle == 190
        assert len(translations) == 2  # one base per pipe
        for pipe in ("p0", "p1"):
            assert session.peek(pipe) == {"y": 800 % 256}
            assert session.pipe(pipe).find("ub").peek_reg("cnt_b2") == (
                600 % 256
            )
            assert {c.version for c in session.checkpoints(pipe)} == {"1.0"}

    def test_an_identity_edit_touches_no_checkpoint(self, translations):
        session = self._session()
        before = {
            pipe: [(c, c.snapshot, c.version)
                   for c in session.checkpoints(pipe)]
            for pipe in ("p0", "p1")
        }
        session.apply_change(self.FASTER)
        assert session.version == "1.1"
        assert translations == []
        for pipe, kept in before.items():
            stored = session.checkpoints(pipe)
            assert len(stored) == len(kept) == 20
            for checkpoint, (was, snapshot, version) in zip(stored, kept):
                assert checkpoint is was
                assert checkpoint.snapshot is snapshot
                assert checkpoint.version is version


class TestForeignVersionsAreRefused:
    def test_ldch_of_a_version_the_history_lacks(self, tmp_path):
        path = str(tmp_path / "later.ckpt")
        donor = LiveSession(TWO_COUNTERS, checkpoint_interval=10)
        donor.inst_pipe("p0", donor.stage_handle_for("top"))
        donor.run(donor.load_testbench(hold_inputs()), "p0", 20)
        donor.apply_change(TWO_COUNTERS.replace("cnt_a", "cnt_a2"))
        donor.apply_change(TWO_COUNTERS.replace("cnt_a", "cnt_a3"))
        donor.chkp("p0", path)
        held = donor.checkpoints("p0")[-1]
        assert held.version == "1.2"

        session = LiveSession(TWO_COUNTERS, checkpoint_interval=10)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        session.run(session.load_testbench(hold_inputs()), "p0", 15)
        before = (
            session.peek("p0"), session.pipe("p0").cycle,
            session.checkpoints("p0"), session.ops("p0"),
        )
        for source in (path, held):
            with pytest.raises(SimulationError, match="'1.2'"):
                session.ldch("p0", source)
            assert (
                session.peek("p0"), session.pipe("p0").cycle,
                session.checkpoints("p0"), session.ops("p0"),
            ) == before


class TestASnapshotNamesItsOwnModule:
    # A checkpoint from before a rename, restored after an edit that
    # changed the renamed module's specialization key: the rename must
    # still find it.  Looked up by the key in the current netlist, it
    # would not.
    STEPPED = """
module m #(parameter STEP = 1) (input clk, output [7:0] q);
  reg [7:0] cnt;
  assign q = cnt;
  always @(posedge clk) cnt <= cnt + STEP;
endmodule

module top (input clk, output [7:0] y);
  m #(.STEP(1)) u (.clk(clk), .q(y));
endmodule
"""

    def test_rename_then_parameter_change(self):
        session = LiveSession(
            self.STEPPED, checkpoint_interval=10, reload_distance=10
        )
        session.inst_pipe("p0", session.stage_handle_for("top"))
        session.run(session.load_testbench(hold_inputs()), "p0", 50)
        renamed = self.STEPPED.replace("cnt", "count")
        assert session.apply_change(renamed).checkpoint_cycle == 40
        assert session.peek("p0") == {"y": 50}
        report = session.apply_change(renamed.replace(".STEP(1)", ".STEP(2)"))
        assert report.checkpoint_cycle == 40
        assert session.pipe("p0").find("u").code.key == "m#(STEP=2)"
        assert session.peek("p0") == {"y": 40 + 2 * 10}
