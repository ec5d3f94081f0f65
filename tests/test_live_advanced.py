"""Advanced live-flow scenarios: directive-driven recompiles, probes
across hot reloads, GC under long sessions, and a 4x4 end-to-end."""

import pytest

from repro.live.checkpoint import GCPolicy
from repro.live.session import LiveSession
from repro.sim.testbench import hold_inputs
from tests.conftest import COUNTER_SRC

DIRECTIVE_DESIGN = """\
`define STEP 8'd1

module ticker (
  input clk,
  input rst,
  output [7:0] count
);
  reg [7:0] q;
  assign count = q;
  always @(posedge clk) begin
    if (rst)
      q <= 0;
    else
      q <= q + `STEP;
  end
endmodule

module top (
  input clk,
  input rst,
  output [7:0] c
);
  ticker u0 (.clk(clk), .rst(rst), .count(c));
endmodule
"""


class TestDirectiveDrivenChange:
    def test_define_edit_recompiles_poisoned_modules(self):
        session = LiveSession(DIRECTIVE_DESIGN, checkpoint_interval=10)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        tb = session.load_testbench(hold_inputs(rst=0))
        session.run(tb, "p0", 30)
        assert session.pipe("p0").outputs()["c"] == 30

        edited = DIRECTIVE_DESIGN.replace("`define STEP 8'd1",
                                          "`define STEP 8'd4")
        report = session.apply_change(edited)
        assert report.behavioral
        # Everything below the directive recompiles — both modules.
        assert sorted(report.recompiled_keys) == ["ticker", "top"]
        session.run(tb, "p0", 1)
        # Replayed from checkpoint 10 at +4/cycle, then one more cycle.
        assert session.pipe("p0").outputs()["c"] == (10 + 4 * 20 + 4) & 0xFF

    def test_ifdef_toggle_changes_structure(self):
        source = """\
`define FAST

module top (
  input clk,
  input rst,
  output [7:0] c
);
  reg [7:0] q;
  assign c = q;
  always @(posedge clk) begin
    if (rst)
      q <= 0;
`ifdef FAST
    else
      q <= q + 8'd10;
`else
    else
      q <= q + 8'd1;
`endif
  end
endmodule
"""
        session = LiveSession(source, checkpoint_interval=100)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        tb = session.load_testbench(hold_inputs(rst=0))
        session.run(tb, "p0", 3)
        assert session.pipe("p0").outputs()["c"] == 30
        session.apply_change(source.replace("`define FAST\n", "\n"))
        # No checkpoints yet: the estimate replays from reset with the
        # +1 logic (3 cycles -> 3), then one more cycle.
        session.run(tb, "p0", 1)
        assert session.pipe("p0").outputs()["c"] == 4


class TestProbesAcrossReload:
    def test_recorder_survives_hot_swap(self):
        session = LiveSession(COUNTER_SRC, checkpoint_interval=1000)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        session.watch("p0", "u0.count_q")
        tb = session.load_testbench(hold_inputs(rst=0))

        session.run(tb, "p0", 5)
        session.apply_change(
            COUNTER_SRC.replace("assign sum = a + b;",
                                "assign sum = a + b + 8'd1;")
        )
        session.run(tb, "p0", 3)
        # No checkpoints: the estimate replayed 0..5 with the +2 adder,
        # re-capturing those cycles and leaving count=10; three more
        # cycles sample 10/12/14.
        samples = session.trace_read("p0", "u0.count_q")["samples"]
        assert samples == [[c, 2 * c] for c in range(8)]


class TestGCUnderLongSessions:
    def test_store_population_bounded_during_run(self):
        session = LiveSession(
            COUNTER_SRC,
            checkpoint_interval=2,
            gc_policy=GCPolicy(keep_latest=5, older_budget=4),
        )
        session.inst_pipe("p0", session.stage_handle_for("top"))
        tb = session.load_testbench(hold_inputs(rst=0))
        session.run(tb, "p0", 100)
        store = session.store("p0")
        assert len(store) <= 9
        assert store.total_collected > 0
        # The newest checkpoints are all present and reload works.
        newest = store.all()[-1]
        assert newest.cycle == 100
        session.ldch("p0", newest)
        assert session.pipe("p0").cycle == 100

    def test_reload_candidate_from_thinned_store(self):
        session = LiveSession(
            COUNTER_SRC,
            checkpoint_interval=2,
            reload_distance=4,
            gc_policy=GCPolicy(keep_latest=4, older_budget=3),
        )
        session.inst_pipe("p0", session.stage_handle_for("top"))
        tb = session.load_testbench(hold_inputs(rst=0))
        session.run(tb, "p0", 60)
        report = session.apply_change(
            COUNTER_SRC.replace("assign sum = a + b;",
                                "assign sum = a ^ b;")
        )
        # Reload picked from the surviving (recent) window.
        assert report.checkpoint_cycle is not None
        assert report.checkpoint_cycle >= 50


@pytest.mark.slow
class TestLargeMeshEndToEnd:
    def test_4x4_live_debug_loop(self):
        """The full story at 16 cores: run, patch one stage, estimate,
        verify, repair — everything the paper's Fig. 1(b) shows."""
        from repro.riscv import build_pgas_source
        from repro.riscv.patches import get_patch
        from repro.riscv.programs import (
            boot_program,
            boot_program_spec,
            node_result,
        )

        countdown = """
    li   s0, 1000000
loop:
    addi s0, s0, -1
    sd   s0, 0x200(zero)
    bnez s0, loop
    ecall
"""
        patch = get_patch("id-imm-sign")
        session = LiveSession(
            patch.inject(build_pgas_source(4)),
            checkpoint_interval=40,
            reload_distance=50,
        )
        session.inst_pipe("uut", session.stage_handle_for("pgas_mesh_4x4"))
        tb = session.load_testbench(
            boot_program(countdown, count=16),
            factory=boot_program_spec(countdown, count=16),
        )
        session.run(tb, "uut", 120)
        pipe = session.pipe("uut")
        assert node_result(pipe, 0) > 1_000_000  # bug: counting up

        report = session.apply_change(patch.fix(session.compiler.source))
        assert report.recompiled_keys == ["rv_id"]
        assert report.swapped_instances == 16
        assert report.within_two_seconds

        verdict = session.verify_consistency("uut", repair=True)
        assert not verdict.all_consistent  # history was bug-tainted
        for node in range(16):
            result = node_result(pipe, node)
            assert 0 < result < 1_000_000  # all 16 cores fixed
        assert session.verify_consistency("uut").all_consistent
