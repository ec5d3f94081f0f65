"""repro.analyze tests: the semantic checks, the fingerprint-cached
analyzer, the hot-reload gate, line attribution after incremental
edits, and the repro.analyze/v1 CLI + baseline diff."""

import glob
import json
import os
import re

import pytest

from repro import obs
from repro.analyze import (
    COMB_LOOP,
    DEAD_BRANCH,
    LATCH,
    MULTI_DRIVER,
    NB_RACE,
    OOB_INDEX,
    PROVED_CONDITION,
    SEVERITY_ERROR,
    TRUNC_LOSS,
    UNREACHABLE_ARM,
    Analyzer,
    Diagnostic,
    GateBlockedError,
    diff_reports,
    evaluate_gate,
    load_report,
)
from repro.analyze.__main__ import main as analyze_main
from repro.codegen.build import CACHE_GENERATIONS, OPT_LEVELS
from repro.hdl import elaborate, parse
from repro.live.session import LiveSession
from repro.sim.testbench import hold_inputs
from tests.conftest import COUNTER_SRC


def analyze_source(source, top):
    netlist = elaborate(parse(source), top)
    return Analyzer().analyze_netlist(netlist)


def kinds_of(report):
    return [d.kind for d in report.diagnostics]


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


PQ_LOOP = """
module m(input [3:0] a, output [3:0] y);
  wire [3:0] p;
  wire [3:0] q;
  assign p = q & a;
  assign q = p | 4'd1;
  assign y = p;
endmodule
"""


class TestCombLoop:
    def test_assign_cycle_reports_full_path(self):
        report = analyze_source(PQ_LOOP, "m")
        loops = report.findings(SEVERITY_ERROR)
        assert len(loops) == 1
        diag = loops[0]
        assert diag.kind == COMB_LOOP
        assert set(diag.path) == {"p", "q"}
        assert diag.path[0] == diag.path[-1]  # closed cycle
        assert "p" in diag.message and "q" in diag.message

    def test_register_breaks_the_path(self):
        report = analyze_source("""
module m(input clk, input [3:0] a, output [3:0] y);
  reg [3:0] q;
  wire [3:0] p;
  assign p = q & a;
  always @(posedge clk) q <= p;
  assign y = p;
endmodule
""", "m")
        assert COMB_LOOP not in kinds_of(report)

    def test_loop_through_child_instance(self):
        report = analyze_source("""
module inv(input [3:0] x, output [3:0] y);
  assign y = ~x;
endmodule

module m(input clk, output [3:0] out);
  wire [3:0] fwd;
  wire [3:0] back;
  inv u0 (.x(fwd), .y(back));
  assign fwd = back ^ 4'd5;
  assign out = fwd;
endmodule
""", "m")
        loops = [d for d in report.diagnostics if d.kind == COMB_LOOP]
        assert len(loops) == 1
        assert loops[0].module == "m"

    def test_registered_child_output_breaks_loop(self):
        report = analyze_source("""
module dff(input clk, input [3:0] d, output [3:0] q);
  reg [3:0] q_r;
  always @(posedge clk) q_r <= d;
  assign q = q_r;
endmodule

module m(input clk, output [3:0] out);
  wire [3:0] fwd;
  wire [3:0] back;
  dff u0 (.clk(clk), .d(fwd), .q(back));
  assign fwd = back ^ 4'd5;
  assign out = fwd;
endmodule
""", "m")
        assert COMB_LOOP not in kinds_of(report)


MULTI_SRC = """
module m(input clk, input [3:0] a, output [3:0] y);
  reg [3:0] q;
  always @(posedge clk) q <= a;
  always @(posedge clk) q <= a + 4'd1;
  assign y = q;
endmodule
"""


class TestMultiDriver:
    def test_two_seq_blocks_same_register(self):
        report = analyze_source(MULTI_SRC, "m")
        conflicts = [d for d in report.diagnostics if d.kind == MULTI_DRIVER]
        assert len(conflicts) == 1
        assert conflicts[0].severity == SEVERITY_ERROR
        assert "'q'" in conflicts[0].message

    def test_memory_written_from_two_blocks(self):
        report = analyze_source("""
module m(input clk, input [3:0] a, input [1:0] wa, output [3:0] y);
  reg [3:0] mem [0:3];
  always @(posedge clk) mem[wa] <= a;
  always @(posedge clk) mem[2'd0] <= 4'd7;
  assign y = mem[wa];
endmodule
""", "m")
        conflicts = [d for d in report.diagnostics if d.kind == MULTI_DRIVER]
        assert len(conflicts) == 1
        assert "memory 'mem'" in conflicts[0].message

    def test_single_writer_is_quiet(self):
        report = analyze_source(COUNTER_SRC, "top")
        assert MULTI_DRIVER not in kinds_of(report)


class TestLatch:
    def test_if_without_else_infers_latch(self):
        report = analyze_source("""
module m(input sel, input [3:0] a, output [3:0] y);
  reg [3:0] v;
  always @(*) begin
    if (sel)
      v = a;
  end
  assign y = v;
endmodule
""", "m")
        latches = [d for d in report.diagnostics if d.kind == LATCH]
        assert len(latches) == 1
        assert "'v'" in latches[0].message

    def test_complete_if_else_is_quiet(self):
        report = analyze_source("""
module m(input sel, input [3:0] a, output [3:0] y);
  reg [3:0] v;
  always @(*) begin
    if (sel)
      v = a;
    else
      v = 4'd0;
  end
  assign y = v;
endmodule
""", "m")
        assert LATCH not in kinds_of(report)

    def test_case_with_default_is_quiet(self):
        report = analyze_source("""
module m(input [1:0] sel, input [3:0] a, output [3:0] y);
  reg [3:0] v;
  always @(*) begin
    case (sel)
      2'd0: v = a;
      2'd1: v = ~a;
      default: v = 4'd0;
    endcase
  end
  assign y = v;
endmodule
""", "m")
        assert LATCH not in kinds_of(report)

    def test_case_without_default_infers_latch(self):
        report = analyze_source("""
module m(input [1:0] sel, input [3:0] a, output [3:0] y);
  reg [3:0] v;
  always @(*) begin
    case (sel)
      2'd0: v = a;
      2'd1: v = ~a;
    endcase
  end
  assign y = v;
endmodule
""", "m")
        assert LATCH in kinds_of(report)


RACE_SRC = """
module m(input clk, input [7:0] a, input [7:0] b, output [7:0] y);
  reg [7:0] merged;
  always @(posedge clk) begin
    merged[3:0] <= a[3:0];
  end
  always @(posedge clk) begin
    merged <= b;
  end
  assign y = merged;
endmodule
"""


class TestRace:
    def test_partial_write_against_sibling_writer(self):
        report = analyze_source(RACE_SRC, "m")
        races = [d for d in report.diagnostics if d.kind == NB_RACE]
        assert len(races) == 1
        assert races[0].severity == SEVERITY_ERROR
        assert "'merged'" in races[0].message

    def test_partial_writes_in_one_block_are_fine(self):
        report = analyze_source("""
module m(input clk, input [7:0] a, output [7:0] y);
  reg [7:0] v;
  always @(posedge clk) begin
    v[3:0] <= a[3:0];
    v[7:4] <= a[7:4];
  end
  assign y = v;
endmodule
""", "m")
        assert NB_RACE not in kinds_of(report)


class TestDeadBranch:
    def test_constant_if_condition(self):
        report = analyze_source("""
module m #(parameter W = 4) (input clk, input [3:0] a, output [3:0] y);
  reg [3:0] v;
  always @(posedge clk) begin
    if (W == 8)
      v <= a;
    else
      v <= ~a;
  end
  assign y = v;
endmodule
""", "m")
        dead = [d for d in report.diagnostics if d.kind == DEAD_BRANCH]
        assert len(dead) == 1
        assert "then-branch is unreachable" in dead[0].message

    def test_duplicate_case_labels(self):
        report = analyze_source("""
module m(input clk, input [1:0] sel, input [3:0] a, output [3:0] y);
  reg [3:0] v;
  always @(posedge clk) begin
    case (sel)
      2'd0: v <= a;
      2'd0: v <= ~a;
      default: v <= 4'd0;
    endcase
  end
  assign y = v;
endmodule
""", "m")
        dead = [d for d in report.diagnostics if d.kind == DEAD_BRANCH]
        assert len(dead) == 1
        assert "already matched" in dead[0].message

    def test_clean_design_has_no_findings(self):
        report = analyze_source(COUNTER_SRC, "top")
        assert report.diagnostics == []


VR_OOB_SRC = """
module m (
  input clk,
  input [7:0] a,
  output [7:0] y
);
  wire [3:0] idx;
  wire [7:0] mem_out;
  reg [7:0] store [0:7];
  assign idx = {2'd2, a[1:0]};
  assign mem_out = store[idx];
  assign y = mem_out;
endmodule
"""

VR_PROVED_SRC = """
module m (
  input clk,
  input [7:0] a,
  output [7:0] y,
  output [7:0] w
);
  wire [7:0] b;
  assign b = a & 8'h0F;
  assign y = (b < 8'd16) ? b : 8'd0;
  always @(*) begin
    case (b)
      8'd200: w = 8'd1;
      default: w = 8'd0;
    endcase
  end
endmodule
"""

VR_TRUNC_SRC = """
module m (
  input clk,
  input [7:0] a,
  output [1:0] z
);
  wire [7:0] big;
  assign big = (a & 8'h07) + 8'd9;
  assign z = big[7:0];
endmodule
"""


class TestValueRangeCheck:
    def test_provable_oob_memory_index_is_an_error(self):
        report = analyze_source(VR_OOB_SRC, "m")
        oob = [d for d in report.diagnostics if d.kind == OOB_INDEX]
        assert len(oob) == 1
        assert oob[0].severity == SEVERITY_ERROR
        assert "'store'" in oob[0].message
        assert ">= bound 8" in oob[0].message
        # The derivation chain walks back to the module input.
        assert oob[0].notes
        assert any("idx" in note for note in oob[0].notes)
        assert any("module input" in note for note in oob[0].notes)

    def test_in_bounds_dynamic_index_is_quiet(self):
        quiet = VR_OOB_SRC.replace("{2'd2, a[1:0]}", "{2'd1, a[1:0]}")
        report = analyze_source(quiet, "m")
        assert OOB_INDEX not in kinds_of(report)

    def test_provably_true_condition_and_dead_arm(self):
        report = analyze_source(VR_PROVED_SRC, "m")
        proved = [d for d in report.diagnostics
                  if d.kind == PROVED_CONDITION]
        assert len(proved) == 1
        assert "always true" in proved[0].message
        arms = [d for d in report.diagnostics if d.kind == UNREACHABLE_ARM]
        assert len(arms) == 1
        assert "provably unmatchable" in arms[0].message

    def test_provable_truncation_loss(self):
        report = analyze_source(VR_TRUNC_SRC, "m")
        lossy = [d for d in report.diagnostics if d.kind == TRUNC_LOSS]
        assert len(lossy) == 1
        assert "'z'" in lossy[0].message
        # explain() renders the chain indented under the finding.
        rendered = lossy[0].explain()
        assert rendered.startswith(f"[{TRUNC_LOSS}]")
        assert "\n    " in rendered

    def test_input_driven_condition_is_quiet(self):
        report = analyze_source("""
module m(input [7:0] a, output [7:0] y);
  assign y = (a < 8'd16) ? a : 8'd0;
endmodule
""", "m")
        assert PROVED_CONDITION not in kinds_of(report)

    def test_counter_design_stays_clean(self):
        report = analyze_source(COUNTER_SRC, "top")
        assert report.diagnostics == []

    def test_notes_survive_json_roundtrip(self):
        report = analyze_source(VR_OOB_SRC, "m")
        oob = next(d for d in report.diagnostics if d.kind == OOB_INDEX)
        data = oob.to_json()
        assert data["notes"] == list(oob.notes)

    def test_parent_edit_changing_facts_reanalyzes_child(self):
        # Cross-module flow: the child's findings depend on the value
        # the parent feeds it, so a parent-side edit must re-analyze
        # the child even though the child's fingerprint is unchanged.
        parent = """
module child(input [7:0] v, output [7:0] y);
  reg [7:0] store [0:7];
  assign y = store[v[3:0]];
endmodule

module m(input clk, input [7:0] a, output [7:0] out);
  wire [7:0] fed;
  assign fed = a & 8'h07;
  child u0 (.v(fed), .y(out));
endmodule
"""
        session = LiveSession(parent)
        session.inst_pipe("p0", session.stage_handle_for("m"))
        first = session.lint("p0")
        assert OOB_INDEX not in [d.kind for d in first.diagnostics]
        edited = parent.replace("a & 8'h07", "(a & 8'h07) + 8'd8")
        # The proof lands in *child* (unedited) and, being error-class,
        # the gate blocks the swap outright.
        with pytest.raises(GateBlockedError) as excinfo:
            session.apply_change(edited)
        blocked = excinfo.value.diagnostics
        assert any(
            d.kind == OOB_INDEX and d.module == "child" for d in blocked
        )


# ---------------------------------------------------------------------------
# Analyzer cache
# ---------------------------------------------------------------------------


class TestAnalyzerCache:
    def test_uncached_without_fingerprints(self):
        netlist = elaborate(parse(COUNTER_SRC), "top")
        analyzer = Analyzer()
        analyzer.analyze_netlist(netlist)
        assert analyzer.cache_size() == 0

    def test_noop_reanalysis_reuses_everything(self):
        session = LiveSession(COUNTER_SRC)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        first = session.lint("p0")
        assert first.reused_keys  # inst_pipe seeded the cache
        second = session.lint("p0")
        assert second.analyzed_keys == []
        assert sorted(second.reused_keys) == sorted(
            first.analyzed_keys + first.reused_keys
        )

    def test_single_module_edit_reanalyzes_only_that_module(self):
        session = LiveSession(COUNTER_SRC)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        edited = COUNTER_SRC.replace("assign sum = a + b;",
                                     "assign sum = a + b + 8'd1;")
        report = session.apply_change(edited)
        # adder's body changed; its comb signature (per-output deps)
        # did not, so top/counter reuse their cached analyses.
        assert [k.split("#")[0] for k in report.analyzed_keys] == ["adder"]
        assert len(report.analysis_reused_keys) >= 2

    def test_bound_holds_generations(self):
        session = LiveSession(COUNTER_SRC)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        metrics = obs.get_metrics()
        before = metrics.counter("analyze.cache_evicted")
        for step in range(6):
            session.apply_change(COUNTER_SRC.replace(
                "assign sum = a + b", f"assign sum = a + b + 8'd{step + 1}",
            ))
        # Seven adder generations, bounded; counter/top stay at one.
        assert session.analyzer.cache_size() == 2 + CACHE_GENERATIONS
        assert metrics.counter("analyze.cache_evicted") == before + 3
        assert session.lint("p0").analyzed_keys == []


# ---------------------------------------------------------------------------
# The gate
# ---------------------------------------------------------------------------

LOOPY = COUNTER_SRC.replace(
    "  counter #(.W(8)) u1",
    "  wire [7:0] fb;\n"
    "  assign fb = fb & c0;\n"
    "  counter #(.W(8)) u1",
)


def make_session():
    session = LiveSession(COUNTER_SRC, checkpoint_interval=10)
    session.inst_pipe("p0", session.stage_handle_for("top"))
    tb = session.load_testbench(hold_inputs(rst=0))
    return session, tb


class TestGatePolicyUnit:
    def _err(self, message="boom"):
        return Diagnostic(COMB_LOOP, "m", message, 3, SEVERITY_ERROR)

    def test_new_error_blocks(self):
        decision = evaluate_gate([], [self._err()])
        assert not decision.allowed
        with pytest.raises(GateBlockedError, match="boom"):
            decision.raise_if_blocked()

    def test_preexisting_finding_does_not_block(self):
        diag = self._err()
        decision = evaluate_gate([diag], [diag])
        assert decision.allowed and decision.new_findings == []

    def test_override_lets_it_through(self):
        decision = evaluate_gate([], [self._err()], override=True)
        assert decision.allowed and decision.overridden
        assert decision.blocking  # recorded even though allowed

    def test_new_warning_never_blocks(self):
        diag = Diagnostic(LATCH, "m", "latchy", 3, "warning")
        decision = evaluate_gate([], [diag])
        assert decision.allowed and decision.new_findings == [diag]
        assert decision.blocking == []


class TestGateLive:
    def test_comb_loop_reload_blocked_and_rolled_back(self):
        session, tb = make_session()
        session.run(tb, "p0", 30)
        with pytest.raises(GateBlockedError) as excinfo:
            session.apply_change(LOOPY)
        # The error names the cycle path and the override escape hatch.
        assert "comb-loop" in str(excinfo.value)
        assert "fb" in str(excinfo.value)
        assert "override" in str(excinfo.value)
        assert excinfo.value.diagnostics[0].path  # full path attached
        # Transactional: source and simulation state are untouched.
        assert session.compiler.source == COUNTER_SRC
        assert session.version == "1.0"
        assert session.pipe("p0").cycle == 30
        session.run(tb, "p0", 5)
        assert session.peek("p0")["c0"] == 35

    def test_override_forces_the_swap_and_rebaselines(self):
        session, tb = make_session()
        session.run(tb, "p0", 30)
        report = session.apply_change(LOOPY, override_gate=True)
        assert report.gate_overridden
        assert any(d.kind == COMB_LOOP for d in report.new_findings)
        assert session.compiler.source == LOOPY
        # The accepted loop is now baseline: further edits elsewhere
        # are not re-blocked by it.
        edited = LOOPY.replace("assign sum = a + b;",
                               "assign sum = a + b + 8'd1;")
        report = session.apply_change(edited)
        assert not report.gate_overridden
        assert all(d.kind != COMB_LOOP for d in report.new_findings)

    def test_preexisting_loop_does_not_wedge_edits(self):
        session = LiveSession(LOOPY)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        edited = LOOPY.replace("assign sum = a + b;",
                               "assign sum = a + b + 8'd1;")
        report = session.apply_change(edited)  # must not raise
        assert report.behavioral

    def test_a_new_reader_of_a_baseline_loop_does_not_block(self):
        # The rendered path is part of the loop's gate identity, so it
        # must not depend on which signal outside the loop reads it.
        session = LiveSession(PQ_LOOP)
        session.inst_pipe("p0", session.stage_handle_for("m"))
        edited = PQ_LOOP.replace(
            "  assign y = p;",
            "  wire [3:0] a0;\n  assign a0 = q;\n  assign y = p ^ a0;",
        )
        report = session.apply_change(edited)  # must not raise
        assert not report.gate_overridden
        assert report.new_findings == []

    def test_erd_report_carries_analysis_accounting(self):
        session, tb = make_session()
        edited = COUNTER_SRC.replace("assign sum = a + b;",
                                     "assign sum = a + b + 8'd1;")
        report = session.apply_change(edited)
        assert report.analyze_seconds >= 0.0
        assert report.analyzed_keys and report.analysis_reused_keys
        assert report.diagnostics == [] and report.new_findings == []


# ---------------------------------------------------------------------------
# Line attribution through incremental edits
# ---------------------------------------------------------------------------


class TestLineAttribution:
    def test_incremental_region_reparse_keeps_absolute_lines(self):
        session = LiveSession(COUNTER_SRC)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        # Introduce a latch inside counter (the second module): the
        # edit is region-local, so the incremental path re-parses just
        # that region — lines must still be file-absolute.
        edited = COUNTER_SRC.replace(
            "  assign count = count_q;",
            "  reg [W-1:0] shadow;\n"
            "  always @(*) begin\n"
            "    if (rst)\n"
            "      shadow = count_q;\n"
            "  end\n"
            "  assign count = count_q;",
        )
        report = session.apply_change(edited)
        latches = [d for d in report.new_findings if d.kind == LATCH]
        assert len(latches) == 1
        lines = edited.splitlines()
        assert latches[0].line > 0
        assert "shadow = count_q;" in lines[latches[0].line - 1]

    def test_module_ast_lines_match_file_after_incremental_edit(self):
        from repro.live.compiler_live import LiveCompiler

        compiler = LiveCompiler(COUNTER_SRC)
        before = compiler.design.modules["counter"].always_blocks[0].line
        edited = COUNTER_SRC.replace("count_q <= next;",
                                     "count_q <= next + 8'd0;")
        result = compiler.update_source(edited)
        assert result.changed_modules == {"counter"}
        after = compiler.design.modules["counter"].always_blocks[0].line
        assert after == before  # absolute, not region-relative


# ---------------------------------------------------------------------------
# CLI + repro.analyze/v1 reports
# ---------------------------------------------------------------------------


class TestCli:
    def _write_designs(self, tmp_path):
        clean = tmp_path / "clean.v"
        clean.write_text(COUNTER_SRC)
        racy = tmp_path / "racy.v"
        racy.write_text(RACE_SRC)
        return clean, racy

    def test_report_schema_and_exit_zero(self, tmp_path, capsys):
        clean, racy = self._write_designs(tmp_path)
        out = tmp_path / "report.json"
        code = analyze_main(
            [str(clean), str(racy), "--json", str(out), "--quiet"]
        )
        assert code == 0
        report = load_report(str(out))
        assert report["schema"] == "repro.analyze/v1"
        entries = {e["design"]: e for e in report["designs"]}
        assert len(entries) == 2
        racy_entry = next(
            e for d, e in entries.items() if d.endswith("racy.v")
        )
        assert racy_entry["counts"]["error"] == 2  # nb-race + multi-driver
        assert {f["kind"] for f in racy_entry["findings"]} == {
            NB_RACE, MULTI_DRIVER,
        }

    def test_baseline_match_and_mismatch(self, tmp_path, capsys):
        clean, racy = self._write_designs(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert analyze_main(
            [str(clean), str(racy), "--json", str(baseline), "--quiet"]
        ) == 0
        # Identical run: baseline matches, exit 0.
        assert analyze_main(
            [str(clean), str(racy), "--baseline", str(baseline), "--quiet"]
        ) == 0
        # A fixed design makes findings disappear: exit 2.
        racy.write_text(COUNTER_SRC.replace("module top",
                                            "module other_top"))
        code = analyze_main(
            [str(clean), str(racy), "--baseline", str(baseline), "--quiet"]
        )
        assert code == 2
        assert "disappeared" in capsys.readouterr().out

    def test_fail_on_error(self, tmp_path):
        _, racy = self._write_designs(tmp_path)
        assert analyze_main([str(racy), "--quiet"]) == 0
        assert analyze_main([str(racy), "--quiet", "--fail-on-error"]) == 3

    def test_explain_appends_derivation_chain(self, tmp_path, capsys):
        oob = tmp_path / "oob.v"
        oob.write_text(VR_OOB_SRC)
        assert analyze_main([str(oob), "--top", "m"]) == 0
        plain = capsys.readouterr().out
        assert "oob-index" in plain
        assert "module input" not in plain  # chain only under --explain
        assert analyze_main([str(oob), "--top", "m", "--explain"]) == 0
        explained = capsys.readouterr().out
        assert "module input" in explained
        # The chain cites the user's source lines.
        chain = re.search(r"idx .*\(line (\d+), assign\)", explained)
        assert chain is not None
        lines = VR_OOB_SRC.splitlines()
        assert "assign idx" in lines[int(chain.group(1)) - 1]

    def test_bad_design_is_a_toolchain_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.v"
        bad.write_text("module broken(input clk;\n")
        assert analyze_main([str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_diff_reports_identities_ignore_lines(self):
        base = {
            "schema": "repro.analyze/v1",
            "designs": [{
                "design": "d.v",
                "findings": [
                    {"kind": LATCH, "module": "m", "message": "x", "line": 4},
                ],
            }],
        }
        moved = json.loads(json.dumps(base))
        moved["designs"][0]["findings"][0]["line"] = 40
        new, missing = diff_reports(base, moved)
        assert new == [] and missing == []


# ---------------------------------------------------------------------------
# Command + server surfaces
# ---------------------------------------------------------------------------


class TestSurfaces:
    def test_lint_command_via_interpreter(self):
        from repro.live.commands import CommandInterpreter

        session, _ = make_session()
        interp = CommandInterpreter(session)
        result = interp.execute("lint p0")
        assert result.value.diagnostics == []
        assert result.value.reused_keys

    def test_summarize_analysis_report(self):
        from repro.server.service import summarize

        session, _ = make_session()
        wire = summarize(session.lint("p0"))
        assert wire["_type"] == "AnalysisReport"
        assert wire["findings"] == []
        assert wire["counts"] == {"error": 0, "warning": 0, "info": 0}

    @pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(
        os.path.dirname(__file__), "..", "examples", "designs", "*.v"
    ))), ids=os.path.basename)
    def test_findings_identical_at_every_build_flavour(self, path):
        # Analysis sees the elaborated netlist, never the optimizer's or
        # the sanitizer's output: the session a user runs must report
        # the same findings whatever it is compiling under.
        with open(path) as fh:
            source = fh.read()
        top = list(parse(source).modules)[-1]
        findings = {}
        for level in OPT_LEVELS:
            for san in ("off", "report"):
                session = LiveSession(source, opt=level, sanitize=san)
                session.inst_pipe("p0", session.stage_handle_for(top))
                findings[level, san] = sorted(
                    d.identity() for d in session.lint().diagnostics
                )
        assert len(findings) == 4
        assert all(f == findings["none", "off"] for f in findings.values())


MULTI_DRIVER_SRC = """module child (input clk, input [7:0] a, output [7:0] y);
  reg [7:0] q;
  always @(posedge clk) q <= a;
  always @(posedge clk) q <= a + 8'd1;
  assign y = q;
endmodule

module top (input clk, input [7:0] a, output [7:0] y);
  child u (.clk(clk), .a(a), .y(y));
endmodule
"""


class TestQuotedLines:
    """A line a message or note quotes is data: it moves with its
    module, and the gate's identity leaves it out."""

    def test_an_edit_next_to_an_accepted_finding_lands(self):
        session = LiveSession(MULTI_DRIVER_SRC)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        edited = MULTI_DRIVER_SRC.replace(
            "  always @(posedge clk) q <= a;",
            "  wire [7:0] c;\n  assign c = q;\n  always @(posedge clk) q <= a;")
        report = session.apply_change(edited)
        assert not report.gate_overridden
        assert not [d for d in report.new_findings if d.is_error]
        (finding,) = [d for d in session.lint().diagnostics
                      if d.kind == MULTI_DRIVER]
        assert finding.line == 5 and "(lines [5, 6])" in finding.message
        assert finding.quoted == (5, 6)

    @pytest.mark.parametrize("name", ["pitfalls.v", "ranges.v"])
    def test_a_moved_design_lints_as_a_fresh_session(self, name):
        path = os.path.join(os.path.dirname(__file__), "..", "examples",
                            "designs", name)
        with open(path) as handle:
            source = handle.read()
        top = name[:-2]
        session = LiveSession(source)
        session.inst_pipe("p0", session.stage_handle_for(top))
        session.lint()
        moved = "// one\n// two\n// three\n" + source
        session.apply_change(moved)
        fresh = LiveSession(moved)
        fresh.inst_pipe("p0", fresh.stage_handle_for(top))

        def seen(s):
            return [(d.line, d.message, d.notes) for d in s.lint().diagnostics]

        assert seen(session) == seen(fresh)
        assert any(d.quoted for d in session.lint().diagnostics)
