"""LiveCompiler tests: incremental recompilation and cache behaviour."""

import linecache
import re

import pytest

from repro.codegen.build import CACHE_GENERATIONS, BuildConfig
from repro.hdl.errors import HDLError
from repro.live.compiler_live import LiveCompiler
from repro.live.session import LiveSession
from tests.conftest import COUNTER_SRC

TWO_MODULE_SRC = """
module leaf (input clk, input [7:0] a, output [7:0] y);
  reg [7:0] q;
  always @(posedge clk) q <= a + 8'd1;
  assign y = q;
endmodule
module top (input clk, input [7:0] a, output [7:0] y);
  leaf u (.clk(clk), .a(a), .y(y));
endmodule
"""

MODE_SRC = """
module leaf (input clk, input [3:0] mode, input [7:0] a, output [7:0] y);
  reg [7:0] q;
  always @(posedge clk) q <= (mode != 4'd0) ? a + 8'd1 : a;
  assign y = q;
endmodule
module top (input clk, input [7:0] a, output [7:0] y);
  leaf u (.clk(clk), .mode(4'd0), .a(a), .y(y));
endmodule
"""


# ``a`` and ``b`` swap which input they depend on: the *union* of the
# child's comb-relevant inputs (its interface fingerprint) is unchanged,
# its per-output dependencies are not.
DEP_SWAP_SRC = """
module child (input clk, input [7:0] x, input [7:0] y,
              output [7:0] a, output [7:0] b);
  assign a = x + 8'd1;
  assign b = y + 8'd2;
endmodule
module mid (input clk, input [7:0] in1, input [7:0] in2, output [7:0] o);
  wire [7:0] a;
  wire [7:0] b;
  reg [7:0] r;
  child c (.clk(clk), .x(in1), .y(in2), .a(a), .b(b));
  assign o = a;
  always @(posedge clk) r <= b;
endmodule
module top (input clk, input [7:0] i, input [7:0] j, output [7:0] o);
  mid m (.clk(clk), .in1(i), .in2(j), .o(o));
endmodule
"""
DEP_SWAP_EDIT = DEP_SWAP_SRC.replace("a = x + 8'd1", "a = y + 8'd1").replace(
    "b = y + 8'd2", "b = x + 8'd2"
)


class TestFullCompile:
    def test_first_compile_builds_everything(self):
        compiler = LiveCompiler(COUNTER_SRC)
        result = compiler.compile_top("top")
        assert sorted(result.report.recompiled_keys) == [
            "adder#(W=8)", "counter#(W=8)", "top",
        ]
        assert result.report.reused_keys == []

    def test_second_compile_reuses_everything(self):
        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        result = compiler.compile_top("top")
        assert result.report.recompiled_keys == []
        assert len(result.report.reused_keys) == 3

    def test_different_tops_share_children(self):
        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("counter")
        result = compiler.compile_top("top")
        assert "adder#(W=8)" in result.report.reused_keys
        assert "top" in result.report.recompiled_keys


class TestIncrementalRecompile:
    def test_body_edit_recompiles_one_module(self):
        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        compiler.update_source(
            COUNTER_SRC.replace("assign sum = a + b;", "assign sum = a - b;")
        )
        result = compiler.compile_top("top")
        assert result.report.recompiled_keys == ["adder#(W=8)"]
        assert sorted(result.report.reused_keys) == ["counter#(W=8)", "top"]

    def test_comment_edit_recompiles_nothing(self):
        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        analysis = compiler.update_source(
            COUNTER_SRC.replace("assign sum = a + b;",
                                "assign sum = a + b;  // reviewed")
        )
        assert not analysis.behavioral
        result = compiler.compile_top("top")
        assert result.report.recompiled_keys == []

    def test_interface_edit_recompiles_parent_chain(self):
        # Widening the adder's port changes its interface: counter must
        # recompile too, but top (whose child interface is unchanged)
        # must not.
        new = COUNTER_SRC.replace(
            "module adder #(parameter W = 8) (\n  input clk,",
            "module adder #(parameter W = 8) (\n  input clk,\n  input enable,",
        ).replace(
            "adder #(.W(W)) u_add (.clk(clk),",
            "adder #(.W(W)) u_add (.clk(clk), .enable(1'b1),",
        )
        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        compiler.update_source(new)
        result = compiler.compile_top("top")
        assert sorted(result.report.recompiled_keys) == [
            "adder#(W=8)", "counter#(W=8)",
        ]
        assert result.report.reused_keys == ["top"]

    def test_per_output_dependency_swap_recompiles_the_parents(self):
        """A parent's schedule, eval_out arguments and eval_out/cycle
        partition read the child's per-output dependencies; keyed on
        the child's interface fingerprint alone, ``mid`` stayed stale
        (passed only ``in1`` to eval_out, zeroed ``in2``) and the live
        pipe showed o = 1 where a from-reset run shows 21."""
        from repro.sim.testbench import hold_inputs

        session = LiveSession(DEP_SWAP_SRC, checkpoint_interval=10)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        tb = session.load_testbench(hold_inputs(i=10, j=20))
        session.run(tb, "p0", 3)
        assert session.pipe("p0").outputs()["o"] == 11
        report = session.apply_change(DEP_SWAP_EDIT)
        assert sorted(report.recompiled_keys) == ["child", "mid", "top"]
        assert session.pipe("p0").outputs()["o"] == 21
        session.run(tb, "p0", 2)
        assert session.pipe("p0").outputs()["o"] == 21
        assert session.pipe("p0").find("m").peek_reg("r") == 12

    def test_reverting_edit_hits_cache(self):
        compiler = LiveCompiler(COUNTER_SRC)
        first = compiler.compile_top("top")
        compiler.update_source(COUNTER_SRC.replace("a + b", "a - b"))
        compiler.compile_top("top")
        compiler.update_source(COUNTER_SRC)
        result = compiler.compile_top("top")
        assert result.report.recompiled_keys == []
        assert result.library["adder#(W=8)"] is first.library["adder#(W=8)"]

    def test_syntax_error_keeps_old_source(self):
        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        with pytest.raises(HDLError):
            compiler.update_source(
                COUNTER_SRC.replace("assign sum = a + b;", "assign sum = ;")
            )
        # The old design still compiles fine.
        result = compiler.compile_top("top")
        assert result.library["top"] is not None

    def test_syntax_error_commits_nothing_to_the_parser(self):
        compiler = LiveCompiler(COUNTER_SRC)
        parser = compiler.parser
        before = (
            parser.source,
            parser.regions,
            {name: parser.fingerprint(name) for name in parser.module_names()},
        )
        with pytest.raises(HDLError):
            compiler.update_source(
                COUNTER_SRC.replace("assign sum = a + b;", "assign sum = ;")
            )
        assert before == (
            parser.source,
            parser.regions,
            {name: parser.fingerprint(name) for name in parser.module_names()},
        )

    @pytest.mark.parametrize(
        "edit, behavioral, lexed",
        [
            ("assign sum = a - b;", True, 1),
            ("assign sum = a + b;  // reviewed", False, 1),
        ],
    )
    def test_an_edit_splits_once_and_lexes_its_region_once(
        self, monkeypatch, edit, behavioral, lexed
    ):
        from repro.hdl import source_regions
        from repro.live import parser_live
        from repro.live.session import LiveSession

        session = LiveSession(COUNTER_SRC)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        calls = {"split": 0, "lex": 0}

        def counted(name, fn):
            def wrapper(text):
                calls[name] += 1
                return fn(text)
            return wrapper

        split = counted("split", source_regions.split_regions)
        monkeypatch.setattr(source_regions, "split_regions", split)
        monkeypatch.setattr(parser_live, "split_regions", split)
        monkeypatch.setattr(
            parser_live, "behavioral_fingerprint",
            counted("lex", parser_live.behavioral_fingerprint),
        )
        report = session.apply_change(
            COUNTER_SRC.replace("assign sum = a + b;", edit)
        )
        assert report.behavioral == behavioral
        assert calls == {"split": 1, "lex": lexed}

    def test_added_module_compiles(self):
        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        compiler.update_source(COUNTER_SRC + """
module widget (input clk, output y);
  assign y = 1'b1;
endmodule
""")
        result = compiler.compile_top("widget")
        assert "widget" in result.report.recompiled_keys

    def test_removed_module_disappears(self):
        extended = COUNTER_SRC + "\nmodule extra (input clk); endmodule\n"
        compiler = LiveCompiler(extended)
        compiler.compile_top("extra")
        compiler.update_source(COUNTER_SRC)
        assert "extra" not in compiler.design.modules


class TestCacheManagement:
    def test_cache_grows_with_versions(self):
        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        baseline = compiler.cache_size()
        compiler.update_source(COUNTER_SRC.replace("a + b", "a - b"))
        compiler.compile_top("top")
        assert compiler.cache_size() == baseline + 1

    def test_bound_holds_population(self):
        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        variants = ["a - b", "a ^ b", "a & b", "a | b", "a * b", "a + b + 1"]
        for variant in variants:
            compiler.update_source(COUNTER_SRC.replace("a + b", variant))
            compiler.compile_top("top")
        # Seven adder generations, bounded; counter/top stay at one.
        assert compiler.cache_size() == 2 + CACHE_GENERATIONS
        # Current version still compiles from cache.
        result = compiler.compile_top("top")
        assert result.report.recompiled_keys == []

    def test_bound_keeps_most_recently_used_generations_per_spec(self):
        """The bound is per spec key in order of *use*: a generation a
        revert came back to outlives ones inserted after it."""
        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        variants = ["a - b", "a ^ b", "a & b"]
        for variant in variants:
            compiler.update_source(COUNTER_SRC.replace("a + b", variant))
            compiler.compile_top("top")
        # Four adder generations fill the bucket; nothing left yet.
        assert compiler.cache_size() == 3 + len(variants)
        names = {key.filename for key in compiler.cache.entries("compile")}
        assert names <= set(linecache.cache)
        # Use the oldest ("a + b"), then insert a fifth: the least
        # recently used ("a - b") leaves, not the oldest inserted.
        compiler.update_source(COUNTER_SRC)
        assert compiler.compile_top("top").report.recompiled_keys == []
        compiler.update_source(COUNTER_SRC.replace("a + b", "a | b"))
        compiler.compile_top("top")
        assert compiler.cache_size() == 3 + len(variants)
        # An evicted generation takes its generated-source listing along.
        kept = {key.filename for key in compiler.cache.entries("compile")}
        assert len(names - kept) == 1
        assert not (names - kept) & set(linecache.cache)
        assert kept <= set(linecache.cache)
        # The previous generation (what a revert goes back to) and the
        # others still held compile fully from cache ...
        for variant in ("a + b", "a & b", "a ^ b", "a | b"):
            compiler.update_source(COUNTER_SRC.replace("a + b", variant))
            assert compiler.compile_top("top").report.recompiled_keys == []
        # ... while the evicted one recompiles.
        compiler.update_source(COUNTER_SRC.replace("a + b", "a - b"))
        result = compiler.compile_top("top")
        assert result.report.recompiled_keys == ["adder#(W=8)"]

    def test_bound_holds_by_itself_over_a_long_edit_session(self):
        """Nobody calls an eviction method: forty fresh edits across two
        modules and three build flavours, and after each one every kind
        of derived result is bounded, generated-source listings track
        the compiled entries, the running modules are still held and
        the previous text is one hit away."""
        kinds = ("compile", "analyze", "passes.dataflow.summary") + tuple(
            f"passes.{name}" for name in (
                "dataflow", "constprop", "sanitize_plan", "deadlogic",
            )
        )

        def listings():
            return {n for n in linecache.cache if n.startswith("<lhdl:")}

        foreign = listings()  # other tests' sessions share linecache
        session = LiveSession(COUNTER_SRC, checkpoint_interval=10)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        cache = session.compiler.cache
        specs, flavours = 3, 1
        source = COUNTER_SRC
        for step in range(40):
            if step == 20:
                session.set_sanitize("report")
                session.set_opt("full")
                flavours = 3
            previous = source
            if step % 2:
                source = re.sub(r"assign sum = a \+ b[^;]*;",
                                f"assign sum = a + b + 8'd{step};", source)
            else:
                source = re.sub(r"count_q <= next[^;]*;",
                                f"count_q <= next + 8'd{step};", source)
            assert len(session.apply_change(source).recompiled_keys) == 1
            assert session.apply_change(previous).recompiled_keys == []
            assert session.apply_change(source).recompiled_keys == []

            compiled = cache.entries("compile")
            for kind in kinds:
                assert len(cache.entries(kind)) <= (
                    CACHE_GENERATIONS * specs * flavours
                ), (step, kind)
            assert listings() - foreign == {
                key.filename for key in compiled
            } - foreign
            held = {id(module) for module in compiled.values()}
            running = session.pipe("p0").library.values()
            assert {id(module) for module in running} <= held
        # The bound was reached, not merely never approached.
        assert session.compiler.cache_size() > CACHE_GENERATIONS * specs

    def test_compile_miss_says_which_key_component_moved(self):
        from repro import obs

        metrics = obs.get_metrics()

        def reasons():
            return [
                metrics.counter(f"compile.cache_miss.{reason}")
                for reason in ("cold", "fingerprint", "child_fps", "facts_fp")
            ]

        def missed(source):
            before = reasons()
            compiler.update_source(source)
            recompiled = compiler.compile_top("top").report.recompiled_keys
            return recompiled, [b - a for a, b in zip(before, reasons())]

        source = MODE_SRC
        compiler = LiveCompiler(source, build=BuildConfig(opt="basic"))
        assert missed(source) == (["leaf", "top"], [2, 0, 0, 0])
        # A body edit moves the module's own fingerprint ...
        source = source.replace("a + 8'd1", "a + 8'd2")
        assert missed(source) == (["leaf"], [0, 1, 0, 0])
        # ... a parent-only edit of a constant fed to the child moves
        # the child's value facts ...
        source = source.replace(".mode(4'd0)", ".mode(4'd1)")
        assert missed(source) == (["leaf", "top"], [0, 1, 0, 1])
        # ... and a child interface edit moves the parent's child_fps.
        source = source.replace(
            "output [7:0] y);\n  reg",
            "output [7:0] y, output z);\n  assign z = 1'b0;\n  reg",
        )
        assert missed(source) == (["leaf", "top"], [0, 1, 1, 0])
        assert metrics.gauge_value("facts.cache_size") == len(
            compiler.cache.entries("passes.dataflow")
        ) + len(compiler.cache.entries("passes.dataflow.summary"))

    def test_bound_keeps_every_flavour_of_the_live_generation(self):
        """The six sanitize x opt flavours of an un-edited design are
        one generation each, not six generations of one spec."""
        session = LiveSession(TWO_MODULE_SRC)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        for mode in ("report", "off"):
            for level in ("basic", "full", "none"):
                session.set_sanitize(mode)
                session.set_opt(level)
        assert session.compiler.cache_size() == 2 * 6
        for mode in ("report", "off"):
            for level in ("basic", "full", "none"):
                assert session.set_sanitize(mode)["recompiled_keys"] == []
                assert session.set_opt(level)["recompiled_keys"] == []

    def test_bound_counts_evictions(self):
        from repro import obs

        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        metrics = obs.get_metrics()
        before = metrics.counter("compile.cache_evicted")
        variants = ["a - b", "a ^ b", "a & b", "a | b", "a * b", "a + b + 1"]
        for variant in variants:
            compiler.update_source(COUNTER_SRC.replace("a + b", variant))
            compiler.compile_top("top")
        evicted = 1 + len(variants) - CACHE_GENERATIONS
        assert metrics.counter("compile.cache_evicted") == before + evicted
        assert metrics.gauge_value("compile.cache_size") == compiler.cache_size()

    def test_bound_is_silent_below_it(self):
        from repro import obs

        compiler = LiveCompiler(COUNTER_SRC)
        metrics = obs.get_metrics()
        before = metrics.counter("compile.cache_evicted")
        compiler.compile_top("top")
        for variant in ["a - b", "a ^ b", "a & b"]:
            compiler.update_source(COUNTER_SRC.replace("a + b", variant))
            compiler.compile_top("top")
        # Exactly at the bound: nothing left, nothing counted.
        assert compiler.cache_size() == 2 + CACHE_GENERATIONS
        assert metrics.counter("compile.cache_evicted") == before
        assert compiler.compile_top("top").report.recompiled_keys == []


class TestTimingFields:
    def test_report_times_populated(self):
        compiler = LiveCompiler(COUNTER_SRC)
        result = compiler.compile_top("top")
        report = result.report
        assert report.elaborate_seconds > 0
        assert report.codegen_seconds > 0
        assert report.total_seconds >= report.codegen_seconds

    def test_incremental_flag(self):
        compiler = LiveCompiler(COUNTER_SRC)
        assert not compiler.compile_top("top").report.was_incremental
        assert compiler.compile_top("top").report.was_incremental
