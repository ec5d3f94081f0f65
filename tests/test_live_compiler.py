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

# The parent drives a constant ``k`` the child's mux select compares.
K_SRC = """
module leaf (input clk, input [3:0] k, input [7:0] a, output [7:0] y);
  reg [7:0] q;
  always @(posedge clk) q <= (k == 4'd1) ? a : a + 8'd1;
  assign y = q;
endmodule
module top (input clk, input [7:0] a, output [7:0] y);
  leaf u (.clk(clk), .k(4'd1), .a(a), .y(y));
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
        "old, new, behavioral, parsed, scanned",
        [
            # One region changed behaviour: its text is scanned once,
            # for the fingerprint and the parse alike.
            ("assign sum = a + b;", "assign sum = a - b;", True, 1,
             ["adder"]),
            # Cosmetic: scanned once to learn that, never parsed.
            ("assign sum = a + b;", "assign sum = a + b;  // reviewed",
             False, 0, ["adder"]),
            # A region that uses a macro cannot be parsed on its own:
            # its raw text is scanned for the fingerprint, then the
            # whole preprocessed file for the parse (two texts).
            ("count_q <= 0;", "count_q <= `ZERO + 1;", True, 1,
             ["counter", "<preprocessed file>"]),
            # A `define edit changes no region text: only the whole
            # preprocessed file is scanned.
            ("`define ZERO 0", "`define ZERO 1", True, 1,
             ["<preprocessed file>"]),
        ],
    )
    def test_an_edit_splits_once_and_lexes_its_region_once(
        self, monkeypatch, old, new, behavioral, parsed, scanned
    ):
        import sys

        from repro.hdl import lexer, source_regions
        from repro.hdl.parser import Parser
        from repro.hdl.preprocessor import preprocess
        from repro.live import parser_live
        from repro.live.session import LiveSession

        source = "`define ZERO 0\n" + COUNTER_SRC
        session = LiveSession(source)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        calls = {"split": 0, "parse": 0}
        scans = []  # every text handed to the lexer from outside it
        depth = [0]

        def counted_scan(fn):
            def wrapper(*args, **kwargs):
                if not depth[0] and isinstance(args[0], str):
                    scans.append(args[0])
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return wrapper

        # Every public function of the lexer, wherever repro bound it
        # (``from x import f`` copies the reference into the importer).
        for attr, fn in list(vars(lexer).items()):
            if attr.startswith("_") or (
                getattr(fn, "__module__", None) != lexer.__name__
            ):
                continue
            wrapped = counted_scan(fn)
            for mod_name, module in list(sys.modules.items()):
                if module is None or not mod_name.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, key, wrapped)

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        split = counted("split", source_regions.split_regions)
        monkeypatch.setattr(source_regions, "split_regions", split)
        monkeypatch.setattr(parser_live, "split_regions", split)
        monkeypatch.setattr(
            Parser, "parse_design", counted("parse", Parser.parse_design)
        )
        edited = source.replace(old, new)
        report = session.apply_change(edited)
        assert report.behavioral == behavioral
        assert calls == {"split": 1, "parse": parsed}
        regions = source_regions.module_regions(edited)
        assert scans == [
            regions[name].text if name in regions
            else preprocess(edited).text
            for name in scanned
        ]

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


PAIR_SRC = """module a (input clk, input [7:0] x, output [7:0] y);
  assign y = x + 8'd1;
endmodule

module b (input clk, input [7:0] x, output [7:0] y);
  wire [7:0] t;
  a u (.clk(clk), .x(x), .y(t));
  assign y = t;
endmodule
"""


class TestRejectedEdit:
    """An edit that is refused leaves no trace: not in the text, not in
    the fingerprints and not in the AST the next compile elaborates."""

    @pytest.mark.parametrize("good, bad", [
        (("+ 8'd1", "+ 8'd2"), ("assign y = t;", "assign y = t +;")),
        (("assign y = t;", "assign y = t + 8'd1;"),
         ("x + 8'd1;", "x + ;")),
    ])
    def test_a_two_module_edit_with_one_syntax_error(self, good, bad):
        from repro.hdl.parser import parse

        session = LiveSession(PAIR_SRC)
        session.inst_pipe("p0", session.stage_handle_for("b"))
        pipe = session.pipe("p0")
        pipe.set_inputs(x=10)
        assert pipe.eval()["y"] == 11
        with pytest.raises(HDLError):
            session.apply_change(PAIR_SRC.replace(*good).replace(*bad))
        assert session.compiler.source == PAIR_SRC
        assert session.compiler.design.modules == parse(PAIR_SRC).modules
        # Rebuilds of the unchanged source must not pick up the half of
        # the edit that parsed.
        session.set_opt("basic")
        assert pipe.eval()["y"] == 11
        session.set_sanitize("report")
        assert pipe.eval()["y"] == 11
        report = session.apply_change(PAIR_SRC.replace(*good))
        assert report.behavioral
        pipe.set_inputs(x=10)  # the replay rewound to power-on
        assert pipe.eval()["y"] == 12


class TestFileCoordinates:
    """A diagnostic for an incrementally re-parsed module carries the
    position a from-scratch build of the whole new text reports."""

    EDITS = {
        "lex": "assign y = t $ ;",
        "parse": "assign y = t +;",
        "elaborate": "assign y = nope;",
        "width": "wire [0:3] w;\n  assign y = t;",
    }

    @staticmethod
    def _from_scratch(source):
        from repro.hdl.elaborate import elaborate
        from repro.hdl.parser import parse

        with pytest.raises(HDLError) as err:
            elaborate(parse(source), "b")
        return type(err.value), str(err.value), err.value.line, err.value.col

    @pytest.mark.parametrize("kind", sorted(EDITS))
    def test_errors(self, kind):
        from repro.hdl.errors import (
            ElaborationError, LexError, ParseError, WidthError,
        )

        edited = PAIR_SRC.replace("assign y = t;", self.EDITS[kind])
        expected = self._from_scratch(edited)
        assert expected[0] is {
            "lex": LexError, "parse": ParseError,
            "elaborate": ElaborationError, "width": WidthError,
        }[kind]
        assert expected[2] >= 6  # inside b, not region-relative

        compiler = LiveCompiler(PAIR_SRC)
        compiler.compile_top("b")
        with pytest.raises(HDLError) as err:
            compiler.update_source(edited)
            compiler.compile_top("b")
        assert expected == (
            type(err.value), str(err.value), err.value.line, err.value.col
        )

        session = LiveSession(PAIR_SRC)
        session.inst_pipe("p0", session.stage_handle_for("b"))
        with pytest.raises(HDLError) as err:
            session.apply_change(edited)
        assert expected == (
            type(err.value), str(err.value), err.value.line, err.value.col
        )
        assert session.compiler.source == PAIR_SRC  # rolled back
        assert session.apply_change(
            PAIR_SRC.replace("assign y = t;", "assign y = t + 8'd1;")
        ).behavioral

    def test_analyzer_finding(self):
        from repro.analyze import Analyzer
        from repro.hdl.elaborate import elaborate
        from repro.hdl.parser import parse

        edited = PAIR_SRC.replace(
            "assign y = t;", "wire [7:0] unused;\n  assign y = t;"
        )
        scratch = Analyzer().analyze_netlist(elaborate(parse(edited), "b"))
        session = LiveSession(PAIR_SRC)
        session.inst_pipe("p0", session.stage_handle_for("b"))
        session.apply_change(edited)
        live = session.lint("p0")
        assert [(d.kind, d.module, d.line) for d in live.diagnostics] == [
            (d.kind, d.module, d.line) for d in scratch.diagnostics
        ]
        assert any(d.line == 8 for d in live.diagnostics)


PARAM_SRC = """`define BUMP 8'd1
module child #(parameter N = 1) (input clk, input [7:0] x, output [7:0] y);
  assign y = x + N;
endmodule
module top (input clk, input [7:0] x, output [7:0] y);
  wire [7:0] t;
  child c (.clk(clk), .x(x), .y(t));
  assign y = t + `BUMP;
endmodule
"""


class TestIncrementalElaboration:
    """Elaboration rebuilds the ModuleIR of the dirty specialization and
    of every parent that can see the difference, and reuses the rest
    (``elaborate.cache_hits`` / ``cache_misses``)."""

    @staticmethod
    def _elaborate(compiler, top, source=None):
        """Update + compile: (netlist, specs built, specs reused)."""
        from unittest import mock

        from repro import obs
        from repro.hdl.elaborate import Elaborator

        metrics = obs.get_metrics()
        before = [metrics.counter(f"elaborate.cache_{c}")
                  for c in ("misses", "hits")]
        built = []
        build = Elaborator._build_module_ir

        def counted(self, module, env, key, children):
            built.append(key)
            return build(self, module, env, key, children)

        if source is not None:
            compiler.update_source(source)
        with mock.patch.object(Elaborator, "_build_module_ir", counted):
            netlist = compiler.compile_top(top).netlist
        misses, hits = (
            metrics.counter(f"elaborate.cache_{c}") - was
            for c, was in zip(("misses", "hits"), before)
        )
        assert (misses, hits) == (
            len(built), len(netlist.modules) - len(built)
        )
        return netlist, sorted(built), hits

    def test_body_edit_in_the_mesh_builds_one_module_ir(self):
        from repro.riscv.patches import PATCHES
        from repro.riscv.pgas import build_pgas_source, mesh_top_name

        source, top = build_pgas_source(2), mesh_top_name(2)
        compiler = LiveCompiler(source)
        first, built, hits = self._elaborate(compiler, top)
        assert (len(built), hits) == (10, 0)
        edited = PATCHES["ex-forward-priority"].inject(source)
        second, built, hits = self._elaborate(compiler, top, edited)
        assert (built, hits) == (["rv_ex"], 9)
        assert [
            key for key, ir in second.modules.items()
            if ir is not first.modules[key]
        ] == ["rv_ex"]
        # Revert: every specialization is a hit, the very objects.
        third, built, hits = self._elaborate(compiler, top, source)
        assert (built, hits) == ([], 10)
        assert third.modules["rv_ex"] is first.modules["rv_ex"]

    def test_port_added_to_a_child_rebuilds_the_parents_that_see_it(self):
        compiler = LiveCompiler(COUNTER_SRC)
        self._elaborate(compiler, "top")
        edited = COUNTER_SRC.replace(
            "  output [W-1:0] sum\n);",
            "  output [W-1:0] sum,\n  output spare\n);\n  assign spare = 1'b0;",
        )
        # ``counter`` instantiates the adder; ``top`` sees only the
        # counter, whose own signature did not move (the compile cache
        # draws the same line: test_interface_edit_recompiles_parent_chain).
        _, rebuilt, hits = self._elaborate(compiler, "top", edited)
        assert (rebuilt, hits) == (["adder#(W=8)", "counter#(W=8)"], 1)

    def test_per_output_dependency_swap_rebuilds_the_parents(self):
        compiler = LiveCompiler(DEP_SWAP_SRC)
        self._elaborate(compiler, "top")
        _, rebuilt, _ = self._elaborate(compiler, "top", DEP_SWAP_EDIT)
        assert rebuilt == ["child", "mid", "top"]

    def test_child_output_turning_into_a_register_rebuilds_the_parent(self):
        compiler = LiveCompiler(TWO_MODULE_SRC)
        self._elaborate(compiler, "top")
        # Body-only first: the parent is reused ...
        body = TWO_MODULE_SRC.replace("a + 8'd1", "a + 8'd2")
        _, rebuilt, _ = self._elaborate(compiler, "top", body)
        assert rebuilt == ["leaf"]
        # ... then ``y`` becomes the register itself: same ports, same
        # widths, but the parent now reads it out of the child's state.
        registered = TWO_MODULE_SRC.replace(
            "output [7:0] y);\n  reg [7:0] q;", "output reg [7:0] y);"
        ).replace("q <= a + 8'd1;\n  assign y = q;", "y <= a + 8'd1;")
        third, rebuilt, _ = self._elaborate(compiler, "top", registered)
        assert rebuilt == ["leaf", "top"]
        assert third.modules["leaf"].signals["y"].state_index == 0

    def test_child_parameter_default_moves_its_spec_key(self):
        compiler = LiveCompiler(PARAM_SRC)
        first, _, _ = self._elaborate(compiler, "top")
        assert sorted(first.modules) == ["child#(N=1)", "top"]
        edited = PARAM_SRC.replace("parameter N = 1", "parameter N = 2")
        second, rebuilt, _ = self._elaborate(compiler, "top", edited)
        # ``top``'s own text did not change; the child it binds did.
        assert rebuilt == ["child#(N=2)", "top"]
        assert sorted(second.modules) == ["child#(N=2)", "top"]

    def test_define_edit_rebuilds_every_module_below_it(self):
        compiler = LiveCompiler(PARAM_SRC)
        self._elaborate(compiler, "top")
        edited = PARAM_SRC.replace("`define BUMP 8'd1", "`define BUMP 8'd2")
        _, rebuilt, _ = self._elaborate(compiler, "top", edited)
        assert rebuilt == ["child#(N=1)", "top"]
        _, rebuilt, hits = self._elaborate(compiler, "top", PARAM_SRC)
        assert (rebuilt, hits) == ([], 2)

    def test_failed_elaboration_caches_nothing(self):
        compiler = LiveCompiler(COUNTER_SRC)
        self._elaborate(compiler, "top")
        held = dict(compiler.cache.entries("elaborate"))
        with pytest.raises(HDLError, match="undeclared"):
            self._elaborate(compiler, "top", COUNTER_SRC.replace(
                "assign sum = a + b;", "assign sum = a + nope;"
            ))
        assert compiler.cache.entries("elaborate") == held
        # What a session's rollback does: the old text comes back and
        # the next compile rebuilds nothing.
        _, rebuilt, hits = self._elaborate(compiler, "top", COUNTER_SRC)
        assert (rebuilt, hits) == ([], 3)

    def test_without_a_cache_every_elaboration_is_from_scratch(self):
        from repro import obs
        from repro.hdl.elaborate import elaborate
        from repro.hdl.parser import parse

        design = parse(COUNTER_SRC)
        lookups = obs.get_metrics().counter("elaborate.cache_misses")
        first, second = elaborate(design, "top"), elaborate(design, "top")
        assert first == second
        assert first.modules["top"] is not second.modules["top"]
        assert obs.get_metrics().counter("elaborate.cache_misses") == lookups


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

    def test_item_memo_stops_growing(self):
        """Two hundred fresh edits, each a wire nobody reads set to a
        new value (livebench's kind): the item memo reaches a size and
        stays at it."""
        from repro.analyze import Analyzer

        compiler = LiveCompiler(TWO_MODULE_SRC)
        analyzer = Analyzer(compiler.cache)
        sizes = []
        for nonce in range(200):
            compiler.update_source(TWO_MODULE_SRC.replace(
                "  assign y = q;\n",
                "  assign y = q;\n  wire [31:0] n;\n"
                f"  assign n = 32'd{nonce};\n", 1))
            analyzer.analyze_netlist(compiler.compile_top("top").netlist,
                                     compiler.parser)
            memos = compiler.cache.entries("passes.dataflow.items").values()
            sizes.append((len(memos), sum(map(len, memos))))
        # The newest runs of ``leaf``, and the one of ``top``, whose
        # facts the edits never move.
        assert sizes[-1] == (CACHE_GENERATIONS + 1, 20)
        assert sizes[10:] == sizes[-1:] * 190

    def test_compile_miss_says_which_key_component_moved(self):
        from repro import obs

        metrics = obs.get_metrics()

        def reasons():
            return [
                metrics.counter(f"compile.cache_miss.{reason}")
                for reason in ("cold", "fingerprint", "child_fps")
            ]

        def missed(source):
            before = reasons()
            compiler.update_source(source)
            recompiled = compiler.compile_top("top").report.recompiled_keys
            return recompiled, [b - a for a, b in zip(before, reasons())]

        # Sanitized, where the value facts are computed: none of them
        # is a key component.
        source = MODE_SRC
        compiler = LiveCompiler(source, build=BuildConfig(opt="basic",
                                                          sanitize=True))
        elaborated = metrics.counter("elaborate.cache_misses")
        assert missed(source) == (["leaf", "top"], [2, 0, 0])
        # A body edit moves the module's own fingerprint ...
        source = source.replace("a + 8'd1", "a + 8'd2")
        assert missed(source) == (["leaf"], [0, 1, 0])
        # ... a parent-only edit of a constant fed to the child moves
        # the parent's alone ...
        source = source.replace(".mode(4'd0)", ".mode(4'd1)")
        assert missed(source) == (["top"], [0, 1, 0])
        # ... and a child interface edit moves the parent's child_fps.
        source = source.replace(
            "output [7:0] y);\n  reg",
            "output [7:0] y, output z);\n  assign z = 1'b0;\n  reg",
        )
        assert missed(source) == (["leaf", "top"], [0, 1, 1])
        assert metrics.gauge_value("facts.cache_size") == sum(
            len(compiler.cache.entries(kind)) for kind in (
                "passes.dataflow", "passes.dataflow.summary",
                "passes.dataflow.items"))
        # Elaboration reuse counts in the same registry (what ``stats
        # deep`` and the repro.obs/v1 report ship): 2 + 1 + 1 + 2 built.
        counters = obs.report()["metrics"]["counters"]
        assert counters["elaborate.cache_misses"] - elaborated == 6

    def test_a_sanitized_compile_is_keyed_by_its_source(self):
        """A parent edit that changes the constant it drives into a
        child recompiles the parent alone under the sanitizer too, as
        in a clean build; the child's facts still move, and the
        analyzer reads the new ones."""
        source = K_SRC
        session = LiveSession(source, sanitize="report")
        session.inst_pipe("p0", session.stage_handle_for("top"))

        def leaf():
            facts = session.compiler.cache.recent("passes.dataflow", "leaf")
            proved = [d.message for d in session.lint().diagnostics
                      if d.kind == "proved-condition"]
            return facts[0].input_facts["k"].const_value, proved

        assert leaf() == (1, ["mux select is provably always true (= 0x1)"])
        report = session.apply_change(source.replace(".k(4'd1)", ".k(4'd3)"))
        assert report.recompiled_keys == ["top"]
        assert leaf() == (3, ["mux select is provably always false (= 0x0)"])

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


class TestParsedModulesAreShared:
    """A region's parsed module is shared by every version that keeps
    its text, and a parsed item by every version that keeps its lines
    (:class:`~repro.live.parser_live.RegionParse`), so nothing
    downstream of the parser may mutate an AST."""

    @staticmethod
    def _designs():
        from pathlib import Path

        from repro.riscv.pgas import build_pgas_source, mesh_top_name

        yield build_pgas_source(2), mesh_top_name(2)
        designs = Path(__file__).resolve().parent.parent / "examples"
        for path in sorted((designs / "designs").glob("*.v")):
            yield path.read_text(), None

    def test_no_build_flavour_mutates_the_ast(self):
        from repro.analyze import Analyzer
        from repro.codegen.build import OPT_LEVELS
        from repro.hdl.elaborate import elaborate
        from repro.hdl.parser import parse
        from repro.passes import compile_netlist
        from repro.sanitize import SanitizerRuntime
        from repro.sim.pipeline import Pipe

        for source, top in self._designs():
            design = parse(source)
            before = repr(design)
            for top in [top] if top else list(design.modules):
                netlist = elaborate(design, top)
                Analyzer().analyze_netlist(netlist)
                for sanitize in (False, True):
                    for opt in OPT_LEVELS:
                        runtime = SanitizerRuntime() if sanitize else None
                        pipe = Pipe(netlist.top, compile_netlist(
                            netlist, BuildConfig(sanitize=sanitize, opt=opt),
                            runtime))
                        pipe.eval()
                        pipe.tick()
            assert repr(design) == before

    def test_a_session_leaves_every_cached_region_as_parsed(self):
        from repro.hdl.lexer import tokenize
        from repro.hdl.parser import parse
        from repro.hdl.source_regions import MODULE_REGION

        session = LiveSession(PAIR_SRC, checkpoint_interval=4)
        session.inst_pipe("p0", session.stage_handle_for("b"))
        session.pipe("p0").set_inputs(x=3)
        edited = PAIR_SRC.replace("assign y = t;", "assign y = t + 8'd1;")
        parser = session.compiler.parser
        committed = []
        for text in (edited, PAIR_SRC, "// moved\n" + edited):
            session.apply_change(text)
            session.set_opt("full")
            session.set_sanitize("report")
            session.lint()
            session.set_opt("none")
            session.set_sanitize("off")
            committed += [(region.text, parser.region_parse(region.name))
                          for region in parser.regions
                          if region.kind == MODULE_REGION]
        assert len(committed) == 6
        for text, entry in committed:
            # A region the edit moved keeps its base's coordinates.
            assert repr(entry.design()) == repr(
                parse(text, tokens=tokenize(text, entry.line)))


    def test_a_revert_reuses_every_item_it_left_alone(self):
        """A revert is read against the edit's committed parse: the
        items it did not touch are the objects the first parse made,
        the two it relexed are new, and the fingerprint and the AST are
        those of the first parse."""
        from repro.hdl.parser import parse
        from repro.riscv.pgas import build_pgas_source

        source = build_pgas_source(2)
        compiler = LiveCompiler(source)
        edited = source.replace("  assign pc = pc_q;\n",
                                "  assign pc = pc_q + 64'd0;\n", 1)
        assert edited != source
        first = compiler.parser.region_parse("rv_if")
        fingerprint = compiler.parser.fingerprint("rv_if")
        compiler.update_source(edited)
        compiler.update_source(source)
        reverted = compiler.parser.region_parse("rv_if")
        assert reverted is not first
        assert compiler.parser.fingerprint("rv_if") == fingerprint
        assert repr(reverted.design()) == repr(first.design())
        assert repr(compiler.design) == repr(parse(source))
        ids = {id(item) for item in first.items}
        assert len(reverted.items) == len(first.items) == 4
        # The reg before the edited assign ends on a line its next
        # token (the assign's) changed, so both are relexed.
        assert [(item.first, item.last) for item in reverted.items
                if id(item) not in ids] == [(10, 10), (11, 11)]

class TestInitialParse:
    """The first design comes from the tokens LiveParser lexed to
    fingerprint each module region, unless the text needs the
    preprocessor; either way it is the design a whole-file parse gives."""

    @staticmethod
    def _lexed(monkeypatch):
        """Characters every tokenize call from here on lexes."""
        import repro.hdl.parser
        import repro.live.compiler_live
        import repro.live.parser_live
        from repro.hdl.lexer import tokenize

        seen = []

        def counted(text, *args):
            seen.append(len(text))
            return tokenize(text, *args)

        for module in (repro.hdl.parser, repro.live.compiler_live,
                       repro.live.parser_live):
            monkeypatch.setattr(module, "tokenize", counted)
        return seen

    def test_the_design_is_lexed_once(self, monkeypatch):
        from repro.riscv.pgas import build_pgas_source

        source = build_pgas_source(2)
        lexed = self._lexed(monkeypatch)
        compiler = LiveCompiler(source)
        assert sum(lexed) <= len(source)
        assert len(lexed) >= len(compiler.design.modules)
        # A revert is read as any edit is, against the committed parse:
        # it lexes the reverted item, the one whose next token is on
        # its line and the module's last line.
        edited = source.replace("  assign pc = pc_q;\n",
                                "  assign pc = pc_q + 64'd0;\n", 1)
        assert edited != source
        compiler.update_source(edited)
        del lexed[:]
        compiler.update_source(source)
        assert sum(lexed) == len(
            "  reg [63:0] pc_q;\n  assign pc = pc_q;") + len("endmodule")

    def test_it_is_the_whole_file_parse(self):
        from pathlib import Path

        from repro.hdl.parser import parse
        from repro.riscv.pgas import build_pgas_source

        examples = Path(__file__).resolve().parent.parent / "examples"
        sources = [build_pgas_source(2), COUNTER_SRC, PARAM_SRC,
                   "// a comment first\n" + COUNTER_SRC] + [
            path.read_text()
            for path in sorted((examples / "designs").glob("*.v"))]
        for source in sources:
            assert LiveCompiler(source).design.modules == \
                parse(source).modules

    @pytest.mark.parametrize("source, error", [
        (COUNTER_SRC + "\nstray text\n", "ParseError"),
        (COUNTER_SRC + COUNTER_SRC, "ParseError"),  # every module twice
        (COUNTER_SRC.replace("a + b;", "a + ;"), "ParseError"),
    ])
    def test_a_bad_text_fails_as_the_whole_file_parse_does(self, source,
                                                           error):
        from repro.hdl.parser import parse

        with pytest.raises(HDLError) as whole:
            parse(source)
        with pytest.raises(HDLError) as live:
            LiveCompiler(source)
        assert type(live.value).__name__ == type(whole.value).__name__ \
            == error
        assert str(live.value) == str(whole.value)


DIV_SRC = """module top (input clk, input [7:0] a, output [7:0] y);
  child #(.W(8)) u (.clk(clk), .a(a), .y(y));
endmodule

module child #(parameter W = 8) (input clk, input [7:0] a, output [7:0] y);
  localparam X = 8 / (W - 16);
  assign y = a;
endmodule
"""


class TestErrorsAfterTheParse:
    """An elaboration error comes out in file coordinates, wherever the
    AST of the module that raised it counts its lines from."""

    @staticmethod
    def _error(session, text):
        with pytest.raises(HDLError) as raised:
            session.apply_change(text)
        return str(raised.value)

    @staticmethod
    def _fresh(text):
        with pytest.raises(HDLError) as raised:
            LiveCompiler(text).compile_top("top")
        return str(raised.value)

    def test_from_a_module_an_edit_moved(self):
        session = LiveSession(DIV_SRC)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        moved = DIV_SRC.replace(
            "endmodule\n\nmodule child",
            "  wire n1;\n  wire n2;\nendmodule\n\nmodule child")
        session.apply_change(moved)
        bad = moved.replace(".W(8)", ".W(16)")
        assert self._error(session, bad) == self._fresh(bad) == \
            "line 8:0: division by zero in constant expression"

    def test_from_an_edited_module_in_its_base_coordinates(self):
        session = LiveSession(DIV_SRC)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        moved = "// one\n// two\n" + DIV_SRC
        session.apply_change(moved)
        # The edited child keeps the coordinates of its parse at line 5.
        bad = moved.replace("8 / (W - 16)", "8 / (W - 8)")
        assert session.compiler.parser.analyze(bad).parses["child"].line == 5
        assert self._error(session, bad) == self._fresh(bad) == \
            "line 8:0: division by zero in constant expression"
