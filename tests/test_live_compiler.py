"""LiveCompiler tests: incremental recompilation and cache behaviour."""

import linecache

import pytest

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

    def test_evict_stale_bounds_population(self):
        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        variants = ["a - b", "a ^ b", "a & b", "a | b", "a * b", "a + b + 1"]
        for variant in variants:
            compiler.update_source(COUNTER_SRC.replace("a + b", variant))
            compiler.compile_top("top")
        evicted = compiler.evict_stale(keep_generations=2)
        assert evicted > 0
        # Current version still compiles from cache.
        result = compiler.compile_top("top")
        assert result.report.recompiled_keys == []

    def test_evict_stale_keeps_newest_generations_per_spec(self):
        """Eviction is per spec key in insertion order: the newest
        ``keep_generations`` versions of each module survive."""
        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        # Four adder generations; counter/top each stay at one.
        variants = ["a - b", "a ^ b", "a & b"]
        for variant in variants:
            compiler.update_source(COUNTER_SRC.replace("a + b", variant))
            compiler.compile_top("top")
        assert compiler.cache_size() == 3 + len(variants)
        names = {key.filename for key in compiler._cache}
        assert names <= set(linecache.cache)
        evicted = compiler.evict_stale(keep_generations=2)
        # Only the adder spec exceeded the bound: 4 generations -> 2.
        assert evicted == 2
        # An evicted generation takes its generated-source listing along.
        kept = {key.filename for key in compiler._cache}
        assert len(kept) == len(names) - 2
        assert not (names - kept) & set(linecache.cache)
        assert compiler.cache_size() == 3 + len(variants) - 2
        # The two *newest* generations were kept: the current source
        # ("a & b") and the previous one ("a ^ b") compile fully from
        # cache, while an evicted older generation recompiles.
        result = compiler.compile_top("top")
        assert result.report.recompiled_keys == []
        compiler.update_source(COUNTER_SRC.replace("a + b", "a ^ b"))
        assert compiler.compile_top("top").report.recompiled_keys == []
        compiler.update_source(COUNTER_SRC.replace("a + b", "a - b"))
        result = compiler.compile_top("top")
        assert result.report.recompiled_keys == ["adder#(W=8)"]

    def test_evict_stale_keeps_every_flavour_of_the_live_generation(self):
        """The six sanitize x opt flavours of an un-edited design are
        one generation each, not six generations of one spec."""
        session = LiveSession(TWO_MODULE_SRC)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        for mode in ("report", "off"):
            for level in ("basic", "full", "none"):
                session.set_sanitize(mode)
                session.set_opt(level)
        assert session.compiler.cache_size() == 2 * 6
        assert session.compiler.evict_stale() == 0
        for mode in ("report", "off"):
            for level in ("basic", "full", "none"):
                assert session.set_sanitize(mode)["recompiled_keys"] == []
                assert session.set_opt(level)["recompiled_keys"] == []

    def test_evict_stale_counts_evictions(self):
        from repro import obs

        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        for variant in ["a - b", "a ^ b", "a & b"]:
            compiler.update_source(COUNTER_SRC.replace("a + b", variant))
            compiler.compile_top("top")
        metrics = obs.get_metrics()
        before = metrics.counter("compile.cache_evicted")
        evicted = compiler.evict_stale(keep_generations=1)
        assert evicted == 3
        assert metrics.counter("compile.cache_evicted") == before + 3
        assert metrics.gauge_value("compile.cache_size") == compiler.cache_size()

    def test_evict_stale_noop_below_bound(self):
        from repro import obs

        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        metrics = obs.get_metrics()
        before = metrics.counter("compile.cache_evicted")
        size = compiler.cache_size()
        assert compiler.evict_stale(keep_generations=4) == 0
        # The no-op path touches neither the cache nor the counter.
        assert compiler.cache_size() == size
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
