"""Differential fuzzing of the sanitizer over the clean corpus.

Reuses the generators from :mod:`tests.test_fuzz_codegen` and
:mod:`tests.test_fuzz_hierarchy`, recompiled with instrumentation in
``report`` mode.  Two properties must hold on every example:

* value transparency — the sanitized pipe agrees bit-for-bit with the
  clean pipe (the hooks never perturb simulation semantics);
* no invented findings — uninit-read, oob-index, and nb-write-conflict
  never fire on a cold, in-bounds, single-writer corpus, and
  trunc-overflow fires exactly when the reference interpreter says the
  output assignment actually dropped nonzero bits.

Both fuzzers also run with proof-driven check elision active
(``repro.sanitize.elide``, through the pass pipeline): the elided
build must agree bit-for-bit with the clean build AND report exactly
the hit counters of the unelided build — on the clean corpus and on a
seeded-bug corpus where findings genuinely fire.  Elision removing a
check that would have reported is the bug class these pin down.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import compile_design
from repro.codegen.build import BuildConfig
from repro.codegen.pygen import compile_netlist
from repro.hdl import elaborate, parse
from repro.hdl.parser import parse_expr
from repro.sanitize import (
    SAN_NB_CONFLICT,
    SAN_OOB,
    SAN_TRUNC,
    SAN_UNINIT,
    SanitizerRuntime,
)
from repro.sim import Pipe
from tests.test_fuzz_codegen import (
    OUT_WIDTH,
    STIMULI,
    expr_text,
    module_for,
    ref_eval,
)
from tests.test_fuzz_hierarchy import random_design, stimulus


def sanitized_pipe(source, top):
    runtime = SanitizerRuntime(mode="report")
    netlist = elaborate(parse(source), top)
    library = compile_netlist(
        netlist, BuildConfig(sanitize=True), runtime=runtime
    )
    return Pipe(netlist.top, library), runtime


def pipeline_pipe(source, top, san_elide=True, opt="none"):
    """Sanitized build through the pass pipeline (elision on/off)."""
    from repro.passes import run_opt_pipeline

    runtime = SanitizerRuntime(mode="report")
    netlist = elaborate(parse(source), top)
    library = run_opt_pipeline(
        netlist,
        BuildConfig(sanitize=True, opt=opt, san_elide=san_elide),
        sanitize_runtime=runtime,
    )
    return Pipe(netlist.top, library), library, runtime


class TestExpressionFuzzSanitized:
    @given(expr=expr_text())
    @settings(max_examples=60, deadline=None)
    def test_report_mode_is_value_transparent(self, expr):
        source = module_for(expr)
        netlist, library = compile_design(source, "m")
        clean = Pipe(netlist.top, library)
        pipe, runtime = sanitized_pipe(source, "m")
        tree = parse_expr(expr)
        expect_trunc = False
        for env in STIMULI:
            clean.set_inputs(**env)
            pipe.set_inputs(**env)
            assert pipe.eval()["y"] == clean.eval()["y"], expr
            if ref_eval(tree, env) >> OUT_WIDTH:
                expect_trunc = True
        # The cold corpus is clean for every stateful check...
        assert runtime.hits[SAN_UNINIT] == 0, expr
        assert runtime.hits[SAN_OOB] == 0, expr
        assert runtime.hits[SAN_NB_CONFLICT] == 0, expr
        # ...and truncation fires exactly when the reference semantics
        # say the (only) assignment dropped nonzero bits.
        assert (runtime.hits[SAN_TRUNC] > 0) == expect_trunc, expr


class TestHierarchyFuzzSanitized:
    @given(source=random_design(), stim=stimulus())
    @settings(max_examples=25, deadline=None)
    def test_clean_corpus_has_zero_findings(self, source, stim):
        netlist, library = compile_design(source, "top")
        clean = Pipe(netlist.top, library)
        pipe, runtime = sanitized_pipe(source, "top")
        for inputs in stim:
            clean.set_inputs(**inputs)
            pipe.set_inputs(**inputs)
            assert pipe.eval() == clean.eval(), source
            clean.tick()
            pipe.tick()
        assert runtime.findings == [], source
        assert all(count == 0 for count in runtime.hits.values()), source


class TestExpressionFuzzElided:
    @given(expr=expr_text())
    @settings(max_examples=60, deadline=None)
    def test_elision_is_value_and_finding_transparent(self, expr):
        # The expression corpus doubles as the trunc-overflow seeded
        # corpus: module_for() assigns into a fixed-width output, so a
        # slice of the examples genuinely fires trunc findings.
        source = module_for(expr)
        netlist, library = compile_design(source, "m")
        clean = Pipe(netlist.top, library)
        elided, elided_lib, e_rt = pipeline_pipe(source, "m")
        full, full_lib, f_rt = pipeline_pipe(source, "m", san_elide=False)
        for env in STIMULI:
            clean.set_inputs(**env)
            elided.set_inputs(**env)
            full.set_inputs(**env)
            y = clean.eval()["y"]
            assert elided.eval()["y"] == y, expr
            assert full.eval()["y"] == y, expr
        # Bit-exact is necessary but not sufficient: elision must not
        # change WHAT fires either.
        assert e_rt.hits == f_rt.hits, expr
        (full_mod,) = full_lib.values()
        assert full_mod.san_elided == 0


class TestHierarchyFuzzElided:
    @given(source=random_design(), stim=stimulus())
    @settings(max_examples=25, deadline=None)
    def test_elided_hierarchy_bit_exact_with_equal_findings(
        self, source, stim
    ):
        netlist, library = compile_design(source, "top")
        clean = Pipe(netlist.top, library)
        elided, _, e_rt = pipeline_pipe(source, "top", opt="full")
        full, _, f_rt = pipeline_pipe(
            source, "top", san_elide=False, opt="full"
        )
        for inputs in stim:
            for pipe in (clean, elided, full):
                pipe.set_inputs(**inputs)
            out = clean.eval()
            assert elided.eval() == out, source
            assert full.eval() == out, source
            for pipe in (clean, elided, full):
                pipe.tick()
        assert e_rt.hits == f_rt.hits, source


# Seeded-bug corpus: designs where findings MUST fire.  Elision is
# only admissible if the elided build reports the identical hits.

# A 4-word memory walked by a 3-bit counter: oob fires on the upper
# half of the count range.
SEEDED_OOB_MEM = """
module top (
  input clk,
  input rst,
  input [7:0] x,
  output [7:0] out
);
  reg [7:0] mem [0:3];
  reg [2:0] idx_q;
  assign out = mem[idx_q];
  always @(posedge clk) begin
    mem[idx_q[1:0]] <= x;
    if (rst) idx_q <= 0;
    else idx_q <= idx_q + 3'd1;
  end
endmodule
"""

# An input-driven bit index over an 8-bit signal: oob fires whenever
# x[3:0] > 7 (unprovable either way, so the site must stay).
SEEDED_OOB_BIT = """
module top (
  input clk,
  input rst,
  input [7:0] x,
  output out
);
  wire [7:0] word;
  assign word = x ^ 8'h5A;
  assign out = word[x[3:0]];
endmodule
"""

# A genuinely lossy truncation: x + 255 can carry into bit 8.
SEEDED_TRUNC = """
module top (
  input clk,
  input rst,
  input [7:0] x,
  output [7:0] out
);
  wire [8:0] wide;
  assign wide = {1'b0, x} + 9'd255;
  assign out = wide;
endmodule
"""


class TestSeededBugsElided:
    @pytest.mark.parametrize("source,kind", [
        (SEEDED_OOB_MEM, SAN_OOB),
        (SEEDED_OOB_BIT, SAN_OOB),
        (SEEDED_TRUNC, SAN_TRUNC),
    ])
    @pytest.mark.parametrize("opt", ["none", "full"])
    def test_elision_never_suppresses_a_seeded_finding(
        self, source, kind, opt
    ):
        elided, _, e_rt = pipeline_pipe(source, "top", opt=opt)
        full, _, f_rt = pipeline_pipe(
            source, "top", san_elide=False, opt=opt
        )
        for cycle in range(16):
            x = (cycle * 37 + 11) & 0xFF
            for pipe in (elided, full):
                pipe.set_inputs(rst=0, x=x)
            assert elided.eval() == full.eval(), source
            for pipe in (elided, full):
                pipe.tick()
        assert f_rt.hits[kind] > 0, "corpus failed to seed the bug"
        assert e_rt.hits == f_rt.hits, source

    def test_hot_reload_uninit_read_survives_elision(self):
        # The acceptance scenario from test_sanitize, but compiled
        # through the pipeline with elision + full opt: the swapped-in
        # shadow register is NOT provably constant (it latches the
        # counter), so its read keeps the rr check and the uninit
        # finding still fires on the first post-swap cycle.
        from repro.live.session import LiveSession
        from repro.sim.testbench import reset_sequence
        from tests.test_sanitize import EDIT, SRC

        session = LiveSession(
            SRC, checkpoint_interval=10, sanitize="report", opt="full"
        )
        tb = session.load_testbench(reset_sequence("rst", cycles=2))
        session.inst_pipe("p0", session.stage_handle_for("top"))
        session.run(tb, "p0", 25)
        session.apply_change(EDIT)
        session.run(tb, "p0", 1)
        findings = session.sanitize_runtime.findings
        assert any(f.kind == SAN_UNINIT for f in findings)
