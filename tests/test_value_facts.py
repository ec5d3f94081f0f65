"""repro.passes.dataflow: the known-bits / value-range analysis.

Covers the abstract domain's algebra, the forward walk over real
modules (both fact tiers), site recording, cross-module input-fact
propagation, the facts cache, and the elision plans + const-reg
initialization built on top (repro.sanitize.elide).
"""

from repro import BuildConfig, compile_design
from repro.codegen.build import DerivedCache
from repro.hdl import elaborate, parse
from repro.live.compiler_live import CompileReport
from repro.passes.dataflow import (
    ValueFact,
    compute_netlist_facts,
    vf_const,
    vf_join,
    vf_to_width,
    vf_top,
    vf_widen,
)
from repro.sanitize import (
    build_elision_plan,
    reg_const_init,
    san_free_keys,
)


def facts_for(source, top="m", **kwargs):
    netlist = elaborate(parse(source), top)
    return compute_netlist_facts(netlist, **kwargs), netlist


# ---------------------------------------------------------------------------
# Domain algebra
# ---------------------------------------------------------------------------


class TestValueFactDomain:
    def test_const_roundtrip(self):
        fact = vf_const(5, 8)
        assert fact.is_const and fact.const_value == 5
        assert fact.truth() is True
        assert vf_const(0, 8).truth() is False

    def test_top_knows_nothing(self):
        fact = vf_top(8)
        assert fact.is_top
        assert fact.truth() is None
        assert (fact.lo, fact.hi) == (0, 255)

    def test_join_is_sound_for_both_abstractions(self):
        joined = vf_join(vf_const(4, 8), vf_const(6, 8))
        assert (joined.lo, joined.hi) == (4, 6)
        # Bit 1 differs between 0b100 and 0b110 -> unknown; bit 0
        # agrees (0), bit 2 agrees (1).
        assert joined.known_mask & 0b010 == 0
        assert joined.known_bits & 0b100 == 0b100

    def test_join_with_unknown_is_unknown(self):
        assert vf_join(vf_const(4, 8), None) is None

    def test_interval_implies_high_zero_bits(self):
        fact = vf_join(vf_const(2, 8), vf_const(3, 8))
        # hi=3: bits 2..7 provably zero.
        assert fact.known_mask & 0xFC == 0xFC
        assert fact.known_bits & 0xFC == 0

    def test_widen_jumps_moving_bounds(self):
        old = ValueFact(8, 0, 0, 0, 10)
        new = ValueFact(8, 0, 0, 0, 11)
        widened = vf_widen(old, new)
        assert widened.hi == 255  # still growing: jump to the extreme
        assert widened.lo == 0

    def test_to_width_zero_extends_with_known_high_bits(self):
        wide = vf_to_width(vf_const(5, 4), 8)
        assert wide.is_const and wide.const_value == 5
        narrowed = vf_to_width(vf_top(8), 4)
        assert narrowed.hi == 15


# ---------------------------------------------------------------------------
# Forward walk
# ---------------------------------------------------------------------------


MASKED_SRC = """
module m (
  input clk,
  input [7:0] a,
  output [7:0] y
);
  wire [7:0] low;
  wire [7:0] shifted;
  assign low = a & 8'h0F;
  assign shifted = low + 8'd16;
  assign y = shifted;
endmodule
"""


class TestForwardWalk:
    def test_mask_then_add_tracks_interval(self):
        facts, _ = facts_for(MASKED_SRC)
        env = facts["m"].env
        assert (env["low"].lo, env["low"].hi) == (0, 15)
        assert (env["shifted"].lo, env["shifted"].hi) == (16, 31)

    def test_known_bits_through_and(self):
        facts, _ = facts_for(MASKED_SRC)
        low = facts["m"].env["low"]
        assert low.known_mask & 0xF0 == 0xF0
        assert low.known_bits & 0xF0 == 0

    def test_env_tier_sees_reset_zero_registers(self):
        facts, _ = facts_for("""
module m (input clk, input en, output [7:0] y);
  reg [7:0] cleared;
  always @(posedge clk) begin
    if (en)
      cleared <= 8'd0;
  end
  assign y = cleared;
endmodule
""")
        mod = facts["m"]
        # Starts at reset zero and only ever rewritten to zero.
        assert mod.env["cleared"].is_const
        assert mod.env["cleared"].const_value == 0

    def test_stable_tier_keeps_counting_register_top(self):
        facts, _ = facts_for("""
module m (input clk, output [7:0] y);
  reg [7:0] count;
  always @(posedge clk) count <= count + 8'd1;
  assign y = count;
endmodule
""")
        mod = facts["m"]
        # From reset the counter can reach anything (widening); the
        # swap-survivable tier must not assume reset either.
        assert mod.env["count"].is_top
        assert mod.stable["count"].is_top

    def test_invariant_register_stays_bounded_in_env_tier(self):
        facts, _ = facts_for("""
module m (input clk, input [7:0] a, output [7:0] y);
  reg [7:0] held;
  always @(posedge clk) held <= a & 8'h03;
  assign y = held;
endmodule
""")
        mod = facts["m"]
        # From-reset: {0} joined with [0,3] across rounds -> [0,3].
        assert (mod.env["held"].lo, mod.env["held"].hi) == (0, 3)
        # Swap-survivable: an adopted state could hold anything.
        assert mod.stable["held"].is_top

    def test_fixpoint_terminates_on_feedback(self):
        # Widening caps the rounds; this just has to finish.
        facts, _ = facts_for("""
module m (input clk, input [7:0] a, output [7:0] y);
  reg [7:0] s0;
  reg [7:0] s1;
  always @(posedge clk) begin
    s0 <= s1 + a;
    s1 <= s0 ^ a;
  end
  assign y = s0;
endmodule
""")
        assert facts["m"].env["s0"].width == 8

    def test_explain_walks_the_derivation(self):
        facts, _ = facts_for(MASKED_SRC)
        chain = facts["m"].explain("shifted")
        assert any("shifted" in line for line in chain)
        assert any("low" in line for line in chain)
        assert any("module input" in line for line in chain)


# ---------------------------------------------------------------------------
# Site recording
# ---------------------------------------------------------------------------


class TestSites:
    def test_safe_dynamic_bit_index(self):
        facts, _ = facts_for("""
module m (input [7:0] a, input [2:0] sel, output y);
  assign y = a[sel];
endmodule
""")
        ((_, site),) = facts["m"].stable_ob_sites.items()
        assert site.safe and not site.provably_oob
        assert site.bound == 8

    def test_provably_oob_memory_write(self):
        facts, _ = facts_for("""
module m (input clk, input [7:0] a, output [7:0] y);
  reg [7:0] store [0:3];
  wire [3:0] addr;
  assign addr = (a & 8'h03) + 4'd4;
  always @(posedge clk) store[addr] <= a;
  assign y = store[a[1:0]];
endmodule
""")
        sites = facts["m"].ob_sites
        oob = [s for s in sites.values() if s.provably_oob]
        assert len(oob) == 1
        assert oob[0].bound == 4

    def test_safe_truncation_site(self):
        facts, _ = facts_for("""
module m (input [7:0] a, output [3:0] y);
  wire [7:0] nib;
  assign nib = a & 8'h0F;
  assign y = nib;
endmodule
""")
        ((_, site),) = facts["m"].stable_tr_sites.items()
        assert site.safe and not site.provably_lossy

    def test_conflicting_bounds_pin_site_to_unknown(self):
        # Two same-line sites on one signal can't happen, but two
        # recordings of one site across walks join; a joined fact that
        # can exceed the bound must not be safe.
        facts, _ = facts_for("""
module m (input [7:0] a, input sel, output y);
  wire [3:0] idx;
  assign idx = sel ? 4'd2 : 4'd12;
  assign y = a[idx];
endmodule
""")
        ((_, site),) = facts["m"].stable_ob_sites.items()
        assert not site.safe and not site.provably_oob


# ---------------------------------------------------------------------------
# Cross-module propagation + cache
# ---------------------------------------------------------------------------


HIER_SRC = """
module leaf(input [7:0] v, output [7:0] y);
  assign y = v + 8'd1;
endmodule

module m(input clk, input [7:0] a, output [7:0] out);
  wire [7:0] y0;
  wire [7:0] y1;
  leaf u0 (.v(8'd4), .y(y0));
  leaf u1 (.v(8'd6), .y(y1));
  assign out = y0 + y1;
endmodule
"""


class TestCrossModule:
    def test_input_facts_join_over_instantiation_sites(self):
        facts, _ = facts_for(HIER_SRC)
        leaf = facts["leaf"]
        # Two sites feed 4 and 6: the join is [4, 6].
        assert (leaf.input_facts["v"].lo, leaf.input_facts["v"].hi) == (4, 6)
        assert (leaf.env["y"].lo, leaf.env["y"].hi) == (5, 7)

    def test_parent_reads_child_output_facts(self):
        facts, _ = facts_for(HIER_SRC)
        parent = facts["m"]
        # Phase 1 summaries are context-free, so y0/y1 read as the
        # unconstrained leaf output — still bounded by the add.
        assert parent.env["out"].width == 8

    def test_cache_reuses_clean_modules(self):
        netlist = elaborate(parse(HIER_SRC), "m")
        fps = {"leaf": "fp-leaf", "m": "fp-m"}
        cache = DerivedCache()
        first, second = CompileReport("m"), CompileReport("m")
        compute_netlist_facts(netlist, fps=fps, cache=cache, report=first)
        assert first.pass_computed["dataflow"] and not first.pass_reused
        compute_netlist_facts(netlist, fps=fps, cache=cache, report=second)
        assert not second.pass_computed
        assert sorted(second.pass_reused["dataflow"]) == sorted(
            first.pass_computed["dataflow"]
        )

    def test_digest_changes_with_behaviour(self):
        # The parent edit changes what it feeds the (untouched) child:
        # the child's phase-2 facts — and so its digest — must move.
        facts_a, _ = facts_for(HIER_SRC)
        facts_b, _ = facts_for(HIER_SRC.replace("8'd6", "8'd9"))
        assert facts_a["leaf"].digest != facts_b["leaf"].digest
        assert facts_b["leaf"].input_facts["v"].hi == 9


# ---------------------------------------------------------------------------
# Elision plans + const-reg initialization
# ---------------------------------------------------------------------------


ELIDE_SRC = """
module m (
  input clk,
  input [7:0] a,
  output [7:0] y,
  output [3:0] t
);
  wire [2:0] sel;
  wire [7:0] nib;
  assign sel = a[2:0];
  assign nib = a & 8'h0F;
  assign y = {7'd0, a[sel]};
  assign t = nib;
endmodule
"""


class TestElisionPlan:
    def test_safe_sites_elide(self):
        facts, _ = facts_for(ELIDE_SRC)
        plan = build_elision_plan(facts["m"])
        assert plan.ob_safe  # a[sel] with sel in [0,7] vs bound 8
        assert plan.tr_safe  # t = nib with nib in [0,15] into 4 bits
        assert plan.rr_fast

    def test_unsafe_sites_stay(self):
        facts, _ = facts_for("""
module m (input [7:0] a, input [3:0] sel, output y);
  assign y = a[sel];
endmodule
""")
        plan = build_elision_plan(facts["m"])
        assert not plan.ob_safe  # sel in [0,15] vs bound 8

    def test_const_reg_init_from_env_tier(self):
        facts, _ = facts_for("""
module m (input clk, output [7:0] y);
  reg [7:0] stuck;
  always @(posedge clk) stuck <= 8'd0;
  assign y = stuck;
endmodule
""", top="m")
        netlist = elaborate(parse("""
module m (input clk, output [7:0] y);
  reg [7:0] stuck;
  always @(posedge clk) stuck <= 8'd0;
  assign y = stuck;
endmodule
"""), "m")
        init = reg_const_init(facts["m"], netlist.modules["m"])
        assert init == {"stuck": 0}

    def test_san_free_requires_no_sites_anywhere(self):
        netlist = elaborate(parse(HIER_SRC), "m")
        free = san_free_keys(netlist)
        # leaf has a tr site? v + 1 is 8-bit into 8-bit: no.  Neither
        # module reads a register or memory: both are san-free.
        assert set(free) == set(netlist.modules)

    def test_register_read_is_never_san_free(self):
        netlist = elaborate(parse("""
module m (input clk, output [7:0] y);
  reg [7:0] q;
  always @(posedge clk) q <= q + 8'd1;
  assign y = q;
endmodule
"""), "m")
        assert san_free_keys(netlist) == frozenset()


# ---------------------------------------------------------------------------
# Compiled-module integration
# ---------------------------------------------------------------------------


class TestCompiledElision:
    def _sanitized(self, san_elide):
        from repro.passes import run_opt_pipeline
        from repro.sanitize import SanitizerRuntime

        runtime = SanitizerRuntime(mode="report")
        netlist = elaborate(parse(ELIDE_SRC), "m")
        library = run_opt_pipeline(
            netlist, BuildConfig(sanitize=True, san_elide=san_elide),
            sanitize_runtime=runtime,
        )
        return netlist, library, runtime

    def test_sanitized_compile_reports_elision_counters(self):
        _, library, _ = self._sanitized(san_elide=True)
        (mod,) = library.values()
        assert mod.san_sites > 0
        assert 0 < mod.san_elided <= mod.san_sites

    def test_unsanitized_compile_has_no_counters(self):
        _, lib = compile_design(ELIDE_SRC, "m")
        (mod,) = lib.values()
        assert mod.san_sites == 0 and mod.san_elided == 0

    def test_elided_and_plain_sanitize_bit_exact(self):
        from repro import Pipe

        netlist, plain, p_rt = self._sanitized(san_elide=False)
        _, elided, e_rt = self._sanitized(san_elide=True)
        (plain_mod,) = plain.values()
        (elided_mod,) = elided.values()
        assert plain_mod.san_elided == 0
        assert elided_mod.san_elided > 0
        p = Pipe(netlist.top, plain)
        e = Pipe(netlist.top, elided)
        for a in range(0, 256, 7):
            p.set_inputs(a=a)
            e.set_inputs(a=a)
            assert p.eval() == e.eval()
            p.tick()
            e.tick()
        assert p_rt.counters() == e_rt.counters()
