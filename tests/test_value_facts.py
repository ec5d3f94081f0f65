"""repro.passes.dataflow: the known-bits / value-range analysis.

Covers the abstract domain's algebra, the forward walk over real
modules, site recording, cross-module input-fact propagation, the facts
cache and the width rule the sanitizer elides by (which reads no fact).
"""

import contextlib
import dataclasses
import importlib
import re
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro import BuildConfig, compile_design, obs
from repro.analyze import Analyzer
from repro.codegen.build import DerivedCache
from repro.codegen.pygen import site_count
from repro.hdl import ast_nodes as ast, elaborate, parse
from repro.hdl.consteval import stmt_reads_writes
from repro.ir.netlist import CombAssignIR, SeqBlockIR
from repro.live.compiler_live import CompileReport, LiveCompiler
from repro.passes import PassData, build_compile_pipeline, dataflow
from repro.passes.dataflow import (
    ValueFact,
    compute_netlist_facts,
    vf_const,
    vf_join,
    vf_to_width,
    vf_top,
    vf_widen,
)
from repro.riscv.patches import PATCHES
from repro.riscv.pgas import build_pgas_source, mesh_top_name
from tests.test_fuzz_codegen import expr_text, module_for
from tests.test_fuzz_hierarchy import random_design


def san_free_of(netlist):
    """What the sanitize plan marks san-free in a sanitized build."""
    data = PassData(netlist=netlist, build=BuildConfig(sanitize=True))
    for p in build_compile_pipeline().passes:
        p.run(data)
        if p.name == "sanitize_plan":
            return data.san_free


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

    def test_counting_register_widens_to_top(self):
        facts, _ = facts_for("""
module m (input clk, output [7:0] y);
  reg [7:0] count;
  always @(posedge clk) count <= count + 8'd1;
  assign y = count;
endmodule
""")
        # From reset the counter can reach anything (widening).
        assert facts["m"].env["count"].is_top

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
        chain = [note for note, _ in facts["m"].explain("shifted")]
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
        ((_, site),) = facts["m"].ob_sites.items()
        assert (site.fact.lo, site.fact.hi, site.bound) == (0, 7, 8)
        assert not site.provably_oob and site.reads == ("sel",)

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
        ((_, site),) = facts["m"].tr_sites.items()
        assert (site.fact.hi, site.declared, site.value_width) == (15, 4, 8)
        assert not site.provably_lossy

    def test_conflicting_bounds_pin_site_to_unknown(self):
        # Two same-line sites on one signal can't happen, but two
        # recordings of one site across walks join; a joined fact that
        # straddles the bound is neither in range nor provably out.
        facts, _ = facts_for("""
module m (input [7:0] a, input sel, output y);
  wire [3:0] idx;
  assign idx = sel ? 4'd2 : 4'd12;
  assign y = a[idx];
endmodule
""")
        ((_, site),) = facts["m"].ob_sites.items()
        assert (site.fact.lo, site.fact.hi, site.bound) == (2, 12, 8)
        assert not site.provably_oob


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

    def test_facts_change_with_behaviour(self):
        # The parent edit changes what it feeds the (untouched) child:
        # the child's phase-2 facts must move.
        facts_a, _ = facts_for(HIER_SRC)
        facts_b, _ = facts_for(HIER_SRC.replace("8'd6", "8'd9"))
        assert facts_a["leaf"].input_facts != facts_b["leaf"].input_facts
        assert facts_a["leaf"].env != facts_b["leaf"].env
        assert facts_b["leaf"].input_facts["v"].hi == 9


# ---------------------------------------------------------------------------
# The width rule and san-free subtrees
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


def sanitized_module(source, san_elide=True, top="m"):
    from repro.passes import compile_netlist

    library = compile_netlist(
        elaborate(parse(source), top),
        BuildConfig(sanitize=True, san_elide=san_elide),
    )
    return library[top]


class TestElisionPlan:
    def test_safe_sites_elide(self):
        # a[sel]: a 3-bit index cannot reach bit 8, whatever sel holds.
        # t = nib: the facts say nib < 16, but a too-wide assignment is
        # never elided by width, so its check stays, inline.
        mod = sanitized_module(ELIDE_SRC)
        assert (mod.san_sites, mod.san_elided) == (2, 1)
        assert "_san.ob(" not in mod.source
        assert "_san.tr(" in mod.source

    def test_unsafe_sites_stay(self):
        # The facts are the same as above (sel is an input either way);
        # only the index width moved, past the bound.
        mod = sanitized_module("""
module m (input [7:0] a, input [3:0] sel, output y);
  assign y = a[sel];
endmodule
""")
        assert (mod.san_sites, mod.san_elided) == (1, 0)
        assert "_san.ob(" in mod.source

    def test_width_rule_needs_san_elide(self):
        mod = sanitized_module(ELIDE_SRC, san_elide=False)
        assert (mod.san_sites, mod.san_elided) == (2, 0)
        assert "_san.ob(" in mod.source

    def test_san_free_requires_no_sites_anywhere(self):
        netlist = elaborate(parse(HIER_SRC), "m")
        # leaf has a tr site? v + 1 is 8-bit into 8-bit: no.  Neither
        # module reads a register or memory: the generator writes no
        # hook for either, and the plan marks both (pure) san-free.
        for ir in netlist.modules.values():
            assert site_count(ir, netlist) == 0
        assert set(san_free_of(netlist)) == set(netlist.modules)

    def test_register_read_is_never_san_free(self):
        netlist = elaborate(parse("""
module m (input clk, output [7:0] y);
  reg [7:0] q;
  always @(posedge clk) q <= q + 8'd1;
  assign y = q;
endmodule
"""), "m")
        assert site_count(netlist.modules["m"], netlist) > 0
        assert san_free_of(netlist) == frozenset()


# ---------------------------------------------------------------------------
# Compiled-module integration
# ---------------------------------------------------------------------------


class TestCompiledElision:
    def _sanitized(self, san_elide):
        from repro.passes import compile_netlist
        from repro.sanitize import SanitizerRuntime

        runtime = SanitizerRuntime(mode="report")
        netlist = elaborate(parse(ELIDE_SRC), "m")
        library = compile_netlist(
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


# ---------------------------------------------------------------------------
# The item memo and the undo log, against an engine that never reuses
# ---------------------------------------------------------------------------


class _NeverHits(dict):
    """An item memo whose lookups always miss."""

    def get(self, key, default=None):
        return None


def _copying_exec_branches(self, ev, bodies, env, writes, assigned,
                           include_identity):
    """PR 21's branch execution, verbatim: every arm on private copies
    of the environment, then a merge over every key."""
    env_results, write_results, assigned_results = [], [], []
    for body in bodies:
        env_copy = dict(env)
        writes_copy = dict(writes) if writes is not None else None
        assigned_copy = set()
        branch_ev = dataflow.FactEval(self.ir, env_copy, ev.rec, ev.base)
        self._exec_stmts(branch_ev, body, env_copy, writes_copy,
                         assigned_copy)
        env_results.append(env_copy)
        write_results.append(writes_copy)
        assigned_results.append(assigned_copy)
    if include_identity:
        env_results.append(dict(env))
        write_results.append(dict(writes) if writes is not None else None)
        assigned_results.append(set())
    _all_keys_merge_into(self, env, env_results, env)
    if writes is not None:
        _all_keys_merge_into(self, writes, write_results, env)
    survivors = assigned_results[0]
    for extra in assigned_results[1:]:
        survivors = survivors & extra
    assigned |= survivors


def _all_keys_merge_into(self, dst, results, fallback):
    keys = set()
    for result in results:
        keys.update(result)
    for name in keys:
        facts = []
        degraded = False
        for result in results:
            fact = result.get(name)
            if fact is None:
                fact = fallback.get(name)
            if fact is None:
                degraded = True
                break
            facts.append(fact)
        if degraded or not facts:
            sig = self.ir.signals.get(name)
            width = sig.width if sig is not None else 1
            dst[name] = vf_top(width)
            continue
        merged = facts[0]
        for fact in facts[1:]:
            if fact is not merged:
                merged = vf_join(merged, fact)
        dst[name] = merged


@contextlib.contextmanager
def never_reusing_engine():
    """The same interpreter with nothing shared: the memo always
    misses and branch arms run on copies (``src/`` has no switch for
    either; the test substitutes the objects)."""
    analysis = dataflow._ModuleAnalysis
    original_init = analysis.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.memo, self.older = _NeverHits(), []

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "__init__", init)
        patch.setattr(analysis, "_exec_branches", _copying_exec_branches)
        yield


def facts_and_walks(netlist):
    """``compute_netlist_facts`` plus what every walk returned, in
    order (a round's sequential writes reach the facts only joined
    with the register's current fact, so only this trace sees them
    all)."""
    walks = []
    analysis = dataflow._ModuleAnalysis
    comb_walk, seq_walk = analysis._comb_walk, analysis._seq_walk

    def traced_comb(self, *args):
        env = comb_walk(self, *args)
        walks.append((self.ir.key, "comb", dict(env)))
        return env

    def traced_seq(self, *args):
        writes, assigned = seq_walk(self, *args)
        walks.append((self.ir.key, "seq", dict(writes), set(assigned)))
        return writes, assigned

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_comb_walk", traced_comb)
        patch.setattr(analysis, "_seq_walk", traced_seq)
        return compute_netlist_facts(netlist), walks


def assert_same_facts(got, want):
    assert got.keys() == want.keys()
    for key, expected in want.items():
        # env, the four site dicts, origins, deps, always_written,
        # the boundary facts, key and input_facts.
        for spec in dataclasses.fields(expected):
            if spec.name != "run_key":  # names a run, holds no fact
                assert getattr(got[key], spec.name) == getattr(
                    expected, spec.name), (key, spec.name)


def assert_reuse_changes_nothing(netlist):
    got, got_walks = facts_and_walks(netlist)
    with never_reusing_engine():
        want, want_walks = facts_and_walks(netlist)
    assert_same_facts(got, want)
    assert len(got_walks) == len(want_walks)
    for got_walk, want_walk in zip(got_walks, want_walks):
        assert got_walk == want_walk, want_walk[:2]


# One module with every shape the memo key and the rollback have to get
# right (see TestNoReuseDifferential.test_hand_written_corner_cases).
CORNERS_SRC = """
module m (
  input clk, input en, input [1:0] sel, input [7:0] a, input [7:0] b,
  output [7:0] o_vec, output o1, output o2, output [1:0] o3,
  output [7:0] o_p, output [7:0] o_q, output [7:0] o_u, output [7:0] o_w,
  output [7:0] o_hold, output [7:0] o_part
);
  reg [2:0] idx_q;
  reg [3:0] sat_q;
  reg [7:0] hold_q;
  reg [7:0] lag_q;
  reg [7:0] part_q;
  reg [7:0] p;
  reg [7:0] q;
  reg [7:0] t;
  reg [7:0] u;
  reg [7:0] w;
  wire [7:0] vec;
  assign vec = a;
  assign o_vec = vec;
  assign o1 = b[idx_q]; assign o2 = b[sat_q]; assign o3 = b[idx_q +: 2];
  assign o_p = p;
  assign o_q = q;
  assign o_u = u;
  assign o_w = w;
  assign o_hold = hold_q;
  assign o_part = part_q;
  always @(*) begin
    case (sel)
      2'd0: begin
        if (a[0]) p = 8'd200; else q = b;
      end
      2'd1: q = a;
      2'd2: q = {4'd0, sat_q};
    endcase
  end
  always @(*) begin
    w = t + 8'd1;
    t = {5'd0, idx_q};
    u = t ^ b;
    if (en) t = u;
  end
  always @(posedge clk) begin
    idx_q <= idx_q + 3'd1;
    if (sat_q < 4'd10) sat_q <= sat_q + 4'd1;
    if (en) hold_q <= 8'd5;
    if (sat_q > 4'd9) lag_q <= sel[0] ? 8'd2 : 8'd5;
    if (sel[0]) part_q[idx_q] <= 1'b1; else part_q <= {4'd0, b[3:0]};
  end
endmodule
"""


def corners_netlist():
    netlist = elaborate(parse(CORNERS_SRC), "m")
    # The elaborator refuses ``assign vec[idx_q] = a;``; the engine
    # does not rely on that, so hand it one.
    (assign,) = [item for item in netlist.modules["m"].comb_assigns
                 if item.target.name == "vec"]
    assign.target.index = ast.Id(name="idx_q", line=assign.line)
    return netlist


def _design_tops():
    designs = Path(__file__).resolve().parent.parent / "examples" / "designs"
    for path in sorted(designs.glob("*.v")):
        for top in parse(path.read_text()).modules:
            yield pytest.param(path, top, id=f"{path.name}-{top}")


class TestNoReuseDifferential:
    @pytest.mark.parametrize("n", [2, 4])
    def test_pgas_mesh(self, n):
        assert_reuse_changes_nothing(
            elaborate(parse(build_pgas_source(n)), mesh_top_name(n)))

    @pytest.mark.parametrize("name", list(PATCHES))
    def test_patch_variants(self, name):
        source = PATCHES[name].inject(build_pgas_source(2))
        assert_reuse_changes_nothing(
            elaborate(parse(source), mesh_top_name(2)))

    @pytest.mark.parametrize("path,top", _design_tops())
    def test_example_designs(self, path, top):
        assert_reuse_changes_nothing(elaborate(parse(path.read_text()), top))

    @given(source=random_design())
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_hierarchies(self, source):
        assert_reuse_changes_nothing(elaborate(parse(source), "top"))

    @given(expr=expr_text())
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_expressions(self, expr):
        assert_reuse_changes_nothing(elaborate(parse(module_for(expr)), "m"))

    def test_hand_written_corner_cases(self):
        netlist = corners_netlist()
        assert_reuse_changes_nothing(netlist)
        facts = compute_netlist_facts(netlist)["m"]
        # The corners are really there: a dynamically indexed
        # continuous target whose index only the target reads ...
        (vec_site,) = [site for (name, _), site in facts.ob_sites.items()
                       if name == "vec"]
        assert vec_site.reads == ("idx_q",) and vec_site.fact.hi == 7
        # ... three sites under one (name, line) key, one of them with
        # another bound (so the collision gives up on the fact) ...
        (b_site,) = [site for (name, _), site in facts.ob_sites.items()
                     if name == "b"]
        assert b_site.fact is None and b_site.bound == 7
        # ... a case without default whose arms write different names
        # (p and q keep the zero of the path that skips them) ...
        assert (facts.env["p"].lo, facts.env["p"].hi) == (0, 200)
        assert facts.env["q"].is_top
        # ... a comb block reading ``t`` before and after it writes it
        # (``w`` sees the zero the block starts from) ...
        assert facts.env["w"].is_const and facts.env["w"].const_value == 1
        # ... a register one path leaves alone, another that a path
        # leaves alone while widening moves its fact (to [0, 7], past
        # the [0, 5] of its writes) in a round whose reads equal the
        # next one's, and one written in part on one path and in full
        # on the other.
        assert (facts.env["hold_q"].lo, facts.env["hold_q"].hi) == (0, 5)
        assert (facts.env["lag_q"].lo, facts.env["lag_q"].hi) == (0, 7)
        assert facts.env["part_q"].is_top
        assert facts.always_written == {"idx_q", "part_q"}

    # -- seeded bugs: the differential has to see each of them ---------------

    def _seeded_item(self, monkeypatch, narrow):
        original = dataflow._ModuleAnalysis._item

        def item_with_a_short_key(self, item, names, env, rec):
            return original(self, item, narrow(item, names), env, rec)

        monkeypatch.setattr(dataflow._ModuleAnalysis, "_item",
                            item_with_a_short_key)

    def test_sees_an_assign_key_without_the_target_index(self, monkeypatch):
        self._seeded_item(monkeypatch, lambda item, names: (
            item.reads if isinstance(item, CombAssignIR) else names))
        with pytest.raises(AssertionError, match="ob_sites"):
            assert_reuse_changes_nothing(corners_netlist())

    def test_sees_a_sequential_key_without_the_written_names(
            self, monkeypatch):
        self._seeded_item(monkeypatch, lambda item, names: (
            tuple(sorted(stmt_reads_writes(item.body)[0]))
            if isinstance(item, SeqBlockIR) else names))
        with pytest.raises(AssertionError, match="seq"):
            assert_reuse_changes_nothing(corners_netlist())

    def test_sees_a_skipped_rollback_entry(self, monkeypatch):
        original = dataflow._ModuleAnalysis._put

        def put(self, dest, name, fact):
            if name == "p":
                dest[name] = fact  # stored, never journalled
            else:
                original(self, dest, name, fact)

        monkeypatch.setattr(dataflow._ModuleAnalysis, "_put", put)
        with pytest.raises(AssertionError, match="env"):
            assert_reuse_changes_nothing(corners_netlist())


# ``y = a`` becomes ``y = a + 8'd0``: another item, the same fact.
PINNED_SRC = """
module leaf (input clk, input [7:0] a, output [7:0] y, output [7:0] z);
  reg [7:0] q;
  wire [7:0] s;
  assign s = q + a;
  assign y = a;
  assign z = s ^ y;
  always @(posedge clk) q <= z;
endmodule
module top (input clk, input [7:0] a, output [7:0] y, output [7:0] z);
  leaf u (.clk(clk), .a(a), .y(y), .z(z));
endmodule
"""
PINNED_EDIT = PINNED_SRC.replace("assign y = a;", "assign y = a + 8'd0;")


def assert_every_version_matches_a_cold_engine(top, texts):
    """Every text through one LiveCompiler, whose item memo outlives
    each ModuleIR; at every step its facts equal what the never-reusing
    engine computes over the same netlist."""
    compiler = LiveCompiler(texts[0])
    for step, text in enumerate(texts):
        compiler.update_source(text)
        netlist = compiler.compile_top(top).netlist
        fps = {ir.name: compiler.parser.fingerprint(ir.name)
               for ir in netlist.modules.values()}
        got = compute_netlist_facts(netlist, fps, compiler.cache)
        with never_reusing_engine():
            want = compute_netlist_facts(netlist)
        try:
            assert_same_facts(got, want)
        except AssertionError as err:
            raise AssertionError(f"step {step}: {err}") from err


def _in_module(source, module, line):
    """``line`` inserted as the first item of ``module``."""
    head = re.search(rf"^module {module}\b.*?\);\n", source, re.S | re.M)
    return source[:head.end()] + line + source[head.end():]


def _nonce(source, module, value):
    """What livebench's fresh edits add: a wire nobody reads."""
    end = re.search(rf"^module {module}\b.*?^endmodule", source,
                    re.S | re.M).end() - len("endmodule")
    return (source[:end] + "  wire [31:0] lb_nonce;\n"
            f"  assign lb_nonce = 32'd{value};\n" + source[end:])


MESH = build_pgas_source(2)
# Every patch and its revert, two nonces, and a line inserted above
# every unchanged item of rv_ex.
MESH_STEPS = [MESH] + [
    text for patch in PATCHES.values() for text in (patch.inject(MESH), MESH)
] + [
    _nonce(MESH, "rv_ex", 1), _nonce(MESH, "rv_ex", 2),
    _in_module(_nonce(MESH, "rv_ex", 2), "rv_ex", "  wire lb_pad;\n"),
    _in_module(MESH, "rv_ex", "  wire lb_pad;\n"), MESH,
]

# A declaration whose width changes under items that stay the same, a
# memory whose depth changes, a line inserted above every item.
SHAPES_SRC = """
module m (input clk, input [7:0] a, input [2:0] i, output [7:0] y,
          output [7:0] w);
  wire [7:0] t;
  reg [7:0] mem [0:3];
  assign t = a + 8'd1;
  assign y = t;
  assign w = mem[i];
  always @(posedge clk) mem[i] <= t;
endmodule
"""
SHAPES_STEPS = [
    SHAPES_SRC,
    SHAPES_SRC.replace("wire [7:0] t;", "wire [8:0] t;"),
    SHAPES_SRC,
    SHAPES_SRC.replace("mem [0:3]", "mem [0:7]"),
    SHAPES_SRC,
    _in_module(SHAPES_SRC, "m", "  wire pad;\n"),
]


class TestCrossVersionDifferential:
    def test_mesh_edits(self):
        assert_every_version_matches_a_cold_engine(mesh_top_name(2),
                                                   MESH_STEPS)

    def test_widths_depths_and_moves(self):
        assert_every_version_matches_a_cold_engine("m", SHAPES_STEPS)

    # -- seeded bugs: the differential has to see each of them ---------------

    def test_sees_a_shape_without_widths(self, monkeypatch):
        elaboration = importlib.import_module("repro.hdl.elaborate")
        shape = elaboration.item_shape
        monkeypatch.setattr(elaboration, "item_shape", lambda *args: (
            shape(*args).split(" |")[0]))
        with pytest.raises(AssertionError, match="step 1"):
            assert_every_version_matches_a_cold_engine("m", SHAPES_STEPS)

    def test_sees_a_hit_whose_lines_are_not_rebased(self, monkeypatch):
        # Logs in file lines, replayed as they are: right for every hit
        # inside one version, wrong for an item an edit moved.
        fact_eval, replay = dataflow.FactEval.__init__, \
            dataflow._SiteRecorder.replay
        monkeypatch.setattr(
            dataflow.FactEval, "__init__",
            lambda self, ir, env, recorder=None, base=0:
                fact_eval(self, ir, env, recorder))
        monkeypatch.setattr(dataflow._SiteRecorder, "replay",
                            lambda self, log, base=0: replay(self, log))
        assert_every_version_matches_a_cold_engine("m", SHAPES_STEPS[:5])
        with pytest.raises(AssertionError, match="step 5.*sites"):
            assert_every_version_matches_a_cold_engine("m", SHAPES_STEPS)


class TestAncestorsReadOutputs:
    def test_a_child_internal_fact_leaves_every_ancestor_cached(self):
        """A parent reads a child's outputs only, so a nonce (a wire
        nobody reads) in rv_ex re-runs rv_ex and no ancestor; what the
        cache answers equals a cold run over the same netlist.  (A
        sanitized build: the only one whose compile runs dataflow.)"""
        top = mesh_top_name(2)
        compiler = LiveCompiler(MESH, build=BuildConfig(opt="basic",
                                                        sanitize=True))
        analyzer = Analyzer(compiler.cache)
        analyzer.analyze_netlist(compiler.compile_top(top).netlist,
                                 compiler.parser)
        metrics = obs.get_metrics()
        for nonce in (1, 2):
            compiler.update_source(_nonce(MESH, "rv_ex", nonce))
            summaries = metrics.counter("passes.dataflow.summary.cache_misses")
            result = compiler.compile_top(top)
            assert result.report.pass_computed["dataflow"] == ["rv_ex"]
            assert metrics.counter(
                "passes.dataflow.summary.cache_misses") == summaries + 1
            assert analyzer.analyze_netlist(
                result.netlist, compiler.parser).analyzed_keys == ["rv_ex"]
            fps = {ir.name: compiler.parser.fingerprint(ir.name)
                   for ir in result.netlist.modules.values()}
            assert_same_facts(
                compute_netlist_facts(result.netlist, fps, compiler.cache),
                compute_netlist_facts(result.netlist))


class TestItemCounts:
    """Item evaluations are a count the system reports (``stats`` and
    the ``repro.obs/v1`` report carry the metrics registry)."""

    @staticmethod
    def _counts():
        metrics = obs.get_metrics()
        return (metrics.counter("dataflow.items_evaluated"),
                metrics.counter("dataflow.items_reused"))

    def _delta(self, run):
        before = self._counts()
        run()
        after = self._counts()
        return after[0] - before[0], after[1] - before[1]

    def test_an_edit_evaluates_the_cone_of_what_differs(self):
        netlist = elaborate(parse(build_pgas_source(2)), mesh_top_name(2))
        fps = {ir.name: "v0" for ir in netlist.modules.values()}
        cache = DerivedCache()

        def run():
            compute_netlist_facts(netlist, fps=fps, cache=cache)

        evaluated, reused = self._delta(run)
        assert (evaluated, reused) == (265, 527)  # 792 item visits, cold
        with never_reusing_engine():  # the differential's reference
            assert self._delta(
                lambda: compute_netlist_facts(netlist)) == (792, 0)
        # A fingerprint change of one stage: its summary and its
        # specialised run walk again (its parent reads only its output
        # facts, which did not move), and every item hits.
        for module, visits in (("rv_ex", 296), ("rv_id", 204)):
            fps[module] = "edited"
            assert self._delta(run) == (0, visits)
        assert self._delta(run) == (0, 0)  # nothing dirty, nothing visited
        counters = obs.report()["metrics"]["counters"]
        assert counters["dataflow.items_reused"] >= 527
        assert counters["passes.dataflow.cache_hits"] > 0  # its neighbours

    def test_an_edit_evaluates_the_items_it_changed(self):
        source = build_pgas_source(2)
        compiler = LiveCompiler(source)
        analyzer = Analyzer(compiler.cache)

        def edit(text):
            compiler.update_source(text)
            netlist = compiler.compile_top(mesh_top_name(2)).netlist
            return self._delta(
                lambda: analyzer.analyze_netlist(netlist, compiler.parser))

        assert edit(source) == (265, 527)
        # One case arm of rv_ex's ALU block rewritten: a new ModuleIR,
        # whose two runs evaluate the block and the one item its new
        # fact reaches (84 while the memo died with each call).
        assert edit(PATCHES["ex-sltu-signed"].inject(source)) == (3, 293)
        assert edit(source) == (0, 0)  # a revert: every module cached

    def test_an_assign_that_keeps_its_fact_is_the_one_item_evaluated(self):
        compiler = LiveCompiler(PINNED_SRC)
        analyzer = Analyzer(compiler.cache)
        for text, evaluated in ((PINNED_SRC, 6), (PINNED_EDIT, 1)):
            compiler.update_source(text)
            netlist = compiler.compile_top("top").netlist
            assert self._delta(lambda: analyzer.analyze_netlist(
                netlist, compiler.parser))[0] == evaluated
        assert compiler.compile_top("top").report.recompiled_keys == []

    def test_a_converged_final_walk_evaluates_nothing(self):
        netlist = elaborate(parse(build_pgas_source(2)), mesh_top_name(2))
        analysis = dataflow._ModuleAnalysis
        comb_walk, seq_walk = analysis._comb_walk, analysis._seq_walk
        walks = []  # (module key, recording?, items evaluated)

        def counted(walk):
            def run(this, *args):
                rec = args[-1] if isinstance(
                    args[-1], dataflow._SiteRecorder) else None
                before = self._counts()[0]
                result = walk(this, *args)
                walks.append((this.ir.key, rec is not None,
                              self._counts()[0] - before))
                return result
            return run

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_comb_walk", counted(comb_walk))
            patch.setattr(analysis, "_seq_walk", counted(seq_walk))
            compute_netlist_facts(netlist)
        converged = capped = 0
        while walks:
            # One run: fixpoint rounds, then the final walk (comb +
            # seq), which is the recording one.
            key = walks[0][0]
            rounds = 0
            while not walks[rounds][1]:
                rounds += 1
            run, walks = walks[:rounds + 2], walks[rounds + 2:]
            assert all(walk[0] == key for walk in run)
            final = run[rounds][2] + run[rounds + 1][2]
            if rounds // 2 < dataflow.MAX_ROUNDS:
                converged += 1
                assert final == 0, key
            else:
                capped += 1  # rv_wb's retire counter: registers degraded
                assert final > 0, key
        assert converged and capped
