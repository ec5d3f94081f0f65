"""repro.passes: the pipeline's order, optimization passes, live toggle.

Covers the one pass order and that it is the order the carrier's fields
need, the optimization passes' observable effects on generated code,
per-pass cache incrementality across a hot reload, opt-level key
separation in the artifact store, and the runtime ``opt`` toggle.
"""

import dataclasses
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest

from repro import BuildConfig, Pipe, compile_design
from repro.codegen.build import OPT_LEVELS, ModuleKey
from repro.hdl import elaborate, parse
from repro.hdl.errors import SimulationError
from repro.live.commands import CommandInterpreter
from repro.live.compiler_live import LiveCompiler
from repro.live.hotreload import HotReloader
from repro.live.session import LiveSession
from repro.passes import (
    PassData,
    build_compile_pipeline,
    compile_netlist,
    dataflow,
)
from repro.riscv.pgas import build_pgas_source, mesh_top_name
from repro.sanitize import SanitizerRuntime
from repro.sim.testbench import hold_inputs
from tests.conftest import COUNTER_SRC

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "designs"

# Each result field of the carrier and the pass that first writes it.
FIRST_WRITER = {
    "pure": "elab_facts",
    "value_facts": "dataflow",
    "plans": "constprop",
    "san_free": "sanitize_plan",
    "library": "codegen",
}
INPUT_FIELDS = {"netlist", "fps", "build", "sanitize_runtime", "cache",
                "store", "report"}


def _netlist(source=COUNTER_SRC, top="top"):
    return elaborate(parse(source), top)


@lru_cache(maxsize=None)
def _order_designs():
    """The 2x2 mesh and every top of ``examples/designs/*.v``."""
    designs = [elaborate(parse(build_pgas_source(2)), mesh_top_name(2))]
    for path in sorted(EXAMPLES.glob("*.v")):
        design = parse(path.read_text())
        designs.extend(elaborate(design, top) for top in design.modules)
    return designs


class ReadTooEarly(Exception):
    pass


class _Unwritten:
    """Stands in for a field no earlier pass has written: any use raises."""

    def __init__(self, field):
        self.field = field

    def _fail(self, *args):
        raise ReadTooEarly(self.field)

    __getattr__ = __getitem__ = __contains__ = __iter__ = _fail
    __len__ = __bool__ = __eq__ = __hash__ = _fail


def run_with_unwritten_fields(passes, netlist, build):
    """Run ``passes`` in order; before each, every field first written by
    it or by a later pass is an :class:`_Unwritten`, and after it, the
    fields it first writes must hold a value."""
    position = {p.name: index for index, p in enumerate(passes)}
    runtime = SanitizerRuntime(mode="report") if build.sanitize else None
    data = PassData(netlist=netlist, build=build, sanitize_runtime=runtime)
    for index, p in enumerate(passes):
        for field, writer in FIRST_WRITER.items():
            if position[writer] >= index:
                setattr(data, field, _Unwritten(field))
        p.run(data)
        for field, writer in FIRST_WRITER.items():
            if writer == p.name:
                assert not isinstance(getattr(data, field), _Unwritten), (
                    f"{p.name} did not write {field}"
                )
    return data


BUILDS = [
    BuildConfig(opt=opt, sanitize=sanitize)
    for opt in OPT_LEVELS
    for sanitize in (False, True)
]


class TestPassManager:
    """The pipeline is one written sequence, and it is an order in which
    no pass reads a field before the pass that writes it has run."""

    def test_compile_pipeline_is_the_written_order(self):
        pipeline = build_compile_pipeline()
        assert pipeline.order == [
            "elab_facts", "dataflow", "constprop", "sanitize_plan",
            "deadlogic", "sensitivity", "codegen",
        ]
        # Tracing wraps each instance's ``run`` and pops it off again.
        for p in pipeline.passes:
            assert "run" not in vars(p) and "run" in vars(type(p))

    def test_every_result_field_has_one_first_writer(self):
        fields = {f.name for f in dataclasses.fields(PassData)}
        assert fields - INPUT_FIELDS == set(FIRST_WRITER)
        assert set(FIRST_WRITER.values()) <= set(build_compile_pipeline().order)

    @pytest.mark.parametrize(
        "build", BUILDS,
        ids=[f"{b.opt}-{'san' if b.sanitize else 'clean'}" for b in BUILDS],
    )
    def test_no_pass_reads_a_field_a_later_pass_writes(self, build):
        passes = build_compile_pipeline().passes
        for netlist in _order_designs():
            data = run_with_unwritten_fields(passes, netlist, build)
            assert set(data.library) == set(netlist.modules)

    def test_a_pass_moved_before_its_input_is_caught(self):
        passes = list(build_compile_pipeline().passes)
        names = [p.name for p in passes]
        sensitivity = passes.pop(names.index("sensitivity"))
        passes.insert(names.index("sanitize_plan"), sensitivity)
        with pytest.raises(ReadTooEarly, match="san_free"):
            run_with_unwritten_fields(
                passes, _order_designs()[0],
                BuildConfig(opt="full", sanitize=True),
            )

    def test_run_opt_pipeline_rejects_unknown_level(self):
        with pytest.raises(ValueError, match="unknown opt level"):
            compile_netlist(_netlist(), BuildConfig(opt="extreme"))


CONST_SRC = """
module m (
  input clk,
  input [7:0] a,
  output [7:0] y
);
  wire [7:0] k;
  wire [7:0] unused;
  assign k = 8'd5;
  assign unused = a ^ 8'd77;
  assign y = a + k;
endmodule
"""

GUARD_SRC = """
module m (
  input clk,
  input [7:0] a,
  input [7:0] b,
  output [7:0] y,
  output [7:0] q_out
);
  reg [7:0] t1;
  reg [7:0] t2;
  reg [7:0] q;
  always @(*) begin
    t1 = a + b;
    t2 = t1 ^ 8'h0F;
  end
  assign y = t2;
  assign q_out = q;
  always @(posedge clk) begin
    q <= t2;
  end
endmodule
"""


class TestOptimizationPasses:
    def test_constprop_and_dead_logic_shrink_generated_code(self):
        _, plain = compile_design(CONST_SRC, "m")
        _, opt = compile_design(CONST_SRC, "m", opt="full")
        (plain_mod,) = plain.values()
        (opt_mod,) = opt.values()
        # The constant wire folds into its use and the constant assign
        # disappears from the source.  The unused assign is read by
        # nothing, which no build writes.
        assert "v_k" in plain_mod.source and "v_k" not in opt_mod.source
        assert "v_unused" not in opt_mod.source
        assert "v_unused" not in plain_mod.source
        assert len(opt_mod.source) < len(plain_mod.source)
        assert opt_mod.build.opt == "full"

    def test_full_opt_bit_exact_on_const_design(self):
        plain_netlist, plain_lib = compile_design(CONST_SRC, "m")
        opt_netlist, opt_lib = compile_design(CONST_SRC, "m", opt="full")
        plain = Pipe(plain_netlist.top, plain_lib)
        opt = Pipe(opt_netlist.top, opt_lib)
        for a in (0, 1, 5, 0x80, 0xFF):
            plain.set_inputs(a=a)
            opt.set_inputs(a=a)
            assert plain.eval() == opt.eval()

    def test_opt_levels_share_one_state_layout(self):
        """Every comb unit is emitted in one of ``eval_out`` and
        ``cycle``, so there is nothing for an input-change guard to
        skip: opt=full adds no state slots."""
        _, plain = compile_design(GUARD_SRC, "m")
        _, full = compile_design(GUARD_SRC, "m", opt="full")
        (plain_mod,), (full_mod,) = plain.values(), full.values()
        assert full_mod.build.opt == "full"
        assert full_mod.layout == plain_mod.layout
        assert len(full_mod.make_state()) == full_mod.layout.state_size
        # t2 feeds both the output and the register: evaluated in
        # eval_out, handed to cycle in the tuple slot, not recomputed.
        eval_out, cycle = full_mod.source.split("def cycle")
        assert "v_t2 = " in eval_out
        assert "v_t2 = " not in cycle and "v_t2" in cycle

    def test_guarded_module_bit_exact_including_held_inputs(self):
        plain_netlist, plain_lib = compile_design(GUARD_SRC, "m")
        opt_netlist, opt_lib = compile_design(GUARD_SRC, "m", opt="full")
        plain = Pipe(plain_netlist.top, plain_lib)
        opt = Pipe(opt_netlist.top, opt_lib)
        stim = [(3, 4), (3, 4), (3, 4), (250, 9), (0, 0), (0, 0), (7, 7)]
        for a, b in stim:
            plain.set_inputs(a=a, b=b)
            opt.set_inputs(a=a, b=b)
            assert plain.eval() == opt.eval()
            plain.tick()
            opt.tick()
            assert plain.eval() == opt.eval()


class TestStoreKeySeparation:
    def test_store_roundtrip_preserves_opt_fields(self, tmp_path):
        from repro.server.store import ArtifactStore

        _, lib = compile_design(GUARD_SRC, "m", opt="full")
        (mod,) = lib.values()
        store = ArtifactStore(str(tmp_path))
        cache_key = ModuleKey(mod.key, "fp", build=mod.build)
        assert store.save(cache_key, mod)
        loaded = store.load(cache_key)
        assert loaded is not None
        assert loaded.build == BuildConfig(opt="full")
        assert loaded.layout == mod.layout
        # The opt=none address must still be a miss: levels coexist.
        assert store.load(ModuleKey(mod.key, "fp")) is None


ADDER_EDIT = COUNTER_SRC.replace(
    "assign sum = a + b;", "assign sum = a + b + 8'd1;"
)


class TestPassCacheIncrementality:
    def _session(self, opt="full"):
        session = LiveSession(COUNTER_SRC, checkpoint_interval=10, opt=opt)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        tb = session.load_testbench(hold_inputs(rst=0))
        return session, tb

    def test_hot_reload_reruns_passes_only_for_dirty_module(self):
        session, tb = self._session()
        session.run(tb, "p0", 12)
        report = session.apply_change(ADDER_EDIT)
        assert report.behavioral
        assert report.opt == "full"
        for name in ("constprop", "deadlogic"):
            computed = report.pass_computed_keys.get(name, [])
            reused = report.pass_reused_keys.get(name, [])
            # Only the edited adder specialization recomputed; the
            # untouched counter/top rode their per-pass caches.
            assert computed and all("adder" in key for key in computed), (
                name, computed,
            )
            assert any("counter" in key for key in reused), (name, reused)
            assert any("top" in key for key in reused), (name, reused)

    def test_first_compile_computes_every_key(self):
        session, _ = self._session()
        report = session.timeline("p0").compile_result.report
        for name in ("constprop", "deadlogic"):
            assert not report.pass_reused.get(name)
            assert len(report.pass_computed.get(name, [])) == 3

    def test_erd_report_serializes_pass_keys(self):
        from repro.server.service import summarize

        session, tb = self._session()
        session.run(tb, "p0", 5)
        report = session.apply_change(ADDER_EDIT)
        data = summarize(report)
        assert data["opt"] == "full"
        assert set(data["pass_computed_keys"]) >= {"constprop"}
        assert isinstance(data["pass_reused_keys"], dict)


    # The child's ``sel``/``use_t`` would be dead exactly while the
    # parent feeds ``mode`` the constant 0.  Constprop folds only what
    # the child's own text says, so no pass result follows the constant:
    # a parent-only edit leaves the child's code as it was, and the
    # reloaded pipe must still equal a fresh compile of the edited text.
    MODE_SRC = """
module child (input clk, input [3:0] mode, input [7:0] a, output [7:0] y);
  wire sel;
  wire [7:0] use_t;
  reg [7:0] q;
  assign sel = mode != 4'd0;
  assign use_t = a + 8'd4;
  always @(posedge clk) q <= sel ? use_t : a;
  assign y = q;
endmodule
module top (input clk, input [7:0] a, output [7:0] y);
  child u (.clk(clk), .mode(4'd0), .a(a), .y(y));
endmodule
"""

    @pytest.mark.parametrize("opt", OPT_LEVELS)
    @pytest.mark.parametrize("before,after", [
        ("4'd0", "a[3:0]"), ("a[3:0]", "4'd0"), ("4'd0", "4'd2"),
    ])
    def test_parent_only_edit_recompiles_only_the_parent(
        self, opt, before, after
    ):
        source = self.MODE_SRC.replace(".mode(4'd0)", f".mode({before})")
        edited = self.MODE_SRC.replace(".mode(4'd0)", f".mode({after})")
        session = LiveSession(source, checkpoint_interval=2, opt=opt)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        tb = session.load_testbench(hold_inputs(a=1))
        session.run(tb, "p0", 3)
        report = session.apply_change(edited)
        assert session.version == report.version != "1.0"
        session.run(tb, "p0", 3)

        netlist, library = compile_design(edited, "top", opt=opt)
        fresh = Pipe(netlist.top, library)
        fresh.step(6, driver=lambda pipe: pipe.set_inputs(a=1))
        assert session.pipe("p0").outputs() == fresh.eval()
        # opt=none runs no optimization pass; full recomputes dead
        # logic for the edited parent only.
        dead = ["top"] if opt == "full" else None
        assert report.pass_computed_keys.get("deadlogic") == dead
        assert report.recompiled_keys == ["top"]


class TestDataflowCacheMatrix:
    """A hot reload of one module must not recompute ``value_facts``
    for clean modules.  The pass runs in a sanitized build only (at
    every opt level): a clean compile reads no fact, and its rows check
    that nothing runs, while the analyzer still walks each edit once."""

    MATRIX = [
        (opt, sanitize)
        for opt in OPT_LEVELS
        for sanitize in ("off", "report")
    ]

    def _session(self, opt, sanitize):
        session = LiveSession(
            COUNTER_SRC, checkpoint_interval=10, opt=opt, sanitize=sanitize
        )
        session.inst_pipe("p0", session.stage_handle_for("top"))
        tb = session.load_testbench(hold_inputs(rst=0))
        return session, tb

    @pytest.mark.parametrize("opt,sanitize", MATRIX)
    def test_hot_reload_keeps_clean_module_facts(self, opt, sanitize):
        session, tb = self._session(opt, sanitize)
        session.run(tb, "p0", 8)
        report = session.apply_change(ADDER_EDIT)
        computed = report.pass_computed_keys.get("dataflow", [])
        reused = report.pass_reused_keys.get("dataflow", [])
        if sanitize == "off":
            # Gated off: nothing downstream consumes the facts.
            assert computed == [] and reused == []
        else:
            # Only the edited adder recomputes; its boundary facts are
            # unchanged, so counter/top ride the facts cache.
            assert computed and all("adder" in key for key in computed), (
                computed,
            )
            assert any("counter" in key for key in reused), reused
            assert any("top" in key for key in reused), reused
        # And the swap itself stayed live: same cycle, still running.
        assert session.pipe("p0").cycle == 8
        session.run(tb, "p0", 2)
        assert session.pipe("p0").cycle == 10

    @pytest.mark.parametrize("opt,sanitize", MATRIX)
    def test_facts_of_an_edit_are_computed_once(
        self, opt, sanitize, monkeypatch
    ):
        # The pass and the analyzer's gate read the same cache, so
        # whichever runs second (the analyzer; first and only in a clean
        # build) walks nothing -- and neither does lint().
        session, tb = self._session(opt, sanitize)
        session.run(tb, "p0", 8)
        walks = []
        original = dataflow._ModuleAnalysis.run

        def counted(self, key):
            walks.append(key)
            return original(self, key)

        monkeypatch.setattr(dataflow._ModuleAnalysis, "run", counted)
        report = session.apply_change(ADDER_EDIT)
        if sanitize != "off":
            assert report.pass_computed_keys["dataflow"] == ["adder#(W=8)"]
        # One context-free summary walk plus one walk specialised on the
        # constant ``step`` its only instantiation site feeds it.
        assert walks == ["adder#(W=8)"] * 2
        assert session.lint().analyzed_keys == []
        assert len(walks) == 2

    @pytest.mark.parametrize("sanitize", ["off", "report"])
    def test_facts_ride_cache_when_only_opt_level_toggles(self, sanitize):
        session, tb = self._session("none", sanitize)
        session.run(tb, "p0", 4)
        result = session.set_opt("full")
        assert result["level"] == "full"
        report = session.timeline("p0").compile_result.report
        # The toggle recompiles codegen but the netlist is untouched:
        # every dataflow key must come from the cache (a clean build
        # runs no dataflow at all).
        assert not report.pass_computed.get("dataflow")
        assert len(report.pass_reused.get("dataflow", [])) == (
            0 if sanitize == "off" else 3)


class TestLiveOptToggle:
    def _session(self, opt="none"):
        session = LiveSession(COUNTER_SRC, checkpoint_interval=10, opt=opt)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        tb = session.load_testbench(hold_inputs(rst=0))
        return session, tb

    def test_rejects_unknown_level(self):
        with pytest.raises(SimulationError, match="opt"):
            LiveSession(COUNTER_SRC, opt="turbo")

    def test_toggle_recompiles_and_preserves_state(self):
        session, tb = self._session()
        session.run(tb, "p0", 9)
        before = session.pipe("p0").outputs()
        result = session.set_opt("full")
        assert result["level"] == "full"
        assert result["previous"] == "none"
        assert result["recompiled_keys"]
        assert session.opt == "full"
        assert session.pipe("p0").outputs() == before
        session.run(tb, "p0", 3)
        assert session.pipe("p0").outputs()["c0"] == 12

    def test_toggle_back_to_none(self):
        session, tb = self._session(opt="full")
        session.run(tb, "p0", 4)
        result = session.set_opt("none")
        assert result["level"] == "none"
        session.run(tb, "p0", 4)
        assert session.pipe("p0").outputs()["c0"] == 8

    def test_noop_toggle_recompiles_nothing(self):
        session, _ = self._session(opt="full")
        result = session.set_opt("full")
        assert result["recompiled_keys"] == []

    def test_set_build_crosses_both_axes_in_one_compile_and_swap(
        self, monkeypatch
    ):
        session, tb = self._session()
        session.inst_pipe("p1", session.stage_handle_for("top"))
        session.watch("p0", "c0")
        session.run(tb, "p0", 9)
        session.run(tb, "p1", 4)
        calls = []
        for cls, attr in ((LiveCompiler, "compile_top"),
                          (HotReloader, "swap_pipe")):
            original = getattr(cls, attr)

            def counted(self, *args, _original=original, _attr=attr):
                calls.append(_attr)
                return _original(self, *args)

            monkeypatch.setattr(cls, attr, counted)
        clean = session.compiler.build
        before = {name: session.peek(name) for name in ("p0", "p1")}

        result = session.set_build(replace(clean, sanitize=True, opt="full"))
        assert calls == ["compile_top"] * 2 + ["swap_pipe"] * 2
        assert result["swapped_pipes"] == ["p0", "p1"]
        assert set(result["recompiled_keys"]) == set(
            session.pipe("p0").library
        )
        assert session.opt == "full"
        assert session.sanitize_status()["instrumented"] is True
        assert {n: session.peek(n) for n in before} == before

        back = session.set_build(clean)
        assert back["recompiled_keys"] == []
        assert back["swapped_pipes"] == ["p0", "p1"]
        assert session.set_build(clean)["swapped_pipes"] == []
        assert {n: session.peek(n) for n in before} == before
        # The probe survived both swaps and keeps sampling.
        session.run(tb, "p0", 3)
        status = session.trace_status("p0")
        assert [p["missing"] for p in status["probes"]] == [False]
        samples = session.trace_read("p0", "c0")["samples"]
        assert [cycle for cycle, _ in samples] == list(range(12))
        assert [value for _, value in samples] == list(range(12))

    def test_opt_command_verb(self):
        session, tb = self._session()
        interp = CommandInterpreter(session)
        status = interp.execute("opt").value
        assert status["level"] == "none"
        assert "codegen" in status["passes"]
        switched = interp.execute("opt full").value
        assert switched["level"] == "full"
        assert interp.execute("opt").value["level"] == "full"

    def test_opt_status_lists_levels(self):
        session, _ = self._session()
        status = session.opt_status()
        assert tuple(status["levels"]) == ("none", "full")
