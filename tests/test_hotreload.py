"""Hot reload tests: in-flight swaps, state migration, structure
reconciliation."""

import pytest

from repro import compile_design
from repro.hdl.errors import SimulationError
from repro.live.hotreload import HotReloader
from repro.live.transform import (
    RegisterTransform,
    TransformOp,
    translate_snapshot,
)
from repro.sim import Pipe
from tests.conftest import COUNTER_SRC


def compiled(source):
    return compile_design(source, "top")


def warmed_pipe(cycles=25):
    netlist, library = compiled(COUNTER_SRC)
    pipe = Pipe(netlist.top, library)
    pipe.set_inputs(rst=1)
    pipe.step(1)
    pipe.set_inputs(rst=0)
    pipe.step(cycles)
    return pipe


class TestBasicSwap:
    def test_swap_preserves_state_and_changes_logic(self):
        pipe = warmed_pipe(25)
        assert pipe.outputs() == {"c0": 25, "c1": 75}
        _, new_lib = compiled(
            COUNTER_SRC.replace("assign sum = a + b;",
                                "assign sum = a + b + 8'd1;")
        )
        report = HotReloader().swap_pipe(pipe, new_lib)
        assert report.modules_changed == {"adder"}
        # State survived the swap...
        assert pipe.outputs() == {"c0": 25, "c1": 75}
        # ...and the new logic is live: +2 and +4 per cycle now.
        pipe.step(1)
        assert pipe.outputs() == {"c0": 27, "c1": 79}

    def test_swap_between_eval_and_tick_lands_on_a_cold_memo(self):
        """The swapped instances and every ancestor forget what they
        evaluated under the old code; a new or reused child points at
        its parent, so later mutations still invalidate root-ward."""
        pipe = warmed_pipe(25)
        reference = warmed_pipe(25)
        pipe.eval()  # every memo warm, under the old adder
        _, new_lib = compiled(
            COUNTER_SRC.replace("assign sum = a + b;",
                                "assign sum = a + b + 8'd1;")
        )
        HotReloader().swap_pipe(pipe, new_lib)
        HotReloader().swap_pipe(reference, new_lib)
        key_slot = pipe.top.code.layout.cache_key_slot
        assert pipe._last_outputs is None
        assert pipe.top.state[key_slot] is None
        for path, inst in pipe.top.walk():
            parent = pipe if path == "top" else pipe.find(
                ".".join(path.split(".")[1:-1])
            )
            assert inst.parent is parent, path
        pipe.tick()
        reference.step(1)
        assert pipe.outputs() == reference.outputs() == {"c0": 27, "c1": 79}
        pipe.find("u1.u_add").invalidate_cache()
        assert pipe._last_outputs is None

    def test_unchanged_modules_not_swapped(self):
        pipe = warmed_pipe(5)
        old_top_code = pipe.top.code
        _, new_lib = compiled(
            COUNTER_SRC.replace("assign sum = a + b;", "assign sum = a - b;")
        )
        HotReloader().swap_pipe(pipe, new_lib)
        # Cache-reused modules keep the same code object identity.
        assert pipe.top.code is old_top_code or (
            pipe.top.code is new_lib[pipe.top.code.key]
        )
        u0 = pipe.find("u0")
        assert u0.code is new_lib["counter#(W=8)"]

    def test_swap_counts_instances(self):
        pipe = warmed_pipe(5)
        _, new_lib = compiled(
            COUNTER_SRC.replace("assign sum = a + b;", "assign sum = a ^ b;")
        )
        report = HotReloader().swap_pipe(pipe, new_lib)
        # Two adder instances swapped (one per counter).
        assert report.swapped_instances == 2
        assert report.registers_migrated == 0  # adder has no registers

    def test_identity_swap_is_noop(self):
        netlist, library = compiled(COUNTER_SRC)
        pipe = Pipe(netlist.top, library)
        pipe.set_inputs(rst=0)
        pipe.step(5)
        report = HotReloader().swap_pipe(pipe, library)
        assert report.swapped_instances == 0
        assert pipe.outputs()["c0"] == 5

    def test_swap_requires_matching_top(self):
        pipe = warmed_pipe(1)
        _, other_lib = compile_design(
            "module other (input clk, output y); assign y = 1'b0; endmodule",
            "other",
        )
        with pytest.raises(SimulationError):
            HotReloader().swap_pipe(pipe, other_lib)


class TestRegisterMigration:
    WIDER = COUNTER_SRC.replace(
        "reg [W-1:0] count_q;", "reg [W-1:0] count_q;\n  reg [W-1:0] shadow_q;"
    ).replace(
        "    else\n      count_q <= next;",
        "    else begin\n      count_q <= next;\n      shadow_q <= count_q;\n    end",
    )

    def test_created_register_initializes_to_zero(self):
        pipe = warmed_pipe(10)
        _, new_lib = compiled(self.WIDER)
        HotReloader().swap_pipe(pipe, new_lib)
        u0 = pipe.find("u0")
        assert u0.peek_reg("count_q") == 10  # migrated
        assert u0.peek_reg("shadow_q") == 0  # created -> 0

    def test_deleted_register_data_dropped(self):
        netlist, library = compiled(self.WIDER)
        pipe = Pipe(netlist.top, library)
        pipe.set_inputs(rst=1)
        pipe.step(1)
        pipe.set_inputs(rst=0)
        pipe.step(10)
        _, back_lib = compiled(COUNTER_SRC)
        HotReloader().swap_pipe(pipe, back_lib)
        u0 = pipe.find("u0")
        assert u0.peek_reg("count_q") == 10
        with pytest.raises(SimulationError):
            u0.peek_reg("shadow_q")

    def test_renamed_register_keeps_value(self):
        # A pure rename emits byte-identical generated code (state is
        # slot-addressed), so the reloader keeps the state arrays and
        # just rebinds the code object — zero copies, value preserved
        # under the new name.
        renamed = COUNTER_SRC.replace("count_q", "counter_q")
        pipe = warmed_pipe(12)
        _, new_lib = compiled(renamed)
        report = HotReloader().swap_pipe(pipe, new_lib)
        assert report.swapped_instances == 0
        assert pipe.find("u0").peek_reg("counter_q") == 12
        with pytest.raises(SimulationError):
            pipe.find("u0").peek_reg("count_q")

    def test_renamed_register_with_logic_change_migrates_via_guess(self):
        # Rename + a real logic change: the code differs, so the swap
        # path runs and the best-guess transform maps the value.
        renamed = COUNTER_SRC.replace("count_q", "counter_q").replace(
            "if (rst)", "if (rst || 1'b0)"
        )
        pipe = warmed_pipe(12)
        _, new_lib = compiled(renamed)
        report = HotReloader().swap_pipe(pipe, new_lib)
        assert report.registers_migrated == 2
        assert pipe.find("u0").peek_reg("counter_q") == 12

    def test_explicit_transform_overrides_guess(self):
        renamed = COUNTER_SRC.replace("count_q", "zzz_q")
        pipe = warmed_pipe(9)
        _, new_lib = compiled(renamed)
        transform = RegisterTransform(
            [TransformOp("rename", "count_q", new_name="zzz_q")]
        )
        HotReloader({"counter": transform}).swap_pipe(pipe, new_lib)
        assert pipe.find("u0").peek_reg("zzz_q") == 9

    def test_width_shrink_masks_value(self):
        narrow = COUNTER_SRC.replace(
            "counter #(.W(8)) u0", "counter #(.W(4)) u0"
        ).replace("output [7:0] c0", "output [3:0] c0")
        pipe = warmed_pipe(200)  # count_q = 200 = 0xC8
        _, new_lib = compiled(narrow)
        HotReloader().swap_pipe(pipe, new_lib)
        # Parameter changed => different spec key => fresh instance (a
        # W=4 counter is new hardware, not a migration target).
        assert pipe.find("u0").peek_reg("count_q") == 0


class TestStructuralChanges:
    THREE = COUNTER_SRC.replace(
        """  counter #(.W(8)) u0 (.clk(clk), .rst(rst), .step(8'd1), .count(c0));
  counter #(.W(8)) u1 (.clk(clk), .rst(rst), .step(8'd3), .count(c1));""",
        """  counter #(.W(8)) u0 (.clk(clk), .rst(rst), .step(8'd1), .count(c0));
  counter #(.W(8)) u1 (.clk(clk), .rst(rst), .step(8'd3), .count(c1));
  wire [7:0] unused;
  counter #(.W(8)) u2 (.clk(clk), .rst(rst), .step(8'd7), .count(unused));
  wire [7:0] c1x;
  assign c1x = c1 + unused;""",
    )

    def test_added_instance_built_fresh(self):
        pipe = warmed_pipe(6)
        _, new_lib = compiled(self.THREE)
        report = HotReloader().swap_pipe(pipe, new_lib)
        assert report.rebuilt_instances >= 1
        u2 = pipe.find("u2")
        assert u2.peek_reg("count_q") == 0  # brand new hardware
        assert pipe.find("u0").peek_reg("count_q") == 6  # survivors keep state

    def test_removed_instance_dropped(self):
        netlist, library = compiled(self.THREE)
        pipe = Pipe(netlist.top, library)
        pipe.set_inputs(rst=1)
        pipe.step(1)
        pipe.set_inputs(rst=0)
        pipe.step(4)
        _, back = compiled(COUNTER_SRC)
        HotReloader().swap_pipe(pipe, back)
        assert len(pipe.top.children) == 2
        with pytest.raises(SimulationError):
            pipe.find("u2")


class TestSwapStage:
    def test_swap_single_stage(self):
        pipe = warmed_pipe(8)
        _, new_lib = compiled(
            COUNTER_SRC.replace("assign sum = a + b;",
                                "assign sum = a + b + 8'd1;")
        )
        report = HotReloader().swap_stage(pipe, "u0.u_add", new_lib)
        assert report.swapped_instances == 1
        pipe.step(1)
        # u0's adder is patched (+2/cycle); u1 still runs old code.
        assert pipe.outputs() == {"c0": 10, "c1": 27}

    def test_interface_change_rejected_for_stage_swap(self):
        pipe = warmed_pipe(1)
        widened = COUNTER_SRC.replace(
            "module adder #(parameter W = 8) (\n  input clk,",
            "module adder #(parameter W = 8) (\n  input clk,\n  input en,",
        ).replace(
            "adder #(.W(W)) u_add (.clk(clk),",
            "adder #(.W(W)) u_add (.clk(clk), .en(1'b1),",
        )
        _, new_lib = compiled(widened)
        with pytest.raises(SimulationError, match="interface changed"):
            HotReloader().swap_stage(pipe, "u0.u_add", new_lib)


    def test_per_output_dependency_change_rejected_for_stage_swap(self):
        """Same ports, same union of comb-relevant inputs, but which
        output depends on which input moved: the parent's compiled code
        (its eval_out / cycle partition) no longer fits."""
        from tests.test_live_compiler import DEP_SWAP_EDIT, DEP_SWAP_SRC

        netlist, library = compiled(DEP_SWAP_SRC)
        pipe = Pipe(netlist.top, library)
        _, new_lib = compiled(DEP_SWAP_EDIT)
        assert (new_lib["child"].ir.interface_fingerprint()
                == library["child"].ir.interface_fingerprint())
        with pytest.raises(SimulationError, match="interface changed"):
            HotReloader().swap_stage(pipe, "m.c", new_lib)


# -- one state-migration path: swap == snapshot -> translate -> load ----------

LANES_SRC = """
module lane (input clk, input rst, input [7:0] step, output [7:0] y);
  reg [7:0] a_q;
  reg [7:0] keep_q;
  reg [7:0] spare_q;
  reg [7:0] m [0:7];
  assign y = a_q ^ m[keep_q[2:0]];
  always @(posedge clk) begin
    if (rst) begin
      a_q <= 8'd0;
      keep_q <= 8'd0;
    end else begin
      a_q <= a_q + step;
      keep_q <= keep_q + 8'd1;
      spare_q <= a_q;
      m[keep_q[2:0]] <= a_q;
    end
  end
endmodule

module top (input clk, input rst, output [7:0] y0, output [7:0] y1,
            output [7:0] t);
  reg [7:0] t_q;
  assign t = t_q;
  lane u0 (.clk(clk), .rst(rst), .step(8'd37), .y(y0));
  lane u1 (.clk(clk), .rst(rst), .step(8'd91), .y(y1));
  always @(posedge clk) t_q <= t_q + 8'd1;
endmodule
"""

# Pre-poisoned in u0 under sanitize: these registers, these words of m.
POISONED_REGS = ("a_q", "spare_q")
POISONED_WORDS = 0b10100110
# A pure rename compiles to byte-identical code (state is slot-addressed)
# and keeps the state arrays; pairing it with a logic change forces the
# swap path the test is about.
TWEAK = ("keep_q <= keep_q + 8'd1;", "keep_q <= keep_q + 8'd2;")


def _edited(*pairs):
    source = LANES_SRC
    for old, new in pairs:
        assert old in source
        source = source.replace(old, new)
    return source


# id -> (edited source, module whose state crosses, its transform,
#        u0's expected poisoned registers and memory words under sanitize)
MIGRATIONS = {
    "reg_rename": (
        _edited(("a_q", "b_q"), TWEAK), "lane",
        [TransformOp("rename", "a_q", new_name="b_q")],
        {"b_q", "spare_q"}, {"m": POISONED_WORDS},
    ),
    "reg_create": (
        _edited(("reg [7:0] spare_q;", "reg [7:0] spare_q;\n  reg [7:0] new_q;"),
                ("spare_q <= a_q;", "spare_q <= a_q;\n      new_q <= spare_q;")),
        "lane", [TransformOp("create", "new_q", init_value=5)],
        {"a_q", "spare_q", "new_q"}, {"m": POISONED_WORDS},
    ),
    "reg_delete": (
        _edited(("  reg [7:0] spare_q;\n", ""), ("      spare_q <= a_q;\n", "")),
        "lane", [TransformOp("delete", "spare_q")],
        {"a_q"}, {"m": POISONED_WORDS},
    ),
    "reg_width_shrink": (
        _edited(("reg [7:0] a_q;", "reg [3:0] a_q;")), "lane", [],
        {"a_q", "spare_q"}, {"m": POISONED_WORDS},
    ),
    "mem_rename": (
        _edited(("m [0:7]", "n [0:7]"), ("m[keep_q", "n[keep_q"), TWEAK),
        "lane", [TransformOp("rename", "m", new_name="n")],
        {"a_q", "spare_q"}, {"n": POISONED_WORDS},
    ),
    "mem_depth_grow": (
        _edited(("m [0:7]", "m [0:15]"), ("keep_q[2:0]", "keep_q[3:0]")),
        "lane", [],
        {"a_q", "spare_q"}, {"m": 0xFF00 | POISONED_WORDS},
    ),
    "mem_depth_shrink": (
        _edited(("m [0:7]", "m [0:3]"), ("keep_q[2:0]", "keep_q[1:0]")),
        "lane", [],
        {"a_q", "spare_q"}, {"m": 0xF & POISONED_WORDS},
    ),
    "mem_width_shrink": (
        _edited(("reg [7:0] m ", "reg [3:0] m ")), "lane", [],
        {"a_q", "spare_q"}, {"m": POISONED_WORDS},
    ),
    "parent_only": (
        _edited(("t_q <= t_q + 8'd1;", "t_q <= t_q + 8'd2;")), "top", [],
        {"a_q", "spare_q"}, {"m": POISONED_WORDS},
    ),
}


def _lanes_library(source, sanitize):
    from repro.codegen.build import BuildConfig
    from repro.hdl.elaborate import elaborate
    from repro.hdl.parser import parse
    from repro.passes import compile_netlist
    from repro.sanitize import SanitizerRuntime

    return compile_netlist(
        elaborate(parse(source), "top"),
        BuildConfig(sanitize=sanitize, san_elide=False),
        sanitize_runtime=(
            SanitizerRuntime(mode="report") if sanitize else None
        ),
    )


def _shadow(snap):
    return (
        set(snap.reg_poison), snap.mem_poison,
        [_shadow(child) for child in snap.children],
    )


@pytest.mark.parametrize("sanitize", [False, True], ids=["clean", "sanitize"])
@pytest.mark.parametrize("case", sorted(MIGRATIONS))
def test_swap_is_snapshot_translate_load(case, sanitize):
    """Hot-swapping a running pipe and loading its pre-swap snapshot,
    translated by the same transform, into a fresh pipe of the new
    library are the same state crossing: same values, same poison."""
    source, module, ops, reg_poison, mem_poison = MIGRATIONS[case]
    transforms = {module: RegisterTransform(ops)}
    live = Pipe("top", _lanes_library(LANES_SRC, sanitize))
    live.set_inputs(rst=1)
    live.step(1)
    live.set_inputs(rst=0)
    live.step(13)
    if sanitize:
        u0 = live.find("u0")
        for name in POISONED_REGS:
            u0.state[u0.code.layout.reg_poison_slot] |= (
                1 << u0.code.reg_slots[name]
            )
        u0.state[u0.code.mem_specs["m"].poison_slot] = POISONED_WORDS
    before = live.snapshot()
    assert before.state.child("u0").regs["a_q"] == (13 * 37) & 0xFF

    new_library = _lanes_library(source, sanitize)
    report = HotReloader(transforms).swap_pipe(live, new_library)
    assert module in report.modules_changed

    loaded = Pipe("top", new_library)
    before.state = translate_snapshot(before.state, transforms)
    loaded.restore_transformed(before)

    if sanitize:
        u0 = loaded.top.snapshot().child("u0")
        assert (set(u0.reg_poison), u0.mem_poison) == (reg_poison, mem_poison)
    for _ in range(2):  # right after the crossing, and a few cycles on
        swapped, reference = live.top.snapshot(), loaded.top.snapshot()
        assert swapped.equal_state(reference)
        assert _shadow(swapped) == _shadow(reference)
        live.step(3)
        loaded.step(3)
