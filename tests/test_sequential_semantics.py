"""Sequential and procedural semantics through compiled designs:
nonblocking updates, resets, memories, comb always blocks, partial
assignments, two-phase evaluation ordering."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import compile_design
from repro.sim import Pipe


def build(source: str, top: str = "m") -> Pipe:
    netlist, library = compile_design(source, top)
    return Pipe(netlist.top, library)


_COUNTER_CACHE = {}


def _counter_design():
    """Module-level cached counter design (usable inside @given)."""
    if "design" not in _COUNTER_CACHE:
        from tests.conftest import COUNTER_SRC

        _COUNTER_CACHE["design"] = compile_design(COUNTER_SRC, "top")
    return _COUNTER_CACHE["design"]


class TestNonBlocking:
    def test_swap_idiom(self):
        """The classic nonblocking test: a,b swap every cycle."""
        pipe = build("""
module m (input clk, input rst, output [7:0] ya, output [7:0] yb);
  reg [7:0] a;
  reg [7:0] b;
  assign ya = a;
  assign yb = b;
  always @(posedge clk) begin
    if (rst) begin
      a <= 8'd1;
      b <= 8'd2;
    end else begin
      a <= b;
      b <= a;
    end
  end
endmodule
""")
        pipe.set_inputs(rst=1)
        pipe.step(1)
        pipe.set_inputs(rst=0)
        assert pipe.outputs() == {"ya": 1, "yb": 2}
        pipe.step(1)
        assert pipe.outputs() == {"ya": 2, "yb": 1}
        pipe.step(1)
        assert pipe.outputs() == {"ya": 1, "yb": 2}

    def test_last_nonblocking_write_wins(self):
        pipe = build("""
module m (input clk, output [7:0] y);
  reg [7:0] q;
  assign y = q;
  always @(posedge clk) begin
    q <= 8'd1;
    q <= 8'd2;
  end
endmodule
""")
        pipe.step(1)
        assert pipe.outputs()["y"] == 2

    def test_unassigned_register_holds_value(self):
        pipe = build("""
module m (input clk, input en, output [7:0] y);
  reg [7:0] q;
  assign y = q;
  always @(posedge clk) begin
    if (en)
      q <= q + 1;
  end
endmodule
""")
        pipe.set_inputs(en=1)
        pipe.step(3)
        assert pipe.outputs()["y"] == 3
        pipe.set_inputs(en=0)
        pipe.step(5)
        assert pipe.outputs()["y"] == 3

    def test_registered_output_lags_comb(self):
        pipe = build("""
module m (input clk, input [7:0] d, output [7:0] q);
  reg [7:0] q;
  always @(posedge clk) q <= d;
endmodule
""")
        pipe.set_inputs(d=55)
        assert pipe.eval()["q"] == 0  # not yet latched
        pipe.tick()
        assert pipe.outputs()["q"] == 55


class TestPartialAssignments:
    def test_bit_assign_accumulates(self):
        pipe = build("""
module m (input clk, input [2:0] i, output [7:0] y);
  reg [7:0] q;
  assign y = q;
  always @(posedge clk) q[i] <= 1'b1;
endmodule
""")
        for i in (0, 3, 7):
            pipe.set_inputs(i=i)
            pipe.step(1)
        assert pipe.outputs()["y"] == 0b10001001

    def test_part_select_assign(self):
        pipe = build("""
module m (input clk, input [3:0] lo, output [7:0] y);
  reg [7:0] q;
  assign y = q;
  always @(posedge clk) begin
    q[7:4] <= 4'hA;
    q[3:0] <= lo;
  end
endmodule
""")
        pipe.set_inputs(lo=0x5)
        pipe.step(1)
        assert pipe.outputs()["y"] == 0xA5

    def test_bit_clear_preserves_others(self):
        pipe = build("""
module m (input clk, input set_all, input [2:0] i, output [7:0] y);
  reg [7:0] q;
  assign y = q;
  always @(posedge clk) begin
    if (set_all)
      q <= 8'hFF;
    else
      q[i] <= 1'b0;
  end
endmodule
""")
        pipe.set_inputs(set_all=1)
        pipe.step(1)
        pipe.set_inputs(set_all=0, i=4)
        pipe.step(1)
        assert pipe.outputs()["y"] == 0xEF


class TestCombAlwaysBlocks:
    def test_case_decode(self):
        pipe = build("""
module m (input [1:0] sel, output [7:0] y);
  reg [7:0] out;
  assign y = out;
  always @(*) begin
    case (sel)
      2'd0: out = 8'd10;
      2'd1: out = 8'd20;
      2'd2: out = 8'd30;
      default: out = 8'd99;
    endcase
  end
endmodule
""")
        for sel, expect in ((0, 10), (1, 20), (2, 30), (3, 99)):
            pipe.set_inputs(sel=sel)
            assert pipe.eval()["y"] == expect

    def test_unassigned_path_yields_zero(self):
        # No latches: comb targets default to 0 each evaluation.
        pipe = build("""
module m (input en, input [7:0] d, output [7:0] y);
  reg [7:0] out;
  assign y = out;
  always @(*) begin
    if (en)
      out = d;
  end
endmodule
""")
        pipe.set_inputs(en=1, d=42)
        assert pipe.eval()["y"] == 42
        pipe.set_inputs(en=0)
        assert pipe.eval()["y"] == 0

    def test_default_then_override_idiom(self):
        pipe = build("""
module m (input [1:0] sel, output [7:0] y);
  reg [7:0] out;
  assign y = out;
  always @(*) begin
    out = 8'd7;
    if (sel == 2'd2)
      out = 8'd77;
  end
endmodule
""")
        pipe.set_inputs(sel=0)
        assert pipe.eval()["y"] == 7
        pipe.set_inputs(sel=2)
        assert pipe.eval()["y"] == 77

    def test_blocking_sequencing_within_block(self):
        pipe = build("""
module m (input [7:0] a, output [7:0] y);
  reg [7:0] t;
  reg [7:0] out;
  assign y = out;
  always @(*) begin
    t = a + 8'd1;
    t = t * 8'd2;
    out = t;
  end
endmodule
""")
        pipe.set_inputs(a=5)
        assert pipe.eval()["y"] == 12


class TestMemories:
    MEM_SRC = """
module m (input clk, input we, input [3:0] waddr, input [7:0] wdata,
          input [3:0] raddr, output [7:0] rdata);
  reg [7:0] mem [0:15];
  assign rdata = mem[raddr];
  always @(posedge clk) begin
    if (we)
      mem[waddr] <= wdata;
  end
endmodule
"""

    def test_write_then_read(self):
        pipe = build(self.MEM_SRC)
        pipe.set_inputs(we=1, waddr=3, wdata=99, raddr=3)
        pipe.step(1)
        pipe.set_inputs(we=0)
        assert pipe.eval()["rdata"] == 99

    def test_read_during_write_sees_old_value(self):
        pipe = build(self.MEM_SRC)
        pipe.set_inputs(we=1, waddr=5, wdata=11, raddr=5)
        pipe.step(1)
        pipe.set_inputs(wdata=22)
        # Same-cycle read returns the pre-edge contents.
        assert pipe.eval()["rdata"] == 11
        pipe.step(1)
        assert pipe.eval()["rdata"] == 22

    def test_address_wraps_at_depth(self):
        pipe = build(self.MEM_SRC)
        inst = pipe.find("")
        inst.write_memory("mem", 0, [7] + [0] * 15)
        pipe.set_inputs(raddr=0, we=0)
        assert pipe.eval()["rdata"] == 7

    @given(writes=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 255)),
        min_size=1, max_size=20,
    ))
    @settings(max_examples=25, deadline=None)
    def test_memory_matches_dict_model(self, writes):
        pipe = build(self.MEM_SRC)
        model = {}
        for addr, data in writes:
            pipe.set_inputs(we=1, waddr=addr, wdata=data, raddr=0)
            pipe.step(1)
            model[addr] = data
        pipe.set_inputs(we=0)
        for addr, expect in model.items():
            pipe.set_inputs(raddr=addr)
            assert pipe.eval()["rdata"] == expect


class TestHierarchyEvaluation:
    def test_feedback_through_registers(self):
        """A two-stage feedback loop (B's output feeds A's seq input)
        must work in one pass: the two-phase split delivers the final
        value to A's flops."""
        pipe = build("""
module stage_a (input clk, input [7:0] nxt, output [7:0] q);
  reg [7:0] q;
  always @(posedge clk) q <= nxt;
endmodule

module stage_b (input clk, input [7:0] cur, output [7:0] nxt);
  assign nxt = cur + 8'd1;
endmodule

module m (input clk, output [7:0] y);
  wire [7:0] q;
  wire [7:0] nxt;
  stage_a a (.clk(clk), .nxt(nxt), .q(q));
  stage_b b (.clk(clk), .cur(q), .nxt(nxt));
  assign y = q;
endmodule
""")
        pipe.step(5)
        assert pipe.outputs()["y"] == 5

    def test_cross_module_redirect_pattern(self):
        """The CPU-shaped pattern: a 'fetch' module whose seq logic
        consumes a comb decision produced by a module evaluated later."""
        pipe = build("""
module fetch (input clk, input rst, input redir, input [7:0] target,
              output [7:0] pc);
  reg [7:0] pc_q;
  assign pc = pc_q;
  always @(posedge clk) begin
    if (rst) pc_q <= 0;
    else if (redir) pc_q <= target;
    else pc_q <= pc_q + 8'd1;
  end
endmodule

module decide (input clk, input [7:0] pc, output redir, output [7:0] target);
  assign redir = pc == 8'd3;
  assign target = 8'd10;
endmodule

module m (input clk, input rst, output [7:0] y);
  wire [7:0] pc;
  wire redir;
  wire [7:0] target;
  fetch f (.clk(clk), .rst(rst), .redir(redir), .target(target), .pc(pc));
  decide d (.clk(clk), .pc(pc), .redir(redir), .target(target));
  assign y = pc;
endmodule
""")
        pipe.set_inputs(rst=1)
        pipe.step(1)
        pipe.set_inputs(rst=0)
        seen = []
        for _ in range(6):
            seen.append(pipe.outputs()["y"])
            pipe.step(1)
        # 0,1,2,3 -> redirect to 10 -> 11
        assert seen == [0, 1, 2, 3, 10, 11]

    def test_counter_hierarchy(self, counter_pipe):
        counter_pipe.step(10)
        assert counter_pipe.outputs() == {"c0": 10, "c1": 30}

    @given(cycles=st.integers(min_value=0, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_counter_property(self, cycles):
        netlist, library = _counter_design()
        pipe = Pipe(netlist.top, library)
        pipe.set_inputs(rst=1)
        pipe.step(1)
        pipe.set_inputs(rst=0)
        pipe.step(cycles)
        assert pipe.outputs() == {
            "c0": cycles & 0xFF,
            "c1": (3 * cycles) & 0xFF,
        }


class TestOutOfRangeSelects:
    def test_out_of_range_bit_write_is_dropped(self):
        # A dynamic bit index past the declared width must not smuggle
        # bits above the register's mask (Verilog: no effect).
        pipe = build("""
module m (input clk, input [3:0] i, output [7:0] y);
  reg [7:0] q;
  assign y = q;
  always @(posedge clk) q[i] <= 1'b1;
endmodule
""")
        pipe.set_inputs(i=12)  # beyond bit 7
        pipe.step(1)
        assert pipe.outputs()["y"] == 0
        pipe.set_inputs(i=3)
        pipe.step(1)
        assert pipe.outputs()["y"] == 0b1000

    def test_out_of_range_bit_read_is_zero(self):
        pipe = build("""
module m (input [7:0] a, input [3:0] i, output y);
  assign y = a[i];
endmodule
""")
        pipe.set_inputs(a=0xFF, i=12)
        assert pipe.eval()["y"] == 0

    def test_register_invariant_after_mixed_writes(self):
        # Whatever the write pattern, the stored value stays in range.
        pipe = build("""
module m (input clk, input [3:0] i, output [7:0] y);
  reg [7:0] q;
  assign y = q;
  always @(posedge clk) q[i] <= 1'b1;
endmodule
""")
        for i in (15, 7, 9, 0, 14):
            pipe.set_inputs(i=i)
            pipe.step(1)
        value = pipe.find("").peek_reg("q")
        assert 0 <= value < 256
        assert value == 0b10000001


# Registers written in place (``callplan.edge_plan``): statements that
# read a register run before those that write it, two writers keep
# their order, and a register read after its write is read through a
# local bound before any write -- across blocks, ``case`` arms, part and
# bit selects, a memory two blocks write and a continuous assign read
# late.
IN_PLACE = """
module sink (input clk, input [7:0] v, output [7:0] o);
  assign o = v;
endmodule
module m (input clk, input rst, input [7:0] d, input [1:0] sel,
          output [7:0] y, output [7:0] z, output [7:0] w);
  reg [7:0] hidden, q, acc, pair, late, nib, blk;
  reg [7:0] mem [0:3];
  wire [7:0] sunk;
  assign sunk = late + hidden;
  sink u (.clk(clk), .v(pair ^ late), .o(z));
  assign y = q ^ acc ^ nib ^ blk;
  assign w = mem[sel];
  always @(posedge clk) begin
    hidden <= rst ? 8'd1 : hidden + d;
    q <= rst ? 8'd0 : q + hidden;
    case (sel)
      2'd0: nib[3:0] <= d[7:4];
      2'd1: nib[7:4] <= nib[3:0];
      2'd2: begin nib[0] <= ~nib[0]; acc <= acc ^ nib; end
      default: blk <= blk + q;
    endcase
  end
  always @(posedge clk) begin
    acc <= acc + d;
    pair <= d;
    mem[sel] <= acc;
  end
  always @(posedge clk) begin
    if (sel[0]) pair <= pair + 8'd7;
    if (sel[1]) begin
      late <= d ^ blk;
      acc[0] <= sunk[0];
      mem[sel ^ 2'd1] <= late;
    end
  end
endmodule
"""


# Two blocks that swap ``a`` and ``b``: in either order, one reads a
# register the other has written.  ``c`` is written in parts, each part read
# (by the next part, a bit select, a dynamic bit) after a write.
SWAP = """
module swap (input clk, input rst, input [7:0] d, input [1:0] sel, output [7:0] y);
  reg [7:0] a, b, c;
  assign y = a ^ {b[3:0], c[7:4]};
  always @(posedge clk) a <= rst ? d : b;
  always @(posedge clk) b <= rst ? ~d : a;
  always @(posedge clk) begin
    c[3:0] <= c[7:4] ^ d[3:0];
    if (sel[0]) c[7:4] <= c[3:0] + d[7:4];
    if (sel[1]) c[sel] <= ~c[0];
    else c[1] <= c[2];
  end
endmodule
"""


class TestInPlaceWrites:
    """Every build, clean and sanitized at each opt level, agrees with
    the inline baseline cycle by cycle."""

    @staticmethod
    def agree(source, top, stimulus):
        from repro.baseline import BaselineCompiler
        from repro.codegen.build import OPT_LEVELS, BuildConfig
        from repro.hdl import elaborate, parse
        from repro.passes import compile_netlist
        from repro.sanitize import SanitizerRuntime

        netlist = elaborate(parse(source), top)
        pipes = [BaselineCompiler(mode="inline").compile(netlist).make_pipe()]
        builds = [BuildConfig(sanitize=sanitize, opt=opt)
                  for sanitize in (False, True) for opt in OPT_LEVELS]
        for build in builds + [BuildConfig(sanitize=True, san_elide=False)]:
            runtime = SanitizerRuntime("report") if build.sanitize else None
            pipes.append(Pipe(netlist.top, compile_netlist(netlist, build, runtime)))
        for rst, d, sel in [(True, 0, 0)] + stimulus:
            outputs = []
            for pipe in pipes:
                pipe.set_inputs(rst=int(rst), d=d, sel=sel)
                outputs.append(dict(pipe.eval()))
                pipe.tick()
            assert all(out == outputs[0] for out in outputs), outputs
        flat = pipes[0].top.registers()
        for pipe in pipes[1:]:
            shared = {f"{name}": value for name, value in pipe.top.registers().items()}
            assert shared == {name: flat[name] for name in shared}
        return netlist

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 255), st.integers(0, 3)),
                    min_size=1, max_size=40))
    def test_every_build_agrees_with_the_inline_baseline(self, stimulus):
        netlist = self.agree(IN_PLACE, "m", stimulus)
        assert netlist.modules["m"].num_regs == 7

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 255), st.integers(0, 3)),
                    min_size=1, max_size=40))
    def test_a_swap_and_partial_writes_agree_with_the_inline_baseline(self, stimulus):
        from repro.codegen.callplan import edge_plan

        netlist = self.agree(SWAP, "swap", stimulus)
        assert edge_plan(netlist.modules["swap"]).reads_old == {"b", "c"}
