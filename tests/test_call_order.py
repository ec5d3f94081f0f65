"""Differential: the generator's call order against the flat baseline.

Generated code keeps no memo: each parent runs each child's settled
comb body once per cycle, in parts where it must, with the final
arguments, before the child's ``cycle`` (``repro.codegen.callplan``).  The
design below has a child of every shape that order has to get right:

- ``u_split`` (``rv_mem``'s shape): one output is wanted in the
  parent's ``eval_out``, the other needs ``late``, a port the parent
  only has in ``cycle``, so the child is called in two parts;
- ``s0`` / ``s1`` (``ring_stop``'s shape): a ring, broken by binding
  each stop's output computed from its register alone from a part that
  takes no port; the stop's ``cycle`` reads that value too, so the part
  after it hands it on;
- ``u_lonely``: a child with state whose output is not connected;
- ``u_feed``: a child read only by a register of the parent, so it is
  called only from the parent's ``cycle``;
- ``u_or``: a child on a comb loop the parent repeats until it settles.

``stop`` is also the top of a second pipe on the same library.  Pokes,
memory writes, a restore and an input change land between ``eval`` and
``tick``.  Outputs and state must equal the flat baseline's every cycle.
"""

from __future__ import annotations

from repro import compile_design
from repro.codegen.flatgen import compile_flat
from repro.hdl import elaborate, parse
from repro.sim import Pipe

SRC = """
module split (input [7:0] a, input [7:0] late, output [7:0] early_o,
              output [7:0] late_o);
  wire [7:0] t;
  assign t = a + 8'd3;
  assign early_o = t ^ 8'h5a;
  assign late_o = t + late;
endmodule

module stop (input clk, input rst, input [7:0] rin, input [7:0] id,
             output [7:0] rout, output [7:0] got);
  reg [7:0] r;
  wire [7:0] r2;
  assign r2 = r ^ 8'h11;
  assign rout = r2;
  assign got = rin ^ id;
  always @(posedge clk) r <= rst ? id : rin + r2;
endmodule

module lonely (input clk, input [7:0] d, output [7:0] q);
  reg [7:0] acc;
  wire [7:0] nx;
  assign nx = acc + d;
  assign q = nx;
  always @(posedge clk) acc <= nx;
endmodule

module feeder (input clk, input [7:0] x, output [7:0] y);
  reg [7:0] k;
  assign y = k + x;
  always @(posedge clk) k <= k + 8'd1;
endmodule

module orr (input [7:0] p, input [7:0] m, output [7:0] o);
  assign o = p | m;
endmodule

module top (input clk, input rst, input [7:0] a, input [7:0] b,
            input [7:0] late, output [7:0] y, output [7:0] z);
  wire [7:0] se, sl, r0, r1, g0, g1, fy, lp, lq;
  reg [7:0] acc;
  reg [7:0] lr;
  reg [7:0] mem [0:7];
  reg [2:0] i;
  split u_split (.a(a), .late(late), .early_o(se), .late_o(sl));
  stop s0 (.clk(clk), .rst(rst), .rin(r1), .id(8'd1), .rout(r0), .got(g0));
  stop s1 (.clk(clk), .rst(rst), .rin(r0), .id(8'd2), .rout(r1), .got(g1));
  lonely u_lonely (.clk(clk), .d(b), .q());
  feeder u_feed (.clk(clk), .x(b), .y(fy));
  assign lp = {lq[6:0], 1'b0} & a;
  orr u_or (.p(lp), .m(lr), .o(lq));
  assign y = se + g0 + lq;
  assign z = g1 ^ mem[i];
  always @(posedge clk) begin
    acc <= rst ? 8'd0 : acc + sl + fy;
    lr <= rst ? 8'd1 : lr + {4'd0, lq[7:4]} + 8'd1;
    i <= i + 3'd1;
    mem[i] <= acc ^ lq;
  end
endmodule
"""

CYCLES = 240


def flat_pipe(top):
    code = compile_flat(elaborate(parse(SRC), top))
    return Pipe(code.key, {code.key: code}, name=f"flat_{top}")


def state_of(pipe):
    """Registers and memories by hierarchical name (the flat
    baseline's naming)."""
    state = {}
    for path, inst in pipe.top.walk():
        prefix = path.partition(".")[2]
        for name, value in inst.registers().items():
            state[f"{prefix}.{name}" if prefix else name] = value
        for name in inst.code.mem_specs:
            state[f"{prefix}.{name}" if prefix else name] = list(inst.memory(name))
    return state


def inputs(cycle):
    return {
        "rst": int(cycle < 2),
        "a": (cycle * 37 + 11) & 255,
        "b": (cycle * 91) & 255,
        "late": (cycle * 53 + 7) & 255,
    }


def test_the_call_order_agrees_with_the_flat_baseline():
    netlist, library = compile_design(SRC, "top")
    # The shapes are there: a split child, early-bound stops, a child
    # on a repeated comb loop, each called through its parts.
    assert set(library["split"].parts_fn) == {"eval_n_1", "eval_1_3"}
    assert "eval_n_0" in library["stop"].parts_fn
    assert "!= _a" in library["top"].source
    shared = Pipe(netlist.top, library, name="shared")
    flat = flat_pipe("top")
    # The same shared code object, as a child above and a top here.
    stop_shared = Pipe("stop", library, name="stop")
    stop_flat = flat_pipe("stop")
    assert stop_shared.top.code is shared.find("s0").code
    snaps = {}
    for cycle in range(CYCLES):
        for pipe in (shared, flat):
            pipe.set_inputs(**inputs(cycle))
        for pipe in (stop_shared, stop_flat):
            pipe.set_inputs(rst=int(cycle < 1), rin=cycle & 255, id=(cycle * 5) & 255)
        assert shared.eval() == flat.eval(), cycle
        assert stop_shared.eval() == stop_flat.eval(), cycle
        if cycle % 37 == 5:
            shared.find("s1").poke_reg("r", cycle * 7)
            flat.top.poke_reg("s1.r", cycle * 7)
            stop_shared.top.poke_reg("r", cycle)
            stop_flat.top.poke_reg("r", cycle)
        if cycle % 41 == 7:
            shared.top.write_memory("mem", cycle % 8, [cycle * 3])
            flat.top.write_memory("mem", cycle % 8, [cycle * 3])
        if cycle % 29 == 11:
            for pipe in (shared, flat):
                pipe.set_input("a", cycle & 255)
        if cycle == 60:
            snaps = {pipe.name: pipe.snapshot() for pipe in (shared, flat)}
        if cycle in (150, 200):
            for pipe in (shared, flat):
                pipe.restore(snaps[pipe.name])
        assert shared.eval() == flat.eval(), cycle
        for pipe in (shared, flat, stop_shared, stop_flat):
            pipe.tick()
        assert state_of(shared) == state_of(flat), cycle
        assert state_of(stop_shared) == state_of(stop_flat), cycle


def test_a_loop_pass_with_unchanged_arguments_does_not_call_the_child():
    """Inside a repeated comb loop a child is called again only when a
    pass changed its arguments, so its body and hooks run at most once
    per distinct argument tuple in a row."""
    netlist, library = compile_design(SRC, "top")
    code = library["orr"]
    calls = []

    def counted(s, ch, *args, _inner=code.eval_out_fn):
        calls.append(args)
        return _inner(s, ch, *args)

    code.eval_out_fn = counted
    pipe = Pipe(netlist.top, library)
    for cycle in range(40):
        pipe.set_inputs(**inputs(cycle))
        calls.clear()
        pipe.tick()
        assert calls, cycle
        assert all(a != b for a, b in zip(calls, calls[1:])), (cycle, calls)


def test_the_pipe_is_the_one_cache():
    """``eval`` is memoized by the pipe alone: a repeated ``eval``
    recomputes nothing, and a tick, a poke or an input change drops
    the settled outputs."""
    netlist, library = compile_design(SRC, "top")
    runs = []
    code = library["top"]

    def counted(s, ch, *args, _inner=code.eval_out_fn):
        runs.append(1)
        return _inner(s, ch, *args)

    code.eval_out_fn = counted
    pipe = Pipe(netlist.top, library)
    pipe.set_inputs(**inputs(0))
    first = pipe.eval()
    assert pipe.eval() is first and len(runs) == 1
    pipe.tick()  # settled already: the edge does not settle again
    assert len(runs) == 1
    pipe.eval()
    pipe.find("s0").poke_reg("r", 9)
    pipe.eval()
    pipe.set_input("a", 200)
    pipe.eval()
    pipe.set_input("a", 200)  # unchanged: nothing to drop
    pipe.eval()
    assert len(runs) == 4
