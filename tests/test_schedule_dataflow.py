"""Scheduler and dataflow analysis tests: ordering, per-output deps,
early binding, comb loop detection."""

import pytest

from repro import compile_design
from repro.hdl import elaborate, parse
from repro.hdl.consteval import expr_reads
from repro.hdl.errors import ConvergenceError
from repro.ir.schedule import toposort
from repro.sim import Pipe


def elab(source, top="m"):
    return elaborate(parse(source), top)


class TestCombScheduling:
    def test_assigns_ordered_by_dependency(self):
        ir = elab("""
module m (input [7:0] a, output [7:0] y);
  wire [7:0] t2;
  wire [7:0] t1;
  assign y = t2 + 1;
  assign t2 = t1 + 1;
  assign t1 = a + 1;
endmodule
""").top_module
        order = [ir.comb_assigns[i].defines for kind, i in ir.schedule
                 if kind == "assign"]
        assert order.index("t1") < order.index("t2") < order.index("y")
        assert ir.loops == []

    def test_true_comb_loop_is_one_group_of_the_schedule(self):
        ir = elab("""
module m (input [7:0] a, output [7:0] y);
  wire [7:0] p;
  wire [7:0] q;
  wire [7:0] t;
  assign y = q;
  assign p = q & t;
  assign q = p | 8'd1;
  assign t = a + 8'd1;
endmodule
""").top_module
        # The loop waits for t, runs as one step, and feeds y.
        loop = (("assign", 1), ("assign", 2))
        assert ir.loops == [loop]
        assert ir.schedule == [("assign", 3), *loop, ("assign", 0)]
        assert ir.steps == [
            ((("assign", 3),), False), (loop, True), ((("assign", 0),), False)
        ]

    def test_a_unit_that_reads_its_own_define_is_a_loop(self):
        ir = elab("""
module m (input a, output y);
  wire p;
  assign p = !p | a;
  assign y = p;
endmodule
""").top_module
        assert ir.loops == [(("assign", 0),)]

    def test_registers_break_ordering_constraints(self):
        ir = elab("""
module m (input clk, output [7:0] y);
  reg [7:0] q;
  wire [7:0] nxt;
  assign nxt = q + 1;
  assign y = q;
  always @(posedge clk) q <= nxt;
endmodule
""").top_module
        assert ir.loops == []


def test_toposort_makes_each_loop_one_step():
    """Kahn's FIFO order over the condensation: a -> (b <-> c) ->
    (d <-> e), f reads itself, g stands alone."""
    reads = {"a": [], "b": ["a", "c"], "c": ["b"], "d": ["c", "e"],
             "e": ["d"], "f": ["f"], "g": []}
    assert toposort(list(reads), reads, {u: u for u in reads}) == [
        (("a",), False), (("f",), True), (("g",), False),
        (("b", "c"), True), (("d", "e"), True),
    ]


def _deps_to_a_fixed_point(ir, netlist):
    """Reference for ``signal_deps``: every unit of the schedule, in any
    order, joined round after round until nothing grows."""
    deps = {name: {name} for name in ir.inputs}

    def of(names):
        return set().union(*(deps.get(n, set()) for n in names))

    moved = True
    while moved:
        moved = False
        for kind, index in ir.schedule:
            if kind == "inst":
                inst = ir.instances[index]
                child = netlist.modules[inst.child_key]
                gives = [(target, of(n for port in child.output_deps[out]
                                     if port in inst.input_conns
                                     for n in expr_reads(inst.input_conns[port])))
                         for out, target in inst.output_conns.items()]
            else:
                item = (ir.comb_assigns if kind == "assign" else ir.comb_blocks)[index]
                gives = [(name, of(item.reads)) for name in ir.unit_defines((kind, index))]
            for name, new in gives:
                if not new <= deps.setdefault(name, set()):
                    deps[name] |= new
                    moved = True
    return deps


@pytest.mark.parametrize("design", ["mesh", "narrowing", "wide", "loop"])
def test_signal_deps_walk_the_schedule_once(design, pgas2_netlist_library):
    """One walk of the steps (a loop's step repeated) gives what joining
    the whole schedule to a fixed point gives."""
    from tests import test_calling_convention, test_cycle_kernel, test_unwatched_cycle

    if design == "mesh":
        netlist = pgas2_netlist_library[1]
    else:
        source, top = {
            "narrowing": (test_cycle_kernel.NARROWING, "top"),
            "wide": (test_calling_convention.WIDE, "top"),
            "loop": test_unwatched_cycle.wrapped(test_unwatched_cycle.LOOP_SRC, 2),
        }[design]
        netlist = elab(source, top)
    for ir in netlist.modules.values():
        reference = _deps_to_a_fixed_point(ir, netlist)
        assert {n: d for n, d in ir.signal_deps.items() if d} == {
            n: d for n, d in reference.items() if d
        }, ir.key


class TestOutputDeps:
    def test_comb_passthrough_depends_on_input(self):
        ir = elab("""
module m (input [7:0] a, input [7:0] b, output [7:0] y);
  assign y = a + 1;
endmodule
""").top_module
        assert ir.output_deps["y"] == {"a"}
        assert ir.comb_inputs == {"a"}

    def test_registered_output_depends_on_nothing(self):
        ir = elab("""
module m (input clk, input [7:0] d, output [7:0] q);
  reg [7:0] q;
  always @(posedge clk) q <= d;
endmodule
""").top_module
        assert ir.output_deps["q"] == set()
        assert ir.comb_inputs == set()

    def test_assign_from_register_depends_on_nothing(self):
        ir = elab("""
module m (input clk, input [7:0] d, output [7:0] q);
  reg [7:0] q_r;
  assign q = q_r;
  always @(posedge clk) q_r <= d;
endmodule
""").top_module
        assert ir.output_deps["q"] == set()

    def test_per_output_precision(self):
        """A memory-like unit: read data depends on the address, not on
        the write data — per-output deps must distinguish."""
        ir = elab("""
module m (input clk, input [3:0] raddr, input [7:0] wdata,
          input we, output [7:0] rdata, output busy);
  reg [7:0] mem [0:15];
  reg busy_r;
  assign rdata = mem[raddr];
  assign busy = busy_r;
  always @(posedge clk) begin
    if (we) mem[raddr] <= wdata;
    busy_r <= we;
  end
endmodule
""").top_module
        assert ir.output_deps["rdata"] == {"raddr"}
        assert ir.output_deps["busy"] == set()

    def test_deps_propagate_through_children(self):
        ir = elab("""
module inner (input [7:0] p, input [7:0] q, output [7:0] r);
  assign r = p + 1;
endmodule
module m (input [7:0] a, input [7:0] b, output [7:0] y);
  inner u (.p(a), .q(b), .r(y));
endmodule
""").top_module
        assert ir.output_deps["y"] == {"a"}


class TestEarlyBinding:
    RING = """
module stop (input clk, input rst, input in_v, input [7:0] in_d,
             output out_v, output [7:0] out_d, output seen);
  reg v_r;
  reg [7:0] d_r;
  assign out_v = v_r;
  assign out_d = d_r;
  assign seen = in_v;
  always @(posedge clk) begin
    if (rst) v_r <= 0;
    else begin
      v_r <= in_v;
      d_r <= in_d + 1;
    end
  end
endmodule

module m (input clk, input rst, output [7:0] y, output any);
  wire v0;
  wire v1;
  wire [7:0] d0;
  wire [7:0] d1;
  wire s0;
  wire s1;
  stop a (.clk(clk), .rst(rst), .in_v(v1), .in_d(d1),
          .out_v(v0), .out_d(d0), .seen(s0));
  stop b (.clk(clk), .rst(rst), .in_v(v0), .in_d(d0),
          .out_v(v1), .out_d(d1), .seen(s1));
  assign y = d0;
  assign any = s0 | s1;
endmodule
"""

    def test_ring_resolves_without_fixpoint(self):
        ir = elab(self.RING).top_module
        assert ir.loops == []
        assert ir.early_bind  # the cycle was broken by early binding

    def test_ring_simulates_correctly(self):
        netlist, library = compile_design(self.RING, "m")
        pipe = Pipe(netlist.top, library)
        pipe.set_inputs(rst=1)
        pipe.step(1)
        pipe.set_inputs(rst=0)
        pipe.step(6)
        # Data increments by one per hop, two hops per lap.
        assert pipe.outputs()["y"] == 6

    def test_one_stop_ring(self):
        source = """
module stop (input clk, input rst, input in_v, output out_v);
  reg v_r;
  assign out_v = v_r;
  always @(posedge clk) v_r <= rst ? 1'b1 : in_v;
endmodule
module m (input clk, input rst, output y);
  wire v;
  stop a (.clk(clk), .rst(rst), .in_v(v), .out_v(v));
  assign y = v;
endmodule
"""
        netlist, library = compile_design(source, "m")
        ir = netlist.top_module
        assert ir.loops == []
        pipe = Pipe(netlist.top, library)
        pipe.set_inputs(rst=1)
        pipe.step(1)
        pipe.set_inputs(rst=0)
        pipe.step(3)
        assert pipe.outputs()["y"] == 1  # the token keeps circulating


class TestFixpointRuntime:
    def test_convergent_loop_settles(self):
        # q = p | 1; p = q & a — settles in a couple of passes.
        netlist, library = compile_design("""
module m (input [7:0] a, output [7:0] y);
  wire [7:0] p;
  wire [7:0] q;
  assign p = q & a;
  assign q = p | 8'd1;
  assign y = q;
endmodule
""", "m")
        pipe = Pipe(netlist.top, library)
        pipe.set_inputs(a=0xFF)
        assert pipe.eval()["y"] == 1

    def test_oscillating_loop_raises(self):
        netlist, library = compile_design("""
module m (input a, output y);
  wire p;
  assign p = !p | a & !a;
  assign y = p;
endmodule
""", "m")
        pipe = Pipe(netlist.top, library)
        pipe.set_inputs(a=0)
        with pytest.raises(ConvergenceError):
            pipe.eval()


class TestPGASScheduling:
    def test_pgas_core_is_schedulable(self, pgas1_netlist_library):
        _, netlist, _ = pgas1_netlist_library
        assert not any(m.loops for m in netlist.modules.values())

    def test_core_outputs_have_no_comb_inputs(self, pgas1_netlist_library):
        _, netlist, _ = pgas1_netlist_library
        core = netlist.modules["rv_core"]
        # Every rv_core output is register-sourced (pipeline discipline).
        assert core.comb_inputs == set()

    def test_mesh_ring_early_bound(self, pgas2_netlist_library):
        _, netlist, _ = pgas2_netlist_library
        top = netlist.top_module
        assert top.early_bind
        assert top.loops == []
