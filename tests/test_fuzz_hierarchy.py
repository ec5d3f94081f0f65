"""Structural fuzzing: random sequential hierarchies, pygen vs flatgen.

Generates random multi-module designs — stages with registers, comb
logic, feedback wiring between sibling instances and sequential-only
inputs that turn combinational one level down (the patterns that
exercise the eval_out / cycle partition and the instance scheduler) —
and checks that the shared-module simulator and the flattening simulator
agree cycle-for-cycle under random stimulus.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import compile_design
from repro.codegen.flatgen import compile_flat
from repro.hdl import elaborate, parse
from repro.sim import Pipe

OPS = ["+", "-", "^", "&", "|"]


@st.composite
def random_design(draw):
    """A chain of 2-4 stage instances with optional feedback, one or
    two module levels above the stage.

    Each stage: q <= f(in1, in2); out = g(q, in1); aux = h(q, in3), so
    its two outputs depend on different inputs.  The chain wires
    stage[i].out into stage[i+1]; with feedback, the last stage's out
    also feeds the first stage's second input (a registered loop, which
    must schedule without fixpoint iteration).

    ``late`` is an input that reaches the output through registers
    only.  With ``late_stage``, it feeds one stage's *comb* port in3,
    and that stage's aux is registered in the chain module: one
    instance with a settled output (out) and an unsettled one (aux).
    With ``three_level`` the chain sits in a ``mid`` module under a
    thin top — the rv_core / rv_mem / d_rdata shape.  With ``narrow``,
    one stage port is four bits wide under its eight-bit drivers: the
    callee masks nothing, so the generated caller has to.
    """
    n_stages = draw(st.integers(min_value=2, max_value=4))
    seq_op = draw(st.sampled_from(OPS))
    comb_op = draw(st.sampled_from(OPS))
    aux_op = draw(st.sampled_from(OPS))
    acc_op = draw(st.sampled_from(OPS))
    out_op = draw(st.sampled_from(OPS))
    feedback = draw(st.booleans())
    redirect_style = draw(st.booleans())  # seq-only cross input
    late_stage = draw(st.one_of(
        st.none(), st.integers(min_value=0, max_value=n_stages - 1)
    ))
    three_level = draw(st.booleans())
    narrow = draw(st.sampled_from([None, "in1", "in2", "in3"]))
    msb = {port: 3 if port == narrow else 7 for port in ("in1", "in2", "in3")}

    stage = f"""
module stage (
  input clk,
  input rst,
  input [{msb["in1"]}:0] in1,
  input [{msb["in2"]}:0] in2,
  input [{msb["in3"]}:0] in3,
  output [7:0] out,
  output [7:0] aux
);
  reg [7:0] q;
  wire [7:0] mixed;
  assign mixed = in1 {comb_op} q;
  assign out = mixed;
  assign aux = in3 {aux_op} q;
  always @(posedge clk) begin
    if (rst)
      q <= 0;
    else
      q <= in1 {seq_op} in2;
  end
endmodule
"""
    wires = "\n".join(
        f"  wire [7:0] w{i};\n  wire [7:0] a{i};" for i in range(n_stages)
    )
    insts = []
    for i in range(n_stages):
        in1 = "x" if i == 0 else f"w{i - 1}"
        if i == 0 and feedback:
            in2 = f"w{n_stages - 1}"  # registered feedback loop
        elif redirect_style:
            in2 = f"w{(i + 1) % n_stages}"  # forward reference: seq-only
        else:
            in2 = "x"
        in3 = "late" if i == late_stage else "x"  # seq-only above
        insts.append(
            f"  stage s{i} (.clk(clk), .rst(rst), .in1({in1}), "
            f".in2({in2}), .in3({in3}), .out(w{i}), .aux(a{i}));"
        )
    ports = """(
  input clk,
  input rst,
  input [7:0] x,
  input [7:0] late,
  output [7:0] y
);"""
    chain = f"""
module {"mid" if three_level else "top"} {ports}
{wires}
  reg [7:0] acc;
{chr(10).join(insts)}
  always @(posedge clk) begin
    if (rst)
      acc <= 0;
    else
      acc <= acc {acc_op} a{late_stage or 0};
  end
  assign y = (w{n_stages - 1} {out_op} w0) ^ acc;
endmodule
"""
    top = f"""
module top {ports}
  mid u (.clk(clk), .rst(rst), .x(x), .late(late), .y(y));
endmodule
""" if three_level else ""
    return stage + chain + top


@st.composite
def stimulus(draw):
    return draw(st.lists(
        st.fixed_dictionaries({
            "rst": st.integers(0, 1),
            "x": st.integers(0, 255),
            "late": st.integers(0, 255),
        }),
        min_size=3, max_size=15,
    ))


class TestHierarchyFuzz:
    @given(source=random_design(), stim=stimulus())
    @settings(max_examples=40, deadline=None)
    def test_pygen_and_flatgen_agree_cycle_by_cycle(self, source, stim):
        netlist, library = compile_design(source, "top")
        shared = Pipe(netlist.top, library)
        flat_code = compile_flat(elaborate(parse(source), "top"))
        flat = Pipe(flat_code.key, {flat_code.key: flat_code})
        for inputs in stim:
            for pipe in (shared, flat):
                pipe.set_inputs(**inputs)
            assert shared.eval() == flat.eval(), source
            shared.tick()
            flat.tick()

    @given(source=random_design(), stim=stimulus())
    @settings(max_examples=40, deadline=None)
    def test_opt_levels_agree_cycle_by_cycle(self, source, stim):
        """opt=full vs opt=none on random hierarchies — constant
        folding, dead logic and pure-child skips must be invisible in
        behaviour, including across held inputs and input flips."""
        plain_netlist, plain_lib = compile_design(source, "top")
        opt_netlist, opt_lib = compile_design(source, "top", opt="full")
        plain = Pipe(plain_netlist.top, plain_lib)
        opt = Pipe(opt_netlist.top, opt_lib)
        for inputs in stim:
            for pipe in (plain, opt):
                pipe.set_inputs(**inputs)
            assert plain.eval() == opt.eval(), source
            # Hold the inputs for one extra cycle: unchanged arguments
            # over changed state, not just changed arguments.
            for _ in range(2):
                plain.tick()
                opt.tick()
                assert plain.eval() == opt.eval(), source

    @given(source=random_design())
    @settings(max_examples=25, deadline=None)
    def test_no_fixpoint_needed(self, source):
        """Every generated topology (feedback included) must schedule
        in one pass — loops go through registers."""
        netlist, _ = compile_design(source, "top")
        assert not any(m.needs_fixpoint for m in netlist.modules.values())

    @given(source=random_design(), stim=stimulus())
    @settings(max_examples=20, deadline=None)
    def test_snapshot_restore_determinism(self, source, stim):
        """Replaying from a snapshot reproduces the original run."""
        netlist, library = compile_design(source, "top")
        pipe = Pipe(netlist.top, library)
        half = len(stim) // 2
        for inputs in stim[:half]:
            pipe.set_inputs(**inputs)
            pipe.step(1)
        snap = pipe.snapshot()
        tail = []
        for inputs in stim[half:]:
            pipe.set_inputs(**inputs)
            tail.append(pipe.eval()["y"])
            pipe.tick()
        pipe.restore(snap)
        replayed = []
        for inputs in stim[half:]:
            pipe.set_inputs(**inputs)
            replayed.append(pipe.eval()["y"])
            pipe.tick()
        assert replayed == tail
