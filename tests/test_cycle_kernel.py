"""The two-entry cycle kernel: every comb unit once per cycle.

Structural checks on the generated source of the 2x2 PGAS library,
entry counts on a running mesh, and cycle-by-cycle differentials
against the flattening compiler (one function, no partition, no memo)
on the shapes the ``eval_out`` / ``cycle`` partition has to get right.
"""

from __future__ import annotations

import os
import random
import re
from collections import Counter

import pytest

from repro import compile_design
from repro.codegen.build import BuildConfig
from repro.codegen.flatgen import compile_flat
from repro.codegen.pygen import compile_netlist
from repro.hdl import elaborate, parse
from repro.passes import run_opt_pipeline
from repro.passes.dataflow import FactEval
from repro.sanitize.runtime import SanitizerRuntime
from repro.sim import Pipe
from tests import test_schedule_dataflow

HERE = os.path.dirname(os.path.abspath(__file__))
RING_V = os.path.join(HERE, "..", "examples", "designs", "ring.v")


def _libraries(netlist):
    yield "default", compile_netlist(netlist)
    yield "sanitize=report, opt=full", run_opt_pipeline(
        netlist, BuildConfig(sanitize=True, opt="full"),
        sanitize_runtime=SanitizerRuntime("report"),
    )


def _binds(name, text):
    """Whether ``text`` computes local ``v_<name>``: a plain assignment
    or one name on the left of a child-result unpack (the unpack of the
    tuple slot re-reads a value, it does not compute one)."""
    return re.search(
        rf"^\s*(?:v_{name} = |\((?:\w+, )*v_{name}, (?:\w+, )*\) = "
        r"_\w+\.code\.eval_out_fn\()", text, re.M
    ) is not None


def _comb_defines(ir):
    names = [assign.defines for assign in ir.comb_assigns]
    for comb in ir.comb_blocks:
        names.extend(comb.defines)
    for inst in ir.instances:
        names.extend(inst.comb_defines)
    return names


class TestOncePerCycle:
    def test_each_comb_define_is_assigned_in_one_function(
        self, pgas2_netlist_library
    ):
        _, netlist, _ = pgas2_netlist_library
        for flavour, library in _libraries(netlist):
            lines = 0
            for key, code in library.items():
                assert not code.ir.needs_fixpoint
                eval_out, cycle = code.source.split("def cycle")
                lines += code.source.count("\n")
                for name in _comb_defines(code.ir):
                    where = [_binds(name, part) for part in (eval_out, cycle)]
                    # Neither: dead logic the optimizer dropped.
                    assert where != [True, True], (flavour, key, name)
                    if flavour == "default":
                        assert any(where), (key, name)
                if key == "rv_ex":  # the ALU: in eval_out, nowhere else
                    assert _binds("alu_full", eval_out)
                    assert not _binds("alu_full", cycle)
            if flavour == "default":
                assert lines <= 1000  # 1352 with eval_out/eval_seq/tick

    def test_one_eval_out_entry_per_instance_per_cycle(
        self, pgas2_netlist_library
    ):
        _, netlist, _ = pgas2_netlist_library
        library = compile_netlist(netlist)  # private: it gets patched
        entries: Counter = Counter()
        for key, code in library.items():
            def counted(*args, _inner=code.eval_out_fn, _key=key):
                entries[_key] += 1
                return _inner(*args)

            code.eval_out_fn = counted  # calls from a parent or the pipe
            code.cycle_fn.__globals__["eval_out"] = counted  # from cycle
        pipe = Pipe(netlist.top, library)
        pipe.set_inputs(rst=1)
        pipe.step(2)
        pipe.set_inputs(rst=0)
        pipe.step(3)
        entries.clear()
        cycles = 10
        pipe.step(cycles)
        instances = netlist.instance_count()
        per_cycle = {
            key: entries[key] / (instances[key] * cycles) for key in library
        }
        # rv_mem's d_rdata path crosses the core boundary twice by
        # design (settled outputs first, then the load value); a
        # ring_stop is first called with no arguments for its early-
        # bound outputs.
        twice = {"rv_mem", "ring_stop"}
        assert per_cycle == {
            key: 2.0 if key in twice else 1.0 for key in library
        }


def test_cycle_compares_the_memo_key_with_its_real_arguments():
    """The contract that makes the tuple slot safe: whoever called
    eval_out last, and with whatever, ``cycle`` only unpacks a tuple
    computed from the arguments it was given itself."""
    _, library = compile_design("""
module m (input clk, input en, input [7:0] a, output [7:0] y);
  reg [7:0] q;
  wire [7:0] t;
  assign t = a + q;
  assign y = t;
  always @(posedge clk) if (en) q <= t;
endmodule
""", "m")
    code = library["m"]
    assert code.comb_input_ports == ("a",)
    # Raw entry points: the callee masks nothing (the calling
    # convention), so every argument below is within its port's width,
    # as Pipe and the generated callers guarantee.
    state = code.make_state()
    assert code.eval_out_fn(state, (), 7) == (7,)
    code.cycle_fn(state, (), 0, 1, 5)  # clk, en, a
    assert state[code.reg_slots["q"]] == 5
    assert code.eval_out_fn(state, (), 1) == (6,)
    q = code.reg_slots["q"]
    state[q] = state[q + code.num_regs] = 9  # behind the memo's back ...
    state[code.layout.cache_key_slot] = None  # ... so it is dropped
    code.cycle_fn(state, (), 0, 1, 1)
    assert state[code.reg_slots["q"]] == 10


# -- differentials against the flattening compiler ---------------------------

# mid's ``late`` is sequential-only (it reaches no output of mid without
# a register) but feeds a *comb* port of the leaf, whose result mid
# registers: the rv_core / rv_mem / d_rdata shape, under a third level.
THREE_LEVEL = """
module leaf (input clk, input [7:0] addr, input [7:0] data,
             output [7:0] req, output [7:0] value);
  assign req = addr + 8'd1;
  assign value = data ^ addr;
endmodule
module mid (input clk, input rst, input [7:0] x, input [7:0] late,
            output [7:0] req, output [7:0] got);
  reg [7:0] got_q;
  wire [7:0] value;
  leaf u (.clk(clk), .addr(x), .data(late), .req(req), .value(value));
  assign got = got_q;
  always @(posedge clk) got_q <= rst ? 8'd0 : value + got_q;
endmodule
module top (input clk, input rst, input [7:0] x, input [7:0] late,
            output [7:0] y);
  wire [7:0] req;
  wire [7:0] got;
  mid m (.clk(clk), .rst(rst), .x(x), .late(late), .req(req), .got(got));
  assign y = req ^ got;
endmodule
"""

# One instance, one settled output (``o1``, read by ``y``) and one
# unsettled (``o2``, which needs the sequential-only ``late``).
MIXED_OUTPUTS = """
module child (input clk, input [7:0] p, input [7:0] q,
              output [7:0] o1, output [7:0] o2);
  reg [7:0] n;
  assign o1 = p + n;
  assign o2 = q - n;
  always @(posedge clk) n <= n + 8'd3;
endmodule
module top (input clk, input rst, input [7:0] x, input [7:0] late,
            output [7:0] y);
  wire [7:0] o1;
  wire [7:0] o2;
  reg [7:0] r;
  child c (.clk(clk), .p(x), .q(late), .o1(o1), .o2(o2));
  assign y = o1 ^ r;
  always @(posedge clk) r <= rst ? 8'd0 : o2 + r;
endmodule
"""

# b's sequential-only input is a's *registered* output: b must latch
# a's pre-edge value although a's cycle (and commit) runs first.
SIBLINGS = """
module stage (input clk, input rst, input [7:0] d, output [7:0] q);
  reg [7:0] q;
  always @(posedge clk) q <= rst ? 8'd0 : d + 8'd1;
endmodule
module top (input clk, input rst, input [7:0] x, input [7:0] late,
            output [7:0] y);
  wire [7:0] qa;
  wire [7:0] qb;
  stage a (.clk(clk), .rst(rst), .d(x ^ late), .q(qa));
  stage b (.clk(clk), .rst(rst), .d(qa), .q(qb));
  assign y = qb;
endmodule
"""

# The early-bind ring of test_schedule_dataflow, with a data input so
# the stimulus reaches it.
EARLY_BIND_RING = test_schedule_dataflow.TestEarlyBinding.RING.replace(
    "module m (input clk, input rst, output", "module top (input clk, "
    "input rst, input [7:0] x, input [7:0] late, output"
).replace(".in_d(d1),", ".in_d(d1 ^ x ^ late),")


def _registers_by_path(pipe):
    """``instance.path.register`` -> value, as the flat compiler names
    the registers of the flattened design."""
    return {
        f"{path[4:]}.{name}".lstrip("."): value
        for path, inst in pipe.top.walk()
        for name, value in inst.registers().items()
    }


def _stimulus(seed: int, cycles: int = 40):
    rnd = random.Random(seed)
    for _ in range(cycles):
        yield {"rst": int(rnd.random() < 0.15), "x": rnd.randrange(256),
               "late": rnd.randrange(256)}


@pytest.mark.parametrize("source", [
    THREE_LEVEL, MIXED_OUTPUTS, SIBLINGS, EARLY_BIND_RING,
], ids=["three-level", "mixed-outputs", "siblings", "early-bind-ring"])
@pytest.mark.parametrize("opt", ["none", "full"])
def test_agrees_with_the_flat_compiler_cycle_by_cycle(source, opt):
    netlist, library = compile_design(source, "top", opt=opt)
    shared = Pipe(netlist.top, library)
    flat_code = compile_flat(elaborate(parse(source), "top"))
    flat = Pipe(flat_code.key, {flat_code.key: flat_code})
    for seed in range(3):
        for inputs in _stimulus(seed):
            shared.set_inputs(**inputs)
            flat.set_inputs(**inputs)
            assert shared.eval() == flat.eval(), (seed, shared.cycle)
            shared.tick()
            flat.tick()
    assert _registers_by_path(shared) == flat.top.registers()


def test_the_shapes_are_what_they_say():
    top = elaborate(parse(EARLY_BIND_RING), "top").top_module
    assert top.early_bind and not top.needs_fixpoint

    netlist, library = compile_design(THREE_LEVEL, "top")
    assert netlist.modules["mid"].comb_input_ports == ["x"]
    eval_out, cycle = library["mid"].source.split("def cycle")
    assert _binds("req", eval_out) and _binds("value", cycle)
    assert "0)" in eval_out and "i_late)" in cycle  # the leaf's data port

    _, library = compile_design(MIXED_OUTPUTS, "top")
    eval_out, cycle = library["top"].source.split("def cycle")
    assert _binds("o1", eval_out) and not _binds("o2", eval_out)
    assert _binds("o2", cycle) and not _binds("o1", cycle)
    assert all(".eval_out_fn(" in part for part in (eval_out, cycle))

    _, library = compile_design(SIBLINGS, "top")
    eval_out, cycle = library["top"].source.split("def cycle")
    # qa is bound from a's state before a's cycle runs.
    assert "v_qa = ch[0].state" in eval_out and "v_qa, " in cycle


# -- the calling convention: the caller masks, and only where it must ---------

# Every way an argument can be statically wider than its port, under a
# third level: a 64-bit sum and a 16-bit concatenation into 8-bit comb
# ports, an unsized (32-bit) literal into a 1-bit port, an 8-bit input
# into a 4-bit *sequential-only* port, and an 8-bit sum into the 4-bit
# port of a ``needs_fixpoint`` child (a signal-level loop whose value
# never depends on itself, so one pass settles it in either compiler).
# Every other connection is a bare name of the port's own width.
NARROWING = """
module loopy (input clk, input [3:0] a, output [3:0] out);
  wire [3:0] u;
  wire [3:0] v;
  reg [3:0] seen;
  assign u = (v & 4'd0) | a;
  assign v = u;
  assign out = v ^ seen;
  always @(posedge clk) seen <= v;
endmodule
module leaf (input clk, input en, input [7:0] a, input [7:0] b, input [3:0] k,
             output [7:0] y, output [7:0] acc);
  reg [7:0] acc;
  assign y = a ^ b;
  always @(posedge clk) if (en) acc <= acc + a + k;
endmodule
module mid (input clk, input rst, input [63:0] w, input [7:0] x,
            input [7:0] late, output [7:0] y, output [7:0] acc,
            output [3:0] out);
  wire [7:0] ly;
  reg [7:0] hold;
  leaf u (.clk(clk), .en(1), .a(w + {56'd0, x}), .b({x, hold}), .k(late),
          .y(ly), .acc(acc));
  loopy l (.clk(clk), .a(x + late), .out(out));
  assign y = ly;
  always @(posedge clk) hold <= rst ? 8'd0 : hold + ly;
endmodule
module top (input clk, input rst, input [63:0] w, input [7:0] x,
            input [7:0] late, output [7:0] y, output [7:0] acc,
            output [3:0] out);
  mid m (.clk(clk), .rst(rst), .w(w), .x(x), .late(late), .y(y), .acc(acc),
         .out(out));
endmodule
"""
NARROWED = {  # (parent, instance, port) -> the port's mask
    ("mid", "u", "en"): 1, ("mid", "u", "a"): 255, ("mid", "u", "b"): 255,
    ("mid", "u", "k"): 15, ("mid", "l", "a"): 15,
}


def _narrowing(netlist):
    """Every connection whose expression is statically wider than its
    port, straight from the netlist: {(parent, instance, port): mask}."""
    found = {}
    for key, ir in netlist.modules.items():
        sizer = FactEval(ir, {})  # the width rules, without a generator
        for inst in ir.instances:
            child = netlist.modules[inst.child_key]
            for port, expr in inst.input_conns.items():
                width = child.signals[port].width
                if sizer.width_of(expr) > width:
                    found[key, inst.name, port] = (1 << width) - 1
    return found


def _child_call_args(code, netlist):
    """(instance, port, argument text) of every child call in ``code``."""
    ir = netlist.modules[code.key]
    refs = {}
    for line in code.source.splitlines():
        bound = re.match(r"\s*(_c\d+) = ch\[(\d+)\]$", line)
        if bound:
            refs[bound[1]] = ir.instances[int(bound[2])]
            continue
        call = re.search(
            r"(_c\d+)\.code\.(eval_out_fn|cycle_fn)\(\1\.state, "
            r"\1\.children(.*)\)$", line,
        )
        if not call:
            continue
        inst = refs[call[1]]
        child = netlist.modules[inst.child_key]
        ports = child.inputs
        if call[2] == "eval_out_fn" and not child.needs_fixpoint:
            ports = child.comb_input_ports
        args, depth, start = [], 0, 0
        text = call[3] + ","
        for at, char in enumerate(text):
            depth += (char == "(") - (char == ")")
            if char == "," and depth == 0:
                args.append(text[start:at].strip())
                start = at + 1
        assert len(args[1:]) == len(ports), line
        for port, arg in zip(ports, args[1:]):
            yield inst.name, port, arg


@pytest.mark.parametrize("build", [
    BuildConfig(), BuildConfig(opt="full"), BuildConfig(sanitize=True),
], ids=["default", "opt=full", "sanitize=report"])
def test_narrowing_connections_agree_with_the_flat_compiler(build):
    runtime = SanitizerRuntime("report") if build.sanitize else None
    netlist = elaborate(parse(NARROWING), "top")
    assert netlist.modules["loopy"].needs_fixpoint
    assert netlist.modules["leaf"].comb_input_ports == ["a", "b"]  # not k
    library = run_opt_pipeline(netlist, build, sanitize_runtime=runtime)
    shared = Pipe(netlist.top, library)
    flat_code = compile_flat(elaborate(parse(NARROWING), "top"))
    flat = Pipe(flat_code.key, {flat_code.key: flat_code})
    rnd = random.Random(21)
    for _ in range(60):
        inputs = {"rst": int(rnd.random() < 0.15), "w": rnd.getrandbits(64),
                  "x": rnd.randrange(256), "late": rnd.randrange(256)}
        shared.set_inputs(**inputs)
        flat.set_inputs(**inputs)
        assert shared.eval() == flat.eval(), shared.cycle
        shared.tick()
        flat.tick()
    assert _registers_by_path(shared) == flat.top.registers()
    assert runtime is None or runtime.findings == []  # no site is a port mask


def test_the_caller_masks_exactly_the_narrowing_connections():
    netlist = elaborate(parse(NARROWING), "top")
    assert _narrowing(netlist) == NARROWED
    for opt in ("none", "full"):
        library = run_opt_pipeline(netlist, BuildConfig(opt=opt))
        seen = set()
        for key, code in library.items():
            for inst, port, arg in _child_call_args(code, netlist):
                mask = NARROWED.get((key, inst, port))
                seen.add((key, inst, port))
                if mask is None:
                    assert "&" not in arg, (key, inst, port, arg)
                elif port == "en":  # the literal: folded, not masked
                    assert arg == "1"
                elif arg != "0":  # (an unsettled read in eval_out)
                    assert arg.endswith(f" & {mask})"), (key, inst, port, arg)
        assert set(NARROWED) <= seen


# Shifts and compares: where a bit above the port's width would show.
HIGH_BITS_SHOW = """
module top (input clk, input [7:0] x, input [7:0] late,
            output [7:0] y, output big);
  reg [7:0] q;
  assign y = (x >> 1) ^ q;
  assign big = x > 8'd200;
  always @(posedge clk) q <= q + (late >> 2) + {7'd0, late < x};
endmodule
"""


@pytest.mark.parametrize("raw", [0x1F3, -13], ids=["over-wide", "negative"])
@pytest.mark.parametrize("backend", ["shared", "flat"])
def test_a_top_level_input_is_masked_once_by_the_pipe(backend, raw):
    def make():
        if backend == "flat":
            code = compile_flat(elaborate(parse(HIGH_BITS_SHOW), "top"))
            return Pipe(code.key, {code.key: code})
        netlist, library = compile_design(HIGH_BITS_SHOW, "top")
        return Pipe(netlist.top, library)

    given, masked = make(), make()
    for cycle in range(6):
        given.set_inputs(x=raw + cycle, late=raw - cycle)
        masked.set_inputs(x=(raw + cycle) & 255, late=(raw - cycle) & 255)
        assert given.eval() == masked.eval()
        given.tick()
        masked.tick()
    assert given.snapshot().state.equal_state(masked.snapshot().state)
    # What was set is what is kept: the mask is applied on the way in
    # to the generated code, not to the pipe's record of its inputs.
    assert given.get_input("x") == raw + 5
    assert given.snapshot().inputs["late"] == raw - 5


def test_the_kernel_carries_no_glue(pgas2_netlist_library):
    """No callee-side input mask, one register copy per ``cycle`` (the
    commit), child results bound by unpacking: in both flavours.  On
    the PGAS mesh no connection narrows, so no caller masks either."""
    _, netlist, _ = pgas2_netlist_library
    assert _narrowing(netlist) == {}
    for flavour, library in _libraries(netlist):
        for key, code in library.items():
            assert not re.search(r"\bi_\w+ &=", code.source), (flavour, key)
            assert not re.search(r"_r\d+\[", code.source), (flavour, key)
            _, cycle = code.source.split("def cycle")
            copies = re.findall(r"^\s*s\[\d+:\d+\] = ", cycle, re.M)
            assert len(copies) == (1 if code.num_regs else 0), (flavour, key)
            # (The commit's ``del`` sits inside its ``if _pw_<mem>:``.)
            assert not re.search(r"^    del _pw_", cycle, re.M), (flavour, key)


def test_comb_loop_matches_a_reference_model():
    """``needs_fixpoint``: the comb body re-runs from the carried slot
    in ``cycle`` and commits in the same call.  (The flat compiler
    pre-zeroes its cyclic tail on every pass, so the reference here is
    the loop's least fixed point, computed the way the design reads.)"""
    with open(RING_V) as fh:
        netlist, library = compile_design(fh.read(), "ring")
    assert netlist.top_module.needs_fixpoint
    pipe = Pipe(netlist.top, library)
    out_q = 0
    rnd = random.Random(7)
    for _ in range(60):
        a = rnd.randrange(16)
        pipe.set_inputs(a=a)
        assert pipe.eval()["out"] == out_q
        pipe.tick()
        req = grant = ack = 0
        while (req, grant, ack) != (
            ack & a, (ack & a) | 1, ((ack & a) | 1) & 7
        ):
            req = ack & a
            grant = req | 1
            ack = grant & 7
        out_q = req
