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
from repro.codegen.sinking import MAX_COPIES, MAX_DEPTH, exclusive
from repro.hdl import elaborate, parse
from repro.passes import compile_netlist
from repro.passes.dataflow import FactEval
from repro.sanitize.runtime import SanitizerRuntime
from repro.sim import Pipe
from tests import test_schedule_dataflow
from tests.conftest import free_source, hooked_source

HERE = os.path.dirname(os.path.abspath(__file__))
RING_V = os.path.join(HERE, "..", "examples", "designs", "ring.v")


def _libraries(netlist):
    yield "default", compile_netlist(netlist)
    yield "sanitize=report, opt=full", compile_netlist(
        netlist, BuildConfig(sanitize=True, opt="full"),
        sanitize_runtime=SanitizerRuntime("report"),
    )


def _binds(name, text):
    """Whether ``text`` computes local ``v_<name>``: a plain assignment
    or one name on the left of the unpack of a child's ``eval_out`` or
    part (the unpack of the stash re-reads a value, it does not compute
    one)."""
    return re.search(
        rf"^\s*(?:v_{name} = |\((?:\w+, )*v_{name}, (?:\w+, )*\) = "
        r"\(_e := _\w+\.code\.eval_\w+\)\()", text, re.M
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
                assert code.ir.loops == []
                lines += code.source.count("\n")
                # Each body of a sanitized function alike (see conftest).
                for source in {hooked_source(code.source), free_source(code.source)}:
                    # eval_out and the parts a parent calls, then cycle.
                    eval_out, cycle = source.split("def cycle")
                    for name in _comb_defines(code.ir):
                        where = [_binds(name, part) for part in (eval_out, cycle)]
                        # Neither: dead logic the optimizer dropped, or a
                        # value written at its reads, which has no local.
                        assert where != [True, True], (flavour, key, name)
                        if flavour == "default" and not any(where):
                            assert not re.search(rf"\bv_{name}\b", code.source), (
                                key, name)
                    if key == "rv_ex":  # the ALU: in eval_out, nowhere else
                        assert _binds("alu_full", eval_out)
                        assert not _binds("alu_full", cycle)
            if flavour == "default":
                assert lines <= 1000  # 1352 with eval_out/eval_seq/tick

    def test_each_settled_entry_once_per_instance_per_cycle(
        self, pgas2_netlist_library
    ):
        _, netlist, _ = pgas2_netlist_library
        library = compile_netlist(netlist)  # private: it gets patched
        entries: Counter = Counter()
        for key, code in library.items():
            for name in ("eval_out_fn", *code.parts_fn):
                def counted(*args, _inner=getattr(code, name), _at=(key, name)):
                    entries[_at] += 1
                    return _inner(*args)

                setattr(code, name, counted)  # calls from a parent or the pipe
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
            (key, name): calls / (instances[key] * cycles)
            for (key, name), calls in entries.items()
        }
        # rv_mem's d_rdata path crosses the core boundary twice by
        # design (settled outputs first, then the load value), and a
        # ring_stop's register outputs are bound before its arguments
        # exist: each is called in two parts, each part once.
        assert per_cycle == {
            (key, name): 1.0 for key, code in library.items()
            for name in code.parts_fn or ("eval_out_fn",)
        }
        assert {key for key, code in library.items() if code.parts_fn} == {
            "rv_mem", "ring_stop"}


def test_cycle_reads_what_eval_out_left_with_the_final_arguments():
    """The contract that makes the stash safe: the caller runs
    ``eval_out`` with the final arguments after the last change to the
    state and before ``cycle``, which unpacks what it left."""
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
    assert code.eval_out_fn(state, (), 5) == (5,)  # the last call counts
    code.cycle_fn(state, (), 0, 1, 5)  # clk, en, a
    assert state[code.reg_slots["q"]] == 5
    assert code.eval_out_fn(state, (), 1) == (6,)
    q = code.reg_slots["q"]
    state[q] = state[q + code.num_regs] = 9  # a change: settle again
    assert code.eval_out_fn(state, (), 1) == (10,)
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

# A comb loop through a child (w -> d -> y -> w) that the partition
# splits: the child's z reads only x and settles in eval_out, the rest
# of the loop reads ``late`` and settles in cycle.
SPLIT_LOOP = """
module shift (input [7:0] d, input [7:0] k, output [7:0] y, output [7:0] z);
  assign y = {d[6:0], 1'b0} & k;
  assign z = k + 8'd1;
endmodule
module top (input clk, input rst, input [7:0] x, input [7:0] late,
            output [7:0] o, output [7:0] q);
  wire [7:0] w;
  wire [7:0] y;
  wire [7:0] z;
  reg [7:0] r;
  assign w = y | r | late;
  shift u (.d(w), .k(x), .y(y), .z(z));
  assign o = z;
  assign q = r;
  always @(posedge clk) r <= rst ? 8'd1 : w + 8'd1;
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
    THREE_LEVEL, MIXED_OUTPUTS, SIBLINGS, EARLY_BIND_RING, SPLIT_LOOP,
], ids=["three-level", "mixed-outputs", "siblings", "early-bind-ring", "split-loop"])
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
    assert top.early_bind and top.loops == []

    netlist, library = compile_design(THREE_LEVEL, "top")
    assert netlist.modules["mid"].comb_input_ports == ("x",)
    eval_out, cycle = library["mid"].source.split("def cycle")
    assert _binds("req", eval_out) and _binds("value", cycle)
    # The leaf in two parts: eval_out's takes addr, cycle's adds data.
    assert ".eval_n_1)(" in eval_out and ".eval_1_3)(" in cycle
    assert "i_late)" in cycle  # the leaf's data port

    _, library = compile_design(MIXED_OUTPUTS, "top")
    eval_out, cycle = library["top"].source.split("def cycle")
    assert _binds("o1", eval_out) and not _binds("o2", eval_out)
    assert _binds("o2", cycle) and not _binds("o1", cycle)
    # The child in two parts: o1's in eval_out, o2's (late) in cycle.
    assert ".eval_n_1)(" in eval_out and ".eval_1_3)(" in cycle

    _, library = compile_design(SIBLINGS, "top")
    eval_out, cycle = library["top"].source.split("def cycle")
    # qa is bound from a's state before a's cycle runs.
    assert "v_qa = ch[0].state" in eval_out and "v_qa, " in cycle

    netlist, library = compile_design(SPLIT_LOOP, "top")
    assert netlist.top_module.loops == [(("assign", 0), ("inst", 0))]
    eval_out, cycle = library["top"].source.split("def cycle")
    assert _binds("z", eval_out) and _binds("w", cycle) and _binds("y", cycle)
    # Only cycle's part reads a local it binds (y, w): eval_out's child
    # call binds z, which nothing in that part reads, so it runs once.
    assert "for _pass" in cycle and "for _pass" not in eval_out


# -- the calling convention: the caller masks, and only where it must ---------

# Every way an argument can be statically wider than its port, under a
# third level: a 64-bit sum and a 16-bit concatenation into 8-bit comb
# ports, an unsized (32-bit) literal into a 1-bit port, an 8-bit input
# into a 4-bit *sequential-only* port, and an 8-bit sum into the 4-bit
# port of a comb-loop child (a loop that takes up to five passes to
# settle: each carries a bit of ``seen`` one place up; outside it, a
# constant wire and a dead assign for the optimizer).  A register-free
# loop child reading its output is pure, so opt=full skips its
# ``cycle``.  Every other connection is a bare name of the port's own
# width.
NARROWING = """
module loopy (input clk, input [3:0] a, output [3:0] out);
  wire [3:0] u;
  wire [3:0] v;
  wire [3:0] k;
  wire [3:0] unused;
  reg [3:0] seen;
  assign k = 4'd6;
  assign u = {v[2:0], 1'b0} & a;
  assign v = u | seen;
  assign unused = v + a;
  assign out = v ^ seen ^ k;
  always @(posedge clk) seen <= v + 4'd1;
endmodule
module ploop (input [3:0] a, output [3:0] out);
  wire [3:0] u;
  wire [3:0] v;
  assign u = {v[2:0], 1'b0} & a;
  assign v = u | {3'd0, a[3]};
  assign out = v;
endmodule
module leaf (input clk, input en, input [7:0] a, input [7:0] b, input [3:0] k,
             output [7:0] y, output [7:0] acc);
  reg [7:0] acc;
  assign y = a ^ b;
  always @(posedge clk) if (en) acc <= acc + a + k;
endmodule
module mid (input clk, input rst, input [63:0] w, input [7:0] x,
            input [7:0] late, output [7:0] y, output [7:0] acc,
            output [3:0] out, output [3:0] pout);
  wire [7:0] ly;
  reg [7:0] hold;
  leaf u (.clk(clk), .en(1), .a(w + {56'd0, x}), .b({x, hold}), .k(late),
          .y(ly), .acc(acc));
  loopy l (.clk(clk), .a(x + late), .out(out));
  ploop p (.a(out), .out(pout));
  assign y = ly;
  always @(posedge clk) hold <= rst ? 8'd0 : hold + ly + {4'd0, pout};
endmodule
module top (input clk, input rst, input [63:0] w, input [7:0] x,
            input [7:0] late, output [7:0] y, output [7:0] acc,
            output [3:0] out, output [3:0] pout);
  mid m (.clk(clk), .rst(rst), .w(w), .x(x), .late(late), .y(y), .acc(acc),
         .out(out), .pout(pout));
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
            r"\(_e := (_c\d+)\.code\.(eval_out_fn|cycle_fn|eval_\w+)\)\(\1\.state, "
            r"\1\.children(.*)\)$", line,
        )
        if not call:
            continue
        inst = refs[call[1]]
        child = netlist.modules[inst.child_key]
        ports = child.inputs
        if call[2] == "eval_out_fn":
            ports = child.comb_input_ports
        elif call[2] != "cycle_fn":  # a part: the ports its name's mask sets
            mask = int(call[2].rpartition("_")[2], 16)
            ports = [p for j, p in enumerate(child.comb_input_ports) if mask >> j & 1]
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
    assert netlist.modules["loopy"].loops == [(("assign", 1), ("assign", 2))]
    assert netlist.modules["ploop"].loops == [(("assign", 0), ("assign", 1))]
    assert netlist.modules["loopy"].comb_input_ports == ("a",)  # not clk
    assert netlist.modules["leaf"].comb_input_ports == ("a", "b")  # not k
    library = compile_netlist(netlist, build, sanitize_runtime=runtime)
    # The optimizer works around the loop: k folds.  Unused is read by
    # nothing, so no build writes it.
    loopy = library["loopy"].source
    assert ("v_k" in loopy) == (build.opt == "none")
    assert "v_unused" not in loopy
    assert "v_u = " in loopy and "v_v = " in loopy
    # mid's cycle does not call the pure loop child (ch[2]): no build does.
    mid_cycle = library["mid"].source.split("def cycle")[1]
    assert "ch[2]" not in mid_cycle
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
        library = compile_netlist(netlist, BuildConfig(opt=opt))
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
                    assert arg.endswith(f" & {mask}"), (key, inst, port, arg)
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
    """No callee-side input mask, no register commit (a register is
    written in its one slot), child results bound by unpacking: in both
    flavours.
    On the PGAS mesh no connection narrows, so no caller masks either."""
    _, netlist, _ = pgas2_netlist_library
    assert _narrowing(netlist) == {}
    for flavour, library in _libraries(netlist):
        for key, code in library.items():
            assert not re.search(r"\bi_\w+ &=", code.source), (flavour, key)
            assert not re.search(r"_r\d+\[", code.source), (flavour, key)
            _, cycle = code.source.split("def cycle")
            nr = code.num_regs
            copies = [(int(to), int(src)) for to, src in re.findall(
                r"^\s*s\[(\d+)\] = s\[(\d+)\]$", cycle, re.M)
                      if int(to) < nr <= int(src)]
            assert copies == [], (flavour, key)
            # (The commit's ``del`` sits inside its ``if _pw_<mem>:``.)
            assert not re.search(r"^    del _pw_", cycle, re.M), (flavour, key)


def test_comb_loop_matches_a_reference_model():
    """Only a register reads the loop, so ``cycle`` settles it and
    ``eval_out`` never sees it.  Two oracles: the loop's least fixed
    point, computed the way the design reads, and the flat compiler,
    whose ``eval`` settles the same loop the same way."""
    with open(RING_V) as fh:
        source = fh.read()
    netlist, library = compile_design(source, "ring")
    assert netlist.top_module.loops == [
        (("assign", 0), ("assign", 1), ("assign", 2))
    ]
    eval_out, cycle = library["ring"].source.split("def cycle")
    assert "_pass" in cycle and "_pass" not in eval_out
    pipe = Pipe(netlist.top, library)
    flat_code = compile_flat(elaborate(parse(source), "ring"))
    flat = Pipe(flat_code.key, {flat_code.key: flat_code})
    out_q = 0
    rnd = random.Random(7)
    for _ in range(60):
        a = rnd.randrange(16)
        pipe.set_inputs(a=a)
        flat.set_inputs(a=a)
        assert pipe.eval()["out"] == flat.eval()["out"] == out_q
        pipe.tick()
        flat.tick()
        req = grant = ack = 0
        while (req, grant, ack) != (
            ack & a, (ack & a) | 1, ((ack & a) | 1) & 7
        ):
            req = ack & a
            grant = req | 1
            ack = grant & 7
        out_q = req


# -- mux shadowing: a value computed only on the paths that read it -----------


def test_exclusive_paths_part_at_one_guard():
    assert exclusive(((0, 0),), ((0, 1),))
    assert exclusive(((0, 0), (1, 0)), ((0, 1), (2, 1)))
    assert not exclusive(((0, 0),), ((0, 0),))  # one path: read twice
    assert not exclusive(((0, 0),), ((1, 0),))  # two guards in a row
    assert not exclusive(((0, 0),), ((0, 0), (1, 1)))  # nested in it
    assert not exclusive((), ((0, 1),))  # unguarded


def test_the_mesh_computes_its_shadowed_values_where_they_are_read(
        pgas2_netlist_library):
    """The decoder's immediates go into the decode arms, the load
    extension chain under its selects, the branch compares into their
    ``case`` arms; ports, stashed values and child arguments stay.
    Sanitized, a value whose code reads a register keeps its hook where
    it was, and a pure one still moves."""
    _, netlist, _ = pgas2_netlist_library
    (_, clean), (_, sanitized) = _libraries(netlist)
    moved = {
        "rv_id": ["imm_i", "imm_s", "imm_b", "imm_u", "imm_j", "rf_rs1"],
        "rv_mem": ["load_value", "load_b", "load_h", "load_w", "sb"],
        "rv_ex": ["cmp_eq", "cmp_lt", "cmp_ltu", "a32", "sh64", "sh32"],
        "rv_memory#(WORDS=4096)": ["fetch_dword"],  # both arms of a ?:
    }
    kept = {
        "rv_id": ["rs1", "rs1_val", "imm"],  # ports
        "rv_mem": ["raw", "w_value"],  # read twice on a path; a port
        "rv_ex": ["op_a", "result"],  # stashed for cycle
        "rv_core": ["load_use"],  # a child argument
    }
    for key, names in moved.items():
        for name in names:
            assert not re.search(rf"\bv_{name}\b", clean[key].source), (
                key, name)
    for key, names in kept.items():
        for name in names:
            assert f"v_{name} = " in clean[key].source, (key, name)
    assert "v_imm_i = " in sanitized["rv_id"].source  # reads a register
    assert "v_load_value = " not in sanitized["rv_mem"].source  # pure


def _chain(length: int, readers: int) -> str:
    """``c0 .. c<length>``, each read only in a ``?:`` arm of the next;
    and ``f``, read in ``readers`` exclusive ``case`` arms."""
    wires = "\n".join(f"  wire [7:0] c{i};" for i in range(length + 1))
    links = "\n".join(
        f"  assign c{i} = s[{i % 8}] ? c{i - 1} + 8'd{i} : a;"
        for i in range(1, length + 1)
    )
    arms = "\n".join(f"      8'd{i}: r = f ^ 8'd{i};" for i in range(readers))
    return f"""
module top (input clk, input [7:0] a, input [7:0] s, output [7:0] y,
            output [7:0] z);
{wires}
  wire [7:0] f;
  reg [7:0] r;
  assign c0 = a ^ 8'd5;
{links}
  assign f = a + s;
  always @(*) begin
    case (s)
{arms}
      default: r = 8'd0;
    endcase
  end
  assign y = c{length};
  assign z = r;
endmodule
"""


@pytest.mark.parametrize("length,readers", [
    (MAX_DEPTH, MAX_COPIES), (3 * MAX_DEPTH, MAX_COPIES + 1),
])
def test_a_move_stays_within_its_depth_and_copies(length, readers):
    """A chain moves to at most ``MAX_DEPTH`` values written one inside
    another (every ``MAX_DEPTH + 1``-th link stays, and the output), and
    a value is written at most ``MAX_COPIES`` times; past either bound
    it stays at its schedule position.  Either way the shared compiler
    agrees with the flat one."""
    source = _chain(length, readers)
    netlist, library = compile_design(source, "top")
    code = library["top"].source
    assert set(re.findall(r"^\s*v_(c\d+) = ", code, re.M)) == {
        f"c{i}" for i in [*range(MAX_DEPTH, length, MAX_DEPTH + 1), length]
    }
    assert ("v_f = " in code) == (readers > MAX_COPIES)
    shared = Pipe(netlist.top, library)
    flat_code = compile_flat(elaborate(parse(source), "top"))
    flat = Pipe(flat_code.key, {flat_code.key: flat_code})
    rnd = random.Random(length)
    for _ in range(40):
        inputs = {"a": rnd.randrange(256), "s": rnd.randrange(256)}
        shared.set_inputs(**inputs)
        flat.set_inputs(**inputs)
        assert shared.eval() == flat.eval(), inputs
