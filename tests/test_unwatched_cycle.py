"""Differential: a run nobody watches equals the same run watched.

``Pipe.step`` settles the top-level outputs (``Pipe.eval``) before an
edge only for a watcher or an attached trace; otherwise ``Pipe.tick``
settles the top through its ``eval_out`` without building the outputs,
a comb loop's included.  Each case here runs
twice, once with no watcher and once with a watcher that never fires,
and asserts that state, ``cycle``, outputs, sanitizer findings and trace
samples come out the same — including where the run traps or fails to
converge, and where a trace, a hot swap or a sanitized build arrives in
the middle of a run.
"""

from __future__ import annotations

import re

import pytest

from benchmarks.livebench.workloads import boot_testbench, node_images, node_programs
from repro import compile_design
from repro.baseline.compiler import BaselineCompiler
from repro.codegen.build import BuildConfig
from repro.codegen.module import MAX_PASSES
from repro.hdl import elaborate, parse
from repro.hdl.errors import ConvergenceError
from repro.live.hotreload import HotReloader
from repro.live.session import LiveSession
from repro.passes import compile_netlist
from repro.sanitize import SAN_UNINIT, SanitizerError, SanitizerRuntime
from repro.sim import Pipe, VectorTestbench
from repro.sim.testbench import CallbackTestbench
from repro.trace import TraceBuffer, TraceProbe
from tests.conftest import COUNTER_SRC

DOUBLED = COUNTER_SRC.replace("assign sum = a + b;", "assign sum = a + b + b;")

# A child register the top's outputs read combinationally, and a memory.
SAN_SRC = """
module acc (input clk, input rst, input [7:0] d, output [7:0] q);
  reg [7:0] r;
  assign q = r;
  always @(posedge clk) r <= rst ? 8'd0 : r + d;
endmodule

module top (
  input clk,
  input rst,
  input [7:0] d,
  output [7:0] y,
  output [7:0] z
);
  reg [7:0] m [0:3];
  reg [1:0] i;
  wire [7:0] q;
  acc u_acc (.clk(clk), .rst(rst), .d(d), .q(q));
  assign y = q + m[i];
  assign z = q;
  always @(posedge clk) begin
    i <= rst ? 2'd0 : i + 2'd1;
    m[i] <= q;
  end
endmodule
"""

# A comb loop (p <-> q) that takes several passes to settle (each one
# carries a bit of r one place up), feeding a register.
LOOP_SRC = """
module m (input clk, input rst, input [7:0] a, output [7:0] y);
  wire [7:0] p;
  wire [7:0] q;
  reg [7:0] r;
  assign p = {q[6:0], 1'b0} & a;
  assign q = p | r;
  assign y = q;
  always @(posedge clk) r <= rst ? 8'd1 : r + {4'd0, q[7:4]} + 8'd1;
endmodule
"""

# ring.v's shape: the same loop, read only by a register, so it settles
# in ``cycle`` rather than in ``eval_out``.
RING_SRC = LOOP_SRC.replace("assign y = q;", "assign y = r;")

# ... and one that oscillates once ``a`` goes high.
OSCILLATING_SRC = """
module m (input clk, input a, output y);
  wire p;
  reg [3:0] n;
  assign p = a ? !p : 1'b0;
  assign y = p;
  always @(posedge clk) n <= n + 4'd1;
endmodule
"""
OSCILLATING_RING = OSCILLATING_SRC.replace("assign y = p;", "assign y = n[0];").replace(
    "n <= n + 4'd1;", "n <= n + {3'd0, p};")


def never(pipe, outputs):
    return False


def wrapped(source, levels):
    """``source``'s module ``m`` under ``levels`` one-instance wrappers,
    the outermost named ``top``: (source, top)."""
    header = re.search(r"module m \((.*?)\);", source)[1]
    conns = ", ".join(f".{n}({n})" for n in re.findall(r"(\w+)(?:,|$)", header))
    inner = "m"
    for level in range(levels):
        outer = "top" if level == levels - 1 else f"w{level}"
        source += f"module {outer} ({header});\n  {inner} u ({conns});\nendmodule\n"
        inner = outer
    return source, inner


def loop_pipe(source, levels, backend):
    """``m`` of ``source`` at depth ``levels``, built by the shared
    compiler or by the baseline in ``backend`` mode."""
    source, top = wrapped(source, levels)
    if backend == "shared":
        netlist, library = compile_design(source, top)
        return Pipe(netlist.top, library)
    return BaselineCompiler(mode=backend).compile(elaborate(parse(source), top)).make_pipe()


def counter_driver(pipe):
    pipe.set_inputs(rst=int(pipe.cycle < 2))


def state_of(pipe):
    """Every instance's registers, memories and poison bitmaps."""
    rows = []
    for path, inst in pipe.top.walk():
        code, state = inst.code, inst.state
        layout = code.layout
        poison = state[layout.sanitize_base:layout.nw_slot] if code.build.sanitize else []
        rows.append((
            path, code.key, state[:code.num_regs],
            [state[spec.slot] for spec in code.mem_order], poison,
        ))
    return rows


def observe(pipe, runtime=None, trace=None, **extra):
    out = {"cycle": pipe.cycle, "state": state_of(pipe), **extra}
    if runtime is not None:
        out["findings"] = list(runtime.findings)
        out["hits"] = dict(runtime.hits)
    out["outputs"] = dict(pipe.outputs())
    if trace is not None:
        out["trace"] = {name: trace.window(name) for name in trace.names()}
    return out


def unwatched_equals_watched(run):
    """``run(watcher)`` with no watcher and with ``never``; returns the
    (equal) observations."""
    unwatched, watched = run(None), run(never)
    assert unwatched == watched
    return unwatched


def counter_pipe():
    netlist, library = compile_design(COUNTER_SRC, "top")
    return Pipe(netlist.top, library)


def sanitized(source, top, runtime):
    netlist = elaborate(parse(source), top)
    return netlist, compile_netlist(
        netlist, BuildConfig(sanitize=True, san_elide=False),
        sanitize_runtime=runtime,
    )


def poison(inst, reg):
    inst.state[inst.code.layout.reg_poison_slot] |= 1 << inst.code.reg_slots[reg]


def test_the_clean_mesh(pgas2_netlist_library):
    _, netlist, library = pgas2_netlist_library
    images = node_images(node_programs(1, 4))

    def run(watcher):
        pipe = Pipe(netlist.top, library)
        pipe.step(120, driver=boot_testbench(images).drive, watcher=watcher)
        return observe(pipe)

    assert unwatched_equals_watched(run)["cycle"] == 120


@pytest.mark.parametrize("mode", ["report", "trap"])
def test_a_sanitized_build(mode):
    def run(watcher):
        runtime = SanitizerRuntime(mode=mode)
        netlist, library = sanitized(SAN_SRC, "top", runtime)
        pipe = Pipe(netlist.top, library)

        def driver(p):
            p.set_inputs(rst=int(p.cycle < 2), d=3)
            if p.cycle == 6:
                poison(p.find("u_acc"), "r")
                p.invalidate()

        trapped = None
        try:
            pipe.step(12, driver=driver, watcher=watcher)
        except SanitizerError as exc:
            trapped = (exc.kind, exc.signal, pipe.cycle)
            runtime.mode = "report"  # so that reading the outputs goes on
        return observe(pipe, runtime, trapped=trapped)

    seen = unwatched_equals_watched(run)
    assert seen["findings"]
    if mode == "trap":
        # Raised while settling: the cycle it fired in never ticked.
        assert seen["trapped"] == (SAN_UNINIT, "r", 6)
    else:
        assert seen["trapped"] is None and seen["cycle"] == 12


@pytest.mark.parametrize("mode", ["inline", "replicate"])
def test_the_flat_baseline(mode):
    netlist = elaborate(parse(COUNTER_SRC), "top")
    compiled = BaselineCompiler(mode=mode).compile(netlist)

    def run(watcher):
        pipe = compiled.make_pipe()
        pipe.step(20, driver=counter_driver, watcher=watcher)
        return observe(pipe)

    assert unwatched_equals_watched(run)["outputs"] == {"c0": 18, "c1": 54}


DEPTHS = pytest.mark.parametrize("levels", [0, 1, 2], ids=["top", "child", "grandchild"])
BACKENDS = pytest.mark.parametrize("backend", ["shared", "replicate", "inline"])


def loop_inputs(cycle):
    return {"rst": int(cycle < 2), "a": 0xF0 if cycle > 8 else 0xFF}


def loop_reference(cycles, ring=False):
    """``LOOP_SRC``'s ``y`` (``RING_SRC``'s, ``ring``) per cycle under
    :func:`loop_inputs`: the least fixed point of p <-> q, computed the
    way the design reads."""
    r, ys = 0, []
    for cycle in range(cycles):
        a, rst = loop_inputs(cycle)["a"], loop_inputs(cycle)["rst"]
        q = 0
        while q != ((q << 1) & a & 0xFF) | r:
            q = ((q << 1) & a & 0xFF) | r
        ys.append(r if ring else q)
        r = 1 if rst else (r + (q >> 4) + 1) & 0xFF
    return ys


@BACKENDS
@DEPTHS
@pytest.mark.parametrize("ring", [False, True], ids=["output", "register"])
def test_a_comb_loop_settles_at_any_depth(ring, levels, backend):
    """Each module settles its own loop, in ``eval_out`` when an output
    reads it and in ``cycle`` when only a register does, so ``y`` reads
    what bare ``m`` reads, wherever ``m`` sits and whichever compiler
    built it."""
    ys = []

    def run(watcher):
        pipe = loop_pipe(RING_SRC if ring else LOOP_SRC, levels, backend)
        pipe.step(16, driver=lambda p: p.set_inputs(**loop_inputs(p.cycle)),
                  watcher=watcher and (lambda p, out: ys.append(out["y"]) or False))
        return observe(pipe)

    unwatched_equals_watched(run)
    assert ys == loop_reference(16, ring)
    # r steps by 1 + q[7:4]: 17 is a settled q of 255.
    assert ys[:4] == ([0, 1, 1, 17] if ring else [0, 255, 255, 255])


def test_the_loop_settles_where_the_partition_puts_it():
    for source, settles_in in ((LOOP_SRC, "eval_out"), (RING_SRC, "cycle")):
        _, library = compile_design(source, "m")
        eval_out, cycle = library["m"].source.split("def cycle")
        assert ("_pass" in cycle) == (settles_in == "cycle")
        assert ("_pass" in eval_out) == (settles_in == "eval_out")


@DEPTHS
@pytest.mark.parametrize("ring", [False, True], ids=["output", "register"])
def test_a_comb_loop_that_does_not_converge(ring, levels):
    """The loop runs before any sequential block, so the cycle that
    fails leaves state as it was, in ``eval_out`` or in ``cycle``; the
    error names the module."""
    source = OSCILLATING_RING if ring else OSCILLATING_SRC
    netlist, library = compile_design(*wrapped(source, levels))
    assert netlist.modules["m"].loops == [(("assign", 0),)]

    def run(watcher):
        pipe = Pipe(netlist.top, library)
        before = []

        def driver(p):
            p.set_inputs(a=int(p.cycle >= 5))
            if p.cycle == 5:
                before.append(state_of(p))

        with pytest.raises(ConvergenceError) as failed:
            pipe.step(12, driver=driver, watcher=watcher)
        assert str(failed.value) == f"m: comb loop did not settle in {MAX_PASSES} passes"
        assert state_of(pipe) == before[0]
        return {"cycle": pipe.cycle, "state": state_of(pipe)}

    assert unwatched_equals_watched(run)["cycle"] == 5


def test_the_flat_baseline_names_its_loop():
    pipe = loop_pipe(OSCILLATING_SRC, 1, "inline")
    pipe.set_inputs(a=1)
    with pytest.raises(ConvergenceError, match=r"^flat:top: comb loop did not settle"):
        pipe.step(1)


def test_a_vector_testbench():
    vectors = [{"rst": 1}, {"rst": 1}] + [{"rst": 0}] * 5 + [{"rst": 1}, {"rst": 0}]

    def run(watcher):
        pipe = counter_pipe()
        tb = VectorTestbench(vectors=vectors)
        # Its own check records and never stops: the watched run.
        pipe.step(14, driver=tb.drive, watcher=watcher and tb.check)
        return observe(pipe)

    unwatched_equals_watched(run)


def test_run_until():
    watched = counter_pipe()
    assert watched.run_until(lambda p, o: o["c1"] == 21, max_cycles=50,
                             driver=counter_driver)
    unwatched = counter_pipe()
    assert unwatched.step(watched.cycle, driver=counter_driver) == watched.cycle
    assert observe(unwatched) == observe(watched)

    bound = counter_pipe()
    assert not bound.run_until(never, max_cycles=30, driver=counter_driver)
    unwatched = counter_pipe()
    unwatched.step(30, driver=counter_driver)
    assert observe(unwatched) == observe(bound)


def test_a_trace_attached_mid_run():
    def run(watcher):
        pipe = counter_pipe()
        trace = TraceBuffer()

        def driver(p):
            counter_driver(p)
            if p.cycle == 5:
                for signal in ("c0", "u1.count_q"):
                    trace.watch(p, signal)
                p.attach_trace(trace)

        pipe.step(20, driver=driver, watcher=watcher)
        return observe(pipe, trace=trace)

    seen = unwatched_equals_watched(run)
    assert seen["trace"]["c0"][:2] == [[5, 3], [6, 4]]


def test_a_hot_swap_mid_run():
    _, doubled = compile_design(DOUBLED, "top")

    def run(watcher):
        pipe = counter_pipe()

        def driver(p):
            counter_driver(p)
            if p.cycle == 6:
                HotReloader().swap_pipe(p, doubled)

        pipe.step(15, driver=driver, watcher=watcher)
        return observe(pipe)

    unwatched_equals_watched(run)


def test_a_swap_to_a_sanitized_build_mid_run_traps_before_its_edge():
    """A run that began clean and unwatched settles before each edge
    once the sanitized build is in: the trap leaves ``cycle`` be."""

    def run(watcher):
        runtime = SanitizerRuntime(mode="trap")
        _, library = sanitized(SAN_SRC, "top", runtime)
        netlist, clean = compile_design(SAN_SRC, "top")
        pipe = Pipe(netlist.top, clean)

        def driver(p):
            p.set_inputs(rst=int(p.cycle < 2), d=5)
            if p.cycle == 4:
                HotReloader().swap_pipe(p, library)
            if p.cycle == 7:
                poison(p.find("u_acc"), "r")
                p.invalidate()

        with pytest.raises(SanitizerError):
            pipe.step(12, driver=driver, watcher=watcher)
        runtime.mode = "report"
        return observe(pipe, runtime)

    assert unwatched_equals_watched(run)["cycle"] == 7


def test_set_sanitize_and_an_edit_mid_session():
    def run(watcher):
        session = LiveSession(COUNTER_SRC, checkpoint_interval=5)
        tb = session.load_testbench(
            CallbackTestbench("tb", drive=counter_driver, check=watcher)
        )
        session.inst_pipe("p0", session.stage_handle_for("top"))
        session.run(tb, "p0", 12)
        session.set_sanitize("report")
        session.run(tb, "p0", 9)
        report = session.apply_change(DOUBLED)
        session.run(tb, "p0", 7)
        session.set_sanitize("trap")
        session.run(tb, "p0", 4)
        return observe(session.pipe("p0"), session.sanitize_runtime,
                       replayed=report.cycles_replayed)

    seen = unwatched_equals_watched(run)
    assert seen["cycle"] == 32 and seen["replayed"] > 0


def test_only_a_reader_settles_through_eval(
    pgas2_netlist_library, monkeypatch
):
    """What the cases above compare: an unwatched run never calls
    ``Pipe.eval``, whatever the build (``Pipe.tick`` settles the top
    through its ``eval_out``, a comb loop's included); a watcher settles
    through it once per cycle.  A trace takes the output tuple from
    ``tick``, with or without an expression probe that reads
    ``outputs()``."""
    calls = []
    settle = Pipe.eval
    monkeypatch.setattr(Pipe, "eval", lambda self: calls.append(1) or settle(self))

    def evals(pipe, **kwargs):
        calls.clear()
        pipe.step(5, **kwargs)
        return len(calls)

    _, netlist, library = pgas2_netlist_library
    assert evals(Pipe(netlist.top, library)) == 0
    assert evals(Pipe(netlist.top, library), watcher=never) == 5
    traced = counter_pipe()
    settles = []
    code = traced.top.code
    monkeypatch.setattr(code, "eval_out_fn",
                        lambda *a, _f=code.eval_out_fn: settles.append(1) or _f(*a))
    buffer = TraceBuffer()
    traced.attach_trace(buffer)
    buffer.watch(traced, "c0")
    assert evals(traced) == 0 and len(settles) == 5
    buffer.add_probe(TraceProbe("c0+1", 8, lambda p: p.outputs()["c0"] + 1))
    # tick settles through eval once, then the probe reads the memo
    assert evals(traced) == 10 and len(settles) == 10
    assert buffer.window("c0+1") == [[c, v + 1] for c, v in buffer.window("c0")[5:]]
    flat = BaselineCompiler(mode="inline").compile(
        elaborate(parse(COUNTER_SRC), "top")
    )
    assert evals(flat.make_pipe()) == 0
    loop_netlist, loop_library = compile_design(LOOP_SRC, "m")
    assert evals(Pipe(loop_netlist.top, loop_library)) == 0
    san_netlist, san_library = sanitized(SAN_SRC, "top", SanitizerRuntime())
    assert evals(Pipe(san_netlist.top, san_library)) == 0
