"""The generated calling convention keeps the kernel off CPython's slow
paths: an entry point with more ports than ``packs`` allows takes them
as one tuple, and no call or right-hand tuple display the generator
writes holds more than ``STACK_ITEMS`` items.  Nor does the generator
write a shape CPython cannot specialise or that does work for nothing:
a child's entry point called as a method off ``.code`` (a method load
that never specialises: the entry is an instance attribute), a ``cycle``
committing its registers through a slice (a slice read and a slice
store), or a ``1 if ... else 0`` / ``0 if ... else 1`` whose value is
only tested.  Nor does a ``cycle`` read a register's slot after it may
have written it (the edge plan, ``callplan.edge_plan``).

A bytecode and source census over every design the repo ships (both
bodies of each function of a sanitized build, and the dispatch that
picks between them), and a synthetic
design past every line the meshes do not reach (a 40-input child, a
35-input top, a 98-name stash, a 31-input comb loop carrying 35 locals),
checked against the inlining baseline through a hot reload across the
line, snapshot / restore and ``copyPipe``.
"""

from __future__ import annotations

import ast
import dis
import random
import re
from pathlib import Path

import pytest

from repro.baseline import BaselineCompiler
from repro.codegen.build import OPT_LEVELS, BuildConfig
from repro.codegen.module import STACK_ITEMS, packs
from repro.hdl import elaborate, parse
from repro.live.session import LiveSession
from repro.passes import compile_netlist
from repro.riscv.pgas import build_pgas_source, mesh_top_name
from repro.sanitize.runtime import SanitizerRuntime
from repro.sim import Pipe
from repro.sim.testbench import CallbackTestbench
from tests.test_cycle_kernel import _registers_by_path
from tests.test_sequential_semantics import IN_PLACE

DESIGNS = Path(__file__).resolve().parent.parent / "examples" / "designs"
# CALL_FUNCTION_EX: a call with more than 30 arguments (or *args);
# LIST_APPEND + LIST_TO_TUPLE: a tuple display of more than 30 items.
SLOW_PATHS = {"CALL_FUNCTION_EX", "LIST_APPEND", "LIST_TO_TUPLE"}


def _designs():
    for n in (2, 4):
        yield f"mesh{n}x{n}", build_pgas_source(n), mesh_top_name(n)
    for path in sorted(DESIGNS.glob("*.v")):
        source = path.read_text()
        for top in parse(source).modules:
            yield f"{path.name}:{top}", source, top


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _code_objects(const)


def _slow_paths(library):
    """``{(module key, function): {opcode: count}}`` of every slow-path
    opcode in the compiled sources of ``library``."""
    found = {}
    for key, module in library.items():
        for code in _code_objects(compile(module.source, key, "exec")):
            ops = [ins.opname for ins in dis.get_instructions(code)
                   if ins.opname in SLOW_PATHS]
            if ops:
                found[key, code.co_name] = {op: ops.count(op) for op in set(ops)}
    return found


def _tested(tree):
    """The expressions of ``tree`` whose value Python only tests: the
    test of an ``if``, ``while`` or conditional expression, and within
    a tested expression the operands of ``and`` / ``or`` / ``not`` and
    the arms of a conditional expression."""
    stack = [node.test for node in ast.walk(tree)
             if isinstance(node, (ast.If, ast.While, ast.IfExp))]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.BoolOp):
            stack.extend(node.values)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            stack.append(node.operand)
        elif isinstance(node, ast.IfExp):
            stack.extend((node.body, node.orelse))


def _is_bit(node):
    """``1 if ... else 0`` or ``0 if ... else 1``."""
    return (isinstance(node, ast.IfExp)
            and isinstance(node.body, ast.Constant)
            and isinstance(node.orelse, ast.Constant)
            and {node.body.value, node.orelse.value} == {0, 1})


def _slow_shapes(library):
    """``{(module key, shape): count}`` of the source shapes the kernel
    must not run (the module docstring), read from each module's AST so
    the census holds on every CPython whatever its opcodes are called:
    ``method`` (a call whose callee is ``<x>.<attr>.<entry>``),
    ``slice_commit`` (a slice store in ``cycle``) and ``tested_bit``."""
    found = {}
    for key, module in library.items():
        tree = ast.parse(module.source)
        shapes = [
            "method" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute)
        ]
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name in ("cycle", "_pz_cycle"):
                shapes += [
                    "slice_commit" for node in ast.walk(fn)
                    if isinstance(node, ast.Assign) and any(
                        isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Slice)
                        for target in node.targets)
                ]
        shapes += ["tested_bit" for node in _tested(tree) if _is_bit(node)]
        for shape in shapes:
            found[key, shape] = found.get((key, shape), 0) + 1
    return found


def _state_slots(fn, ctx=ast.Load):
    """The constant indices of ``s`` that ``fn`` reads (or, with
    ``ast.Store``, writes), in the order Python evaluates them."""
    return [node.slice.value for node in ast.walk(fn)
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ctx)
            and isinstance(node.value, ast.Name) and node.value.id == "s"
            and isinstance(node.slice, ast.Constant)]


def _two_bodies(library):
    """``{(module key, function)}`` of every function with two bodies
    (a sanitized build's), each checked against the dispatch rule: the
    poison-free body keeps the function's name and parameters, and its
    first statement hands them all to the hooked body, ``_pz_<name>``,
    while any poison bitmap the hooked body reads is nonzero (the
    register one, then each memory's word bitmap) -- and the poison-free
    body tests none of them."""
    found = set()
    for key, module in library.items():
        tree = ast.parse(module.source)
        fns = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
        bitmaps = {module.layout.reg_poison_slot} | {
            spec.poison_slot for spec in module.mem_specs.values()}
        for name, hooked in fns.items():
            if not name.startswith("_pz_"):
                continue
            free = fns[name[len("_pz_"):]]
            params = [arg.arg for arg in free.args.args]
            assert [arg.arg for arg in hooked.args.args] == params, (key, name)
            tested = sorted(bitmaps.intersection(_state_slots(hooked)))
            assert tested, (key, name)
            assert ast.unparse(free.body[0]) == (
                f"if {' or '.join(f's[{slot}]' for slot in tested)}:\n"
                f"    return {name}({', '.join(params)})"), (key, name)
            # Past the dispatch, a bitmap is read only for a hook's call
            # (a memory index out of bounds).
            rest = ast.Module(body=free.body[1:], type_ignores=[])
            for node in ast.walk(rest):
                if isinstance(node, ast.Call) and ast.unparse(node.func).startswith("_san."):
                    node.args = []
            assert bitmaps.isdisjoint(_state_slots(rest)), (key, name)
            found.add((key, free.name))
    return found


def _slot(node):
    """The constant index of ``s`` that ``node`` reads, or None."""
    if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "s"
            and isinstance(node.slice, ast.Constant)):
        return node.slice.value
    return None


class _EdgeReads(ast.NodeVisitor):
    """Walks a generated ``cycle`` along every path (an ``if``'s arms
    apart, a loop's body twice), noting each register slot read once
    some path may have written it.  A partial write's other bits are the
    value written so far, not the old one: in a statement writing
    ``s[i]``, the ``s[i]`` of ``s[i] & <hole> | ...`` is not a read."""

    def __init__(self, num_regs):
        self.num_regs = num_regs
        self.written = frozenset()
        self.clashes = set()

    def _load(self, node, merged=frozenset()):
        for sub in ast.walk(node):
            if _slot(sub) in self.written and id(sub) not in merged:
                self.clashes.add(_slot(sub))

    def _stmts(self, stmts):
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                self._load(stmt.test)
                before = self.written
                self._stmts(stmt.body)
                after, self.written = self.written, before
                self._stmts(stmt.orelse)
                self.written |= after
            elif isinstance(stmt, (ast.For, ast.While)):
                self._load(stmt.iter if isinstance(stmt, ast.For) else stmt.test)
                self._stmts(stmt.body + stmt.body + stmt.orelse)
            else:
                stores = {slot for slot in _state_slots(stmt, ast.Store) if slot < self.num_regs}
                self._load(stmt, {
                    id(node.left.left) for node in ast.walk(stmt)
                    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr)
                    and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.BitAnd)
                    and _slot(node.left.left) in stores})
                self.written |= stores


@pytest.mark.parametrize("sanitize", [False, True], ids=["clean", "sanitized"])
def test_no_register_written_in_place_is_read_after_its_write(sanitize):
    """The census of the edge plan: every register has one slot, and in
    either body of ``cycle`` no path reads a register's slot once it may
    have been written.  A register whose old value ``cycle`` reads after
    a write is bound to ``r_<name>`` before any write; none in the
    shipped designs is (rv_ex's 32 through the order of its statements),
    and ``IN_PLACE`` has five.  Past the registers, ``cycle`` names only
    the layout's own slots (the stash, the memories, the sanitizer's),
    and writes only the poison bitmaps of those."""
    for name, source, top in [*_designs(), ("in_place", IN_PLACE, "m")]:
        netlist = elaborate(parse(source), top)
        for opt in OPT_LEVELS:
            runtime = SanitizerRuntime("report") if sanitize else None
            library = compile_netlist(netlist, BuildConfig(sanitize=sanitize, opt=opt), runtime)
            for key, module in library.items():
                nr, layout = module.num_regs, module.layout
                assert layout.stash_slot == nr, (name, key)
                poison = {layout.reg_poison_slot} | {
                    spec.poison_slot for spec in module.mem_specs.values()}
                for fn in ast.parse(module.source).body:
                    if not (isinstance(fn, ast.FunctionDef)
                            and fn.name in ("cycle", "_pz_cycle")):
                        continue
                    assert max(_state_slots(fn), default=0) < layout.state_size, (name, key)
                    assert {slot for slot in _state_slots(fn, ast.Store)
                            if slot >= nr} <= poison, (name, key, fn.name)
                    walk = _EdgeReads(nr)
                    walk._stmts(fn.body)
                    assert walk.clashes == set(), (name, key, fn.name)
                    # The old values are bound before the first write.
                    binds = [stmt for stmt in fn.body if isinstance(stmt, ast.Assign)
                             and getattr(stmt.targets[0], "id", "").startswith("r_")]
                    first = min((i for i, stmt in enumerate(fn.body)
                                 if _state_slots(stmt, ast.Store)), default=len(fn.body))
                    assert all(fn.body.index(bind) < first for bind in binds), (name, key)
                    assert len(binds) == (5 if (name, key) == ("in_place", "m") else 0), (
                        name, key, fn.name)
        if name.startswith("mesh"):
            node = {module.name: module.num_regs for module in library.values()}
            assert sum(node.values()) - node["pgas_mesh_" + name[4:]] == 50
            assert node["rv_ex"] == 32


@pytest.mark.parametrize("sanitize", [False, True], ids=["clean", "sanitized"])
def test_no_generated_code_takes_a_slow_path(sanitize):
    designs = split = 0
    for name, source, top in _designs():
        netlist = elaborate(parse(source), top)
        for opt in OPT_LEVELS:
            runtime = SanitizerRuntime("report") if sanitize else None
            library = compile_netlist(
                netlist, BuildConfig(sanitize=sanitize, opt=opt), runtime
            )
            # Over every code object: both bodies of a sanitized function.
            assert _slow_paths(library) == {}, (name, opt)
            assert _slow_shapes(library) == {}, (name, opt)
            split += len(_two_bodies(library))
        designs += 1
    assert designs >= 8
    assert bool(split) == sanitize


# -- a design past every line ------------------------------------------------

def wide_source(child_ports: int = 38, top_ports: int = 32,
                wires: int = 64, loop_ports: int = 30, locals_: int = 32) -> str:
    """``top`` (``top_ports`` data inputs, ``clk``, ``rst``, ``late``;
    a register of its own) drives ``mid``, whose sequential block reads ``wires`` settled wires
    and the outputs of ``wide`` (``child_ports`` data inputs, all but the
    last four comb, plus ``clk`` and ``late``; ``child_ports - 5`` comb
    outputs): they all cross into ``cycle`` in the stash.  ``loopy`` is a comb loop (one
    pass settles it) with ``loop_ports`` inputs through ``locals_`` more
    comb locals, all on the loop, which its settle loop compares
    between passes."""
    xs = [f"x{i}" for i in range(top_ports)]
    ins = ", ".join(f"input [7:0] {x}" for x in xs)
    outs = max(child_ports - 5, 1)
    a = [f"a{i}" for i in range(child_ports)]
    y = [f"y{i}" for i in range(outs)]
    b = [f"b{i}" for i in range(loop_ports)]
    c = [f"c{i}" for i in range(locals_)]
    w = [f"w{i}" for i in range(wires)]
    lines = [
        "module loopy (input clk, "
        + ", ".join(f"input [7:0] {n}" for n in b) + ", output [7:0] out);",
        "  wire [7:0] u;", "  wire [7:0] v;", "  reg [7:0] seen;",
        *(f"  wire [7:0] {n};" for n in c),
        f"  assign u = (({' ^ '.join(c)}) & 8'd0) | b0;", "  assign v = u;",
        *(f"  assign {n} = v + {b[i % loop_ports]};" for i, n in enumerate(c)),
        f"  assign out = {' ^ '.join(c)} ^ seen;",
        "  always @(posedge clk) seen <= v;",
        "endmodule",
        "module wide (input clk, input [7:0] late, "
        + ", ".join(f"input [7:0] {n}" for n in a) + ", "
        + ", ".join(f"output [7:0] {n}" for n in y) + ", output [7:0] acc);",
        "  reg [7:0] acc;",
        *(f"  assign {n} = {a[i]} ^ {a[(i + 1) % child_ports]} ^ acc;"
          for i, n in enumerate(y)),
        f"  always @(posedge clk) acc <= acc + {' + '.join(a)} + late;",
        "endmodule",
        "module mid (input clk, input rst, input [7:0] late, "
        + ins + ", output [7:0] sum, output [7:0] r, output [7:0] o);",
        "  reg [7:0] r;",
        *(f"  wire [7:0] {n};" for n in w + y),
        "  wire [7:0] acc;",
        *(f"  assign {n} = {xs[i % top_ports]} + 8'd{i};" for i, n in enumerate(w)),
        "  wide u (.clk(clk), .late(late), "
        + ", ".join(f".{n}({w[i % wires]} ^ {xs[(i + 3) % top_ports]})"
                    for i, n in enumerate(a))
        + ", " + ", ".join(f".{n}({n})" for n in y) + ", .acc(acc));",
        "  loopy l (.clk(clk), "
        + ", ".join(f".{n}({xs[i % top_ports]} + late)" for i, n in enumerate(b))
        + ", .out(o));",
        f"  assign sum = {' ^ '.join(w)} ^ y0;",
        "  always @(posedge clk) r <= rst ? 8'd0 : "
        f"r + ({' ^ '.join(w + y)}) + acc + late;",
        "endmodule",
        "module top (input clk, input rst, input [7:0] late, " + ins
        + ", output [7:0] sum, output [7:0] r, output [7:0] o, output [7:0] q);",
        "  reg [7:0] q;",
        "  mid m (.clk(clk), .rst(rst), .late(late), "
        + ", ".join(f".{x}({x})" for x in xs)
        + ", .sum(sum), .r(r), .o(o));",
        "  always @(posedge clk) q <= q + (sum ^ o);",
        "endmodule",
    ]
    return "\n".join(lines) + "\n"


WIDE = wide_source()


def _stimulus(seed: int, cycles: int):
    rnd = random.Random(seed)
    return [
        {"rst": int(rnd.random() < 0.1), "late": rnd.randrange(256),
         **{f"x{i}": rnd.randrange(256) for i in range(32)}}
        for _ in range(cycles)
    ]


def _inline(source: str) -> Pipe:
    netlist = elaborate(parse(source), "top")
    return BaselineCompiler(mode="inline").compile(netlist).make_pipe()


def _run_together(pipes, stimulus):
    for inputs in stimulus:
        outputs = []
        for pipe in pipes:
            pipe.set_inputs(**inputs)
            outputs.append(pipe.eval())
            pipe.tick()
        assert all(out == outputs[0] for out in outputs), pipes[0].cycle


def test_the_design_crosses_every_line():
    netlist = elaborate(parse(WIDE), "top")
    library = compile_netlist(netlist)
    entries = {key: (code.eval_out_packed, code.cycle_packed)
               for key, code in library.items()}
    # wide: 34 comb ports, 40 inputs; top and mid: 33 comb ports, 35
    # inputs; loopy: 30 comb ports (not clk), 31 inputs.
    assert entries == {key: (True, True) for key in library}
    assert len(library["wide"].comb_input_ports) > STACK_ITEMS  # pieces
    assert len(library["wide"].outputs) > STACK_ITEMS  # _ret in pieces
    assert len(library["loopy"].comb_input_ports) == 30
    [loop] = netlist.modules["loopy"].loops
    assert len(loop) == 34
    stash = re.search(r"^    s\[\d+\] = (\(\(.*)$", library["mid"].source, re.M)
    assert len(re.findall(r"\bv_\w+", stash[1])) > 2 * STACK_ITEMS
    # loopy's settle loop compares every local on the loop, in pieces;
    # its sequential block reads v alone, which is all its stash holds.
    compare = re.search(r"^\s+_was = (\(\(.*\))$", library["loopy"].source, re.M)
    assert len(re.findall(r"\bv_\w+", compare[1])) > STACK_ITEMS
    assert re.search(r"^    s\[\d+\] = \(v_v, \)$", library["loopy"].source, re.M)
    assert _slow_paths(library) == {}
    assert _slow_shapes(library) == {}
    assert packs(["p"] * (STACK_ITEMS - 1)) and not packs(["p"] * (STACK_ITEMS - 2))


@pytest.mark.parametrize("build", [
    BuildConfig(), BuildConfig(opt="full"), BuildConfig(sanitize=True),
], ids=["default", "opt=full", "sanitize=report"])
def test_agrees_with_the_inline_baseline(build):
    runtime = SanitizerRuntime("report") if build.sanitize else None
    netlist = elaborate(parse(WIDE), "top")
    shared = Pipe(netlist.top, compile_netlist(netlist, build, runtime))
    inline = _inline(WIDE)
    for seed in range(3):
        _run_together([shared, inline], _stimulus(seed, 30))
    assert _registers_by_path(shared) == inline.top.registers()
    assert runtime is None or runtime.findings == []


def test_snapshot_restore_and_copy_of_a_packed_top():
    netlist = elaborate(parse(WIDE), "top")
    pipe = Pipe(netlist.top, compile_netlist(netlist))
    _run_together([pipe], _stimulus(5, 20))
    snap = pipe.snapshot()
    clone = pipe.copy()
    later = _stimulus(6, 20)
    reference = _inline(WIDE)
    _run_together([reference], _stimulus(5, 20))
    _run_together([pipe, clone, reference], later)
    pipe.restore(snap)
    assert pipe.cycle == 20
    fresh = _inline(WIDE)
    _run_together([fresh], _stimulus(5, 20))
    _run_together([pipe, fresh], later)
    assert _registers_by_path(pipe) == fresh.top.registers()
    # Power-on state under the inputs last driven: new state lists, the
    # same arguments.
    pipe.reset_state()
    fresh = _inline(WIDE)
    _run_together([pipe, fresh], later[-1:] + _stimulus(7, 10))
    assert _registers_by_path(pipe) == fresh.top.registers()


def test_hot_reload_moves_a_child_across_the_line():
    """An edit that adds ports to ``wide`` takes it from positional
    (22 comb ports, 28 inputs) to packed (30, 36); the revert takes it
    back.  Each time the session replays from power-on, so its pipe
    must read what the inline baseline of that text reads."""
    narrow = wide_source(child_ports=26)
    wider = wide_source(child_ports=34)
    stimulus = _stimulus(9, 40)

    def drive(pipe):
        pipe.set_inputs(**stimulus[pipe.cycle % len(stimulus)])

    with LiveSession(narrow, checkpoint_interval=1000) as session:
        tb = session.load_testbench(CallbackTestbench("wide", drive=drive))
        pipe = session.inst_pipe("p0", session.stage_handle_for("top"))
        assert not pipe.library["wide"].cycle_packed
        session.run(tb, "p0", 40)
        for source, packed in ((wider, True), (narrow, False)):
            session.apply_change(source)  # the revert: a held compile
            pipe = session.pipe("p0")
            assert pipe.library["wide"].cycle_packed is packed
            assert pipe.library["wide"].eval_out_packed is packed
            reference = _inline(source)
            _run_together([reference], stimulus)
            assert pipe.cycle == 40
            assert pipe.outputs() == reference.outputs()
            assert _registers_by_path(pipe) == reference.top.registers()
            name = f"copy{int(packed)}"
            copy = session.copy_pipe(name, "p0")
            session.run(tb, name, 10)  # cycles 40..49 read stimulus[:10]
            _run_together([reference], stimulus[:10])
            assert copy.outputs() == reference.outputs()
            assert _registers_by_path(copy) == reference.top.registers()
