"""Shared-module code generation (the LiveSim compilation model).

Each module specialization compiles to exactly one set of functions,
regardless of how many instances exist.  Instances share the code
object and differ only in their state arrays, reproducing the paper's
Fig. 4d: *"Each module is only compiled once, which drastically reduces
the amount of code that needs to be compiled."*

This module is the emitter: it writes to the runtime contract
(:mod:`.module`) the calls the call plan decides (:mod:`.callplan`).

Each combinational unit is emitted once in ``eval_out`` or ``cycle``
(and again in each part that computes it), and runs only on a path that
reads it; one read nowhere (a pure continuous assign with no
sanitizer hook) is not emitted.  A continuous assign every
read of which sits in a guarded position of its function (an ``if`` /
``case`` arm, a ``?:`` arm, the right operand of ``&&`` / ``||``), no
two on one path, is written at each read instead of at its schedule
position, as the code it would have assigned (:mod:`repro.codegen.sinking`, "mux
shadowing"): a decoder's immediates are built in the arms that use
them.  Ports, the stash, child arguments, comb loops and code that
carries a sanitizer hook stay where the schedule puts them, so the
calling convention, the state layout and every hook's firing are what
they were.

A signal is *settled in phase 1* when it depends on no input outside
the ``eval_out`` arguments (``ModuleIR.signal_deps``); ``eval_out`` emits
the scheduled units that define a settled signal and stores one tuple
of the settled locals ``cycle`` reads.  ``cycle`` unpacks that tuple and
emits only the units that define an unsettled signal.  A part ending
short of every comb port stores, the same way, the tuple of locals the
parts after it read.  A child whose subtree holds no register, no
memory and no sanitizer site is not sent its ``cycle``.

Ordering invariant: a parent reads registered child outputs and
evaluates every child argument from its locals and its own pre-edge
state, never from a child's state after that child's ``cycle``; so a
sibling never sees another sibling's post-edge value.

In-place rule: ``cycle`` writes every register straight into its one
slot.  A register whose old value may be read after a write of it on
some path through ``cycle`` (a later statement or sequential block, a
child argument, a continuous assign written where a later statement
reads it) is bound once to a local, ``r_<name>``, before any write,
and every read of it in ``cycle`` reads that local; a partial write's
other bits come from the slot, which holds the value written so far.
The call plan decides which registers those are, and orders the
sequential statements so that as few as possible are
(:class:`~repro.codegen.callplan.EdgePlan`); both bodies of a sanitized
``cycle`` bind the same ones.  So an edge is not atomic: a
sanitizer trap inside ``cycle`` is held until the edge is complete, and
any other exception leaves the pipe torn until it is restored
(:attr:`repro.sim.pipeline.Pipe.torn`).

A child's entry points are instance attributes of its
:class:`CompiledModule`, which CPython cannot load as a method with a
specialised instruction; so every call names its callee,
``(_e := _c1.code.eval_out_fn)(...)``, and the callee is a plain
attribute load, which it specialises.

Build flavours: the emitter above is the whole of a clean build, and
each optional flavour is one object it calls.  The optimizer's is an
:class:`~repro.codegen.optplan.OptPlan` (assembled by
:class:`repro.passes.codegen.CodegenPass` from the pass facts, and
carried by the module's wiring): the emitter asks it for the expression
or block body to emit and reads its dead units and skippable children;
``NO_OPT`` applies nothing.  The sanitizer's is an
:class:`~repro.sanitize.instrument.Instrumenter` (built here, one per sanitized module compile, told the build's
``san_elide``): it writes every hook, at the sites :mod:`exprgen` comes to,
at the four structural points of ``cycle`` (opening, end of the
register writes, memory-word commit, module epilogue) and in each function's prologue
(the poison-bitmap binding), and counts them; a clean build
has ``None`` in its place.  :func:`site_count` is that same emitter
run for its count alone.

Under ``san_elide`` a sanitized function whose body reads a poison
bitmap (the register one, or a memory's word-poison one) comes in two
bodies (:meth:`ModuleCompiler._define`): the hooked one, named
``_pz_<name>``, and the poison-free one, written again with the
instrumenter in its poison-free mode, which keeps the function's name
and whose first line is the dispatch rule::

    if s[<bitmap>] or s[<bitmap>] ...: return _pz_<name>(s, ch, <parameters>)

testing each bitmap the hooked body reads.  So an instance runs its
hooked bodies exactly while one of its registers or memory words is
poisoned, and otherwise code without ``rr`` hooks, word-poison tests,
write notes or poison clearing, in which a register read, or a memory
read whose index cannot reach the depth, carries no hook and mux
shadowing moves what it moves in a clean build.  Both bodies share
the stash layout (each boundary's stash holds what either body reads),
the site table and the site counts (the hooked body's); see
:mod:`repro.sanitize.instrument` for why the poison-free body is exact.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from functools import partial
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

from .. import obs
from ..hdl import ast_nodes as ast
from ..hdl.consteval import width_of
from ..hdl.errors import CodegenError
from ..ir.netlist import ModuleIR, Netlist
from .build import BuildConfig, ModuleKey
from .callplan import Boundary, Part, Step, Wiring, part_name, part_names, part_outputs
from .emitter import FunctionEmitter, block
from .exprgen import ATOM, BAND, COND, Code, ExprGen, Resolver, StmtGen, mask_of, paren
from .module import (
    PAGE_SHIFT, CompiledModule, entry_points, exec_source, flat_tuple, nested_tuple,
    packs, settle_loop, state_layout,
)
from .sinking import MAX_COPIES, MAX_DEPTH, Path, PathReads, all_exclusive, carries_hook


def _params(ports: Sequence[str]) -> str:
    """The parameters after ``s, ch`` of an entry point taking ``ports``."""
    if packs(ports):
        return ", _in"
    return "".join(f", i_{name}" for name in ports)


def _pass(ports: Sequence[str], args: Sequence[str]) -> str:
    """The arguments after ``s, ch`` of a call to an entry point taking
    ``ports``."""
    if packs(ports):
        return ", " + flat_tuple(args)
    return "".join(f", {arg}" for arg in args)


def _entry(ref: str, attr: str) -> str:
    """The callee of a call to entry point ``attr`` of the child held in
    local ``ref``: named, so that it loads as a plain attribute."""
    return f"(_e := {ref}.code.{attr})"


def _unpack_inputs(fn: FunctionEmitter, ports: Sequence[str]) -> None:
    """A packed entry point's first use of its tuple (one flat unpack:
    an assignment target has no stack limit)."""
    if packs(ports):
        fn.line("(" + "".join(f"i_{name}, " for name in ports) + ") = _in")


def _locals(names: Sequence[str]) -> List[str]:
    return [f"v_{name}" for name in names]


# ----------------------------------------------------------------------------
# Module compilation
# ----------------------------------------------------------------------------


class _Body(NamedTuple):
    """One body of a generated function, written before its prologue."""

    prologue: FunctionEmitter  # the binds the code needs
    code: FunctionEmitter
    reads: Set[str]  # every input, comb local and memory the code names
    poison: Tuple[int, ...]  # the slots of the poison bitmaps it reads


class ModuleCompiler:
    def __init__(self, wiring: Wiring, build: BuildConfig):
        self._ir = ir = wiring.ir
        self._netlist = wiring.netlist
        self._mux_style = build.mux_style
        self._emit = FunctionEmitter()
        self._wiring = wiring
        # The parts of the settled body a parent calls besides eval_out.
        self._parts = sorted(wiring.parts, key=lambda part: part_name(ir, part))
        # Boundary -> the locals the stash slot holds there, for the
        # parts that start from it (cycle: all comb ports).
        self._stash: Dict[FrozenSet[str], List[str]] = {}
        self._plan = plan = wiring.plan
        self._plans: Optional[Dict[int, object]] = (
            None if plan.is_noop else {})  # id(IR node) -> its plan
        # The assigns the function being generated writes at their reads
        # or not at all (by index), and the code of each one written so far.
        self._sunk: Set[int] = set()
        self._dead: Set[int] = set()
        self._inlined: Dict[str, Tuple[Code, Optional[Code]]] = {}
        self._refs: Dict[int, str] = {}  # child index -> its local
        self._old: Set[str] = set()  # the registers read through r_<name> so far
        sanitize = build.sanitize
        mems = sorted(ir.memories.values(), key=lambda m: m.mem_index)
        self.layout, self._mem_slot = state_layout(
            ir.num_regs, [(m.name, m.width, m.depth) for m in mems], sanitize)
        # Register or memory -> seq block ids that may write it, over
        # the ORIGINAL bodies (optimization only removes writes, so this
        # over-approximates the emitted writers: safe for the hooks'
        # single-writer fast path).
        self._seq_writers: Dict[str, Set[int]] = {}
        for bid, blk in enumerate(ir.seq_blocks):
            for name in blk.writes:
                self._seq_writers.setdefault(name, set()).add(bid)
        # The sanitizer flavour: every hook this compile writes.
        self.hooks = None
        if sanitize:
            from ..sanitize.instrument import Instrumenter

            self.hooks = Instrumenter(
                ir, self.layout, self._mem_slot, self._seq_writers, build.san_elide
            )
        # Whether a function that reads the register poison bitmap also
        # gets a poison-free body (the shortened hooks only).
        self._split = sanitize and build.san_elide
        # The hooks of eval_out and cycle (the parts re-emit their sites).
        self.sites = self.elided = 0

    # -- name resolution ------------------------------------------------------

    def _open_body(self, hi: FrozenSet[str],
                   old: FrozenSet[str] = frozenset()) -> Tuple[ExprGen, Set[str]]:
        """Start the body of a function that runs once the ports in
        ``hi`` have settled (a part ending there, or ``cycle``) in a
        fresh emitter; a read of a register in ``old`` reads its local
        ``r_<name>`` (``cycle``'s old values), noted in ``self._old``.

        Returns the expression generator for it and the set it fills
        with every input, comb local and memory the emitted code names;
        the function's prologue (binds, the stash it starts from) is
        written from that set once the body is complete.  A read of a
        signal the ports in ``hi`` do not settle is a generator error:
        a child is only ever passed the ports its part takes
        (:class:`Wiring`), so nothing else reads one.
        """
        ir = self._ir
        reads: Set[str] = set()
        self._old = set()

        def signal_ref(name: str) -> str:
            sig = ir.signals.get(name)
            if sig is None:
                raise CodegenError(f"unknown signal {name!r} in {ir.name}")
            if name in old:
                self._old.add(name)
                return f"r_{name}"
            if sig.state_index is not None:
                return f"s[{sig.state_index}]"
            if not self._wiring.deps(name) <= hi:
                raise CodegenError(f"{ir.key}: {name!r} read before it settles")
            reads.add(name)
            return f"i_{name}" if sig.kind == "input" else f"v_{name}"

        def memory_ref(name: str) -> Optional[str]:
            if name not in self._mem_slot:
                return None
            reads.add(name)
            return f"_m_{name}"

        self._inlined = {}
        self._refs = {}
        resolver = Resolver(
            signal_ref=signal_ref,
            signal_width=ir.signal_width,
            memory_ref=memory_ref,
            memory_width=lambda n: self._mem_slot[n].width,
            memory_depth=lambda n: self._mem_slot[n].depth,
            hooks=self.hooks,
            inlined=self._inlined,
        )
        self._emit = FunctionEmitter()
        return ExprGen(resolver, self._emit, self._mux_style), reads

    # -- generation ------------------------------------------------------------

    def generate(self) -> str:
        # cycle first: the settled locals it reads are what the parts
        # ending at all comb ports leave in the stash slot; then each
        # boundary's parts, the largest first, for the same reason.
        wiring = self._wiring
        cycle = self._gen_cycle()
        eval_out = self._gen_parts([(None, wiring.comb)])[0]
        if self.hooks is not None:
            self.sites, self.elided = self.hooks.sites, self.hooks.elided
        starts = sorted({lo for lo, _ in self._parts if lo is not None},
                        key=len, reverse=True)
        parts: Dict[Part, List[FunctionEmitter]] = {}
        for lo in starts + [None]:
            todo = [part for part in self._parts if part[0] == lo]
            parts.update(zip(todo, self._gen_parts(todo)))
        functions = eval_out + [fn for part in self._parts for fn in parts[part]] + cycle
        source = "\n".join(fn.source() for fn in functions)
        if self.hooks is not None:
            source += self.hooks.epilogue()
        return source

    def gen_unit(self, kind: str, index: int) -> str:
        """The text of one comb schedule unit alone, as ``cycle`` would
        emit it (what :func:`site_count` counts the hooks of)."""
        exprgen, _ = self._open_body(self._wiring.all)
        if kind == "assign":
            self._gen_comb_assign(exprgen, index)
        else:
            self._gen_comb_block(exprgen, index)
        return self._emit.source()

    def _child_args(self, exprgen: ExprGen, inst, ports: List[str]) -> List[str]:
        """Arguments for ``ports`` of one child, in range for the port
        (the calling convention): an expression statically wider than
        its port is masked here, a literal folded; the rest already fit."""
        signals = self._netlist.modules[inst.child_key].signals
        args = []
        for port in ports:
            expr = self._planned(inst.input_conns[port], self._plan.expr)
            code = exprgen.code(expr)
            if exprgen.width_of(expr) > signals[port].width:
                mask = mask_of(signals[port].width)
                if isinstance(expr, ast.Num):
                    code = str(expr.value & mask), ATOM
                else:
                    code = f"{paren(code, BAND)} & {mask}", BAND
            args.append(code[0])
        return args

    def _planned(self, node, rewrite):
        """``rewrite(node)``: the plan's expression or body for an IR
        expression or block body, made once per compile (the sink
        analysis walks what the emitter writes)."""
        plans = self._plans
        if plans is None:
            return node
        if id(node) not in plans:
            plans[id(node)] = rewrite(node)
        return plans[id(node)]

    def _prologue(self, reads: Set[str]) -> Tuple[FunctionEmitter, Tuple[int, ...]]:
        """Start the binds a body needs, once it is written and before
        the next body is: the register poison bitmap, if the body reads
        it, and the memories it reads.  Returns them with the slots of
        every poison bitmap the body reads."""
        self._emit = binds = FunctionEmitter()
        poison = self.hooks.bind_poison(binds) if self.hooks is not None else ()
        for name, spec in self._mem_slot.items():
            if name in reads:
                binds.line(f"_m_{name} = s[{spec.slot}]")
        return binds, poison

    def _bind_registered_child_outputs(self, wanted: Set[str]) -> None:
        """Registered child outputs are state: bind them up front so
        consumers never wait on the producing instance, and never see
        it after its commit."""
        for index, inst in enumerate(self._ir.instances):
            child = self._netlist.modules[inst.child_key]
            for port in inst.registered_ports:
                target = inst.output_conns[port]
                if target in wanted:
                    slot = child.signals[port].state_index
                    self._emit.line(f"v_{target} = ch[{index}].state[{slot}]")

    # -- the combinational body, split between the parts and cycle -------------

    def _gen_comb_body(self, exprgen: ExprGen, lo: Boundary, hi: FrozenSet[str],
                       in_cycle: bool = False, stash: Sequence[str] = ()) -> None:
        """The comb units and child calls of part (lo, hi) (``in_cycle``:
        of ``cycle``) in its walk's order, before it stashes ``stash``."""
        walk = self._wiring.walk(lo, hi, in_cycle)
        self._sunk, self._dead = self._sink(walk, in_cycle, stash)
        for step in walk:
            settle = nullcontext()
            memos: Dict[int, str] = {}
            if step.settle:
                # A child the loop calls runs again only when a pass
                # changes its arguments.
                for index in step.calls:
                    memos[index] = self._emit.fresh("a")
                    self._emit.line(f"{memos[index]} = None")
                settle = settle_loop(self._emit, _locals(step.settle), self._ir.key)
            with settle:
                for kind, index in step.units:
                    if kind == "inst":
                        self._call_part(exprgen, index, step.calls[index], memos.get(index))
                    else:
                        gen = (self._gen_comb_assign if kind == "assign"
                               else self._gen_comb_block)
                        gen(exprgen, index)

    # -- mux shadowing: a value computed only where it is read ----------------

    def is_hooked(self, assign) -> bool:
        """Whether a sanitized build's code for ``assign`` carries a hook
        (what :meth:`_gen_comb_assign` would count in ``san_sites``); a
        register read carries none in a poison-free body, nor does a
        memory read whose index is too narrow to reach the depth."""
        hooks = self.hooks
        if hooks is None:
            return False
        ir = self._ir
        mems = self._mem_slot

        def width(expr) -> int:
            return width_of(expr, ir.signal_width,
                            lambda n: mems[n].width if n in mems else None)

        if width(assign.value) > ir.signals[assign.target.name].width:
            return True  # the truncation check

        def hooked(name: str, index=None) -> bool:
            if name in mems:
                return not (hooks.poison_free
                            and mask_of(width(index)) < mems[name].depth)
            if index is not None and not isinstance(index, ast.Num):
                return True  # a dynamic select
            return not hooks.poison_free and getattr(
                ir.signals.get(name), "state_index", None) is not None

        return carries_hook(
            self._planned(assign.value, self._plan.expr), hooked)

    def _sink(self, walk: List[Step], in_cycle: bool,
              stash: Sequence[str]) -> Tuple[Set[int], Set[int]]:
        """The continuous assigns the function running ``walk``
        (``in_cycle``: ``cycle``) writes at their reads instead of at their schedule position
        (:mod:`.sinking`), and those it does not write at all, by index.

        A candidate runs here and is not a port, not in the ``stash``
        the function leaves and not on a comb loop.  One walk back over what the function
        emits gathers each candidate's reads with their paths and
        reaches it after all its readers.  One with no hook in its code
        and no read is not written; one with no hook whose reads (at
        most ``MAX_COPIES``) are all guarded and pairwise exclusive, so
        none is a child argument or in a loop, moves.  A moved assign's
        own reads then sit at each of its places (a chain moves as far
        as its last reader goes), and an unwritten one's reads are no
        reads.
        """
        ir = self._ir
        units = [(unit, step.is_loop) for step in walk
                 for unit in step.units if unit[0] != "inst"]
        candidates = {
            ir.comb_assigns[index].defines
            for (kind, index), is_loop in units
            if kind == "assign" and not is_loop
        }.difference(ir.outputs, stash)
        if not candidates:
            return set(), set()
        reads: Dict[str, List[Path]] = {name: [] for name in candidates}
        walk = PathReads(branch=self._mux_style == "branch")

        def note(found, sites: Sequence[Path] = ((),)) -> None:
            for name, path in found:
                paths = reads.get(name)
                if paths is None:
                    continue
                paths.extend(site + path for site in sites)
                if not paths[-1] or len(paths) > MAX_COPIES:
                    del reads[name]  # read unguarded, or too often

        def stays(names: Sequence[str]) -> None:
            for name in reads.keys() & names:
                del reads[name]

        def note_body(stmts: List[ast.Stmt], names: Sequence[str]) -> None:
            if not reads.keys().isdisjoint(names):  # else nothing to note
                note(walk.stmts(self._planned(stmts, self._plan.body)))

        for inst in ir.instances:  # child arguments, in either function
            stays(inst.reads)
        for unit, is_loop in units:  # a loop repeats its reads
            if is_loop:
                stays(ir.unit_reads(unit))
        if in_cycle:  # after the comb body
            for block_id, stmt in self._wiring.edge.order:
                if not reads.keys().isdisjoint(ir.seq_blocks[block_id].reads):
                    note(walk.stmts(self._unit_body(stmt)))
        sunk: Dict[int, List[str]] = {}  # index -> the names it reads
        dead: Set[int] = set()
        for (kind, index), is_loop in reversed(units):
            if not reads:
                break  # no candidate left undecided
            if is_loop:
                continue
            if kind == "block":
                comb = ir.comb_blocks[index]
                note_body(comb.body, comb.reads)
                continue
            assign = ir.comb_assigns[index]
            paths = reads.pop(assign.defines, None)
            if paths is not None and not self.is_hooked(assign):
                if not paths:
                    dead.add(index)
                    continue
                moves = all_exclusive(paths)
            else:
                moves = False
            if moves or not reads.keys().isdisjoint(assign.reads):
                found = walk.expr(
                    self._planned(assign.value, self._plan.expr))
                if moves:
                    sunk[index] = [name for name, _ in found]
                note(found, paths if moves else ((),))
        # Nested no deeper than MAX_DEPTH: forward, a value too deep
        # stays where it is (and is as deep as nothing).
        depth: Dict[str, int] = {}
        for (kind, index), _ in units:
            if kind == "assign" and index in sunk:
                own = 1 + max((depth.get(n, 0) for n in sunk[index]),
                              default=0)
                if own > MAX_DEPTH:
                    del sunk[index]
                else:
                    depth[ir.comb_assigns[index].defines] = own
        return set(sunk), dead

    def _gen_comb_assign(self, exprgen: ExprGen, index: int) -> None:
        if index in self._dead:
            return  # read nowhere
        assign = self._ir.comb_assigns[index]
        name = assign.target.name
        code, truth = exprgen.forms(self._planned(assign.value, self._plan.expr))
        width = self._ir.signals[name].width
        if exprgen.width_of(assign.value) > width:
            truth = None
            if self.hooks is not None:
                code = self.hooks.trunc(
                    code[0], width, getattr(assign.target, "line", 0), name,
                ), COND
            else:
                code = f"{paren(code, BAND)} & {mask_of(width)}", BAND
        if index in self._sunk:
            self._inlined[name] = code, truth  # written where it is read
        else:
            self._emit.line(f"v_{name} = {code[0]}")

    def _gen_comb_block(self, exprgen: ExprGen, index: int) -> None:
        comb = self._ir.comb_blocks[index]
        stmtgen = self._stmtgen(
            exprgen,
            write_target=lambda target, code: self._emit.line(f"v_{target.name} = {code}"),
            read_target_current=lambda name: f"v_{name}",
        )
        for name in comb.defines:
            self._emit.line(f"v_{name} = 0")
        stmtgen.gen_stmts(self._planned(comb.body, self._plan.body))

    def _stmtgen(self, exprgen: ExprGen, **targets) -> StmtGen:
        """The statement generator of a block body of the function being
        written; ``targets`` says how the block writes and reads them."""
        return StmtGen(exprgen=exprgen, emitter=self._emit, hooks=self.hooks,
                       is_memory=self._mem_slot.__contains__,
                       target_width=lambda name: self._ir.signals[name].width, **targets)

    def _call_part(self, exprgen: ExprGen, index: int, part: Part,
                   memo: Optional[str] = None) -> None:
        """Call ``part`` of child ``index`` with the ports its boundary
        settles, binding the comb outputs it returns by one unpack; the
        rest land in ``_``, and a call whose outputs nothing binds
        assigns nothing.  The early-bind prepass (the part from no
        port) binds the dependency-free outputs, so no later call of
        that child binds them again.  Inside a comb loop, ``memo`` is
        the local holding the last pass's arguments: an unchanged pass
        does not call."""
        inst = self._ir.instances[index]
        child = self._wiring.child(index)
        prebound = self._wiring.early.get(index, ()) if part[1] else ()
        names = [f"v_{inst.output_conns[p]}" if p in inst.output_conns
                 and p not in inst.registered_ports and p not in prebound
                 else "_" for p in part_outputs(child, part)]
        lhs = f"({', '.join(names)}, ) = " if set(names) - {"_"} else ""
        args = [p for p in child.comb_input_ports if p in part[1]]
        values = self._child_args(exprgen, inst, args)
        emit = self._emit
        ref = self._child_ref(index)
        name = part_name(child, part)
        call = _entry(ref, f"{name}_fn" if name == "eval_out" else name)
        if memo is None:
            emit.line(f"{lhs}{call}({ref}.state, {ref}.children{_pass(args, values)})")
            return
        key = emit.fresh("k")
        emit.line(f"{key} = {flat_tuple(values)}")
        with block(emit, f"if {key} != {memo}:"):
            emit.line(f"{memo} = {key}")
            spread = f", {key}" if packs(args) else f", *{key}"
            emit.line(f"{lhs}{call}({ref}.state, {ref}.children{spread})")

    def _child_ref(self, index: int) -> str:
        """The local the function being generated holds child ``index``
        in, bound where the function first calls it: each later call
        is in the same block or after it."""
        ref = self._refs.get(index)
        if ref is None:
            ref = self._refs[index] = self._emit.fresh("c")
            self._emit.line(f"{ref} = ch[{index}]")
        return ref

    def _output_ref(self, name: str) -> str:
        sig = self._ir.signals[name]
        if sig.state_index is not None:
            # Registered outputs expose the current (pre-edge) value.
            return f"s[{sig.state_index}]"
        return f"v_{name}"

    # -- the parts of the settled body: eval_out and what parents split ---------

    def _bodies(self, write: Callable[[], _Body]) -> List[_Body]:
        """The bodies of one function: what ``write`` writes, and when
        that reads a poison bitmap and the module splits (see
        :meth:`_define`), what it writes again as the poison-free body."""
        bodies = [write()]
        if bodies[0].poison and self._split:
            with self.hooks.free_body():
                bodies.append(write())
        return bodies

    def _define(self, name: str, ports: Sequence[str], head: List[str],
                bodies: List[_Body]) -> List[FunctionEmitter]:
        """Function ``name`` taking ``ports``: after the ports, ``head``
        (the stash unpack every body shares), then each body's prologue
        and code.  With two bodies the first, hooked, is named by
        ``Instrumenter.hooked_name``, and the second, poison-free, keeps
        ``name`` and first hands the call to the first while any
        poison bitmap the first reads is nonzero."""
        names = [name] if len(bodies) == 1 else [self.hooks.hooked_name(name), name]
        functions = []
        for own, body in zip(names, bodies):
            fn = FunctionEmitter()
            with block(fn, f"def {own}(s, ch{_params(ports)}):"):
                if own == name and len(bodies) > 1:
                    self.hooks.dispatch(fn, name, _params(ports), bodies[0].poison)
                _unpack_inputs(fn, ports)
                for line in head:
                    fn.line(line)
                fn.splice(body.prologue)
                fn.splice(body.code)
                if len(fn) == 1:
                    fn.line("pass")
            functions.append(fn)
        return functions

    def _gen_parts(self, parts: List[Part]) -> List[List[FunctionEmitter]]:
        """The functions computing ``parts``, which all start from one
        boundary; what they read from before it is that boundary's
        stash (every boundary they end at has its stash already)."""
        ir = self._ir
        bodies = [(part, self._bodies(partial(self._gen_part, part))) for part in parts]
        lo = parts[0][0] if parts else None
        head = [] if lo is None else self._unstash(
            lo, [body for _, versions in bodies for body in versions])
        return [
            self._define(part_name(ir, part), [p for p in ir.comb_input_ports if p in part[1]],
                         head, versions)
            for part, versions in bodies
        ]

    def _unstash(self, lo: FrozenSet[str], bodies: List[_Body]) -> List[str]:
        """The head of the functions that start from boundary ``lo``:
        the unpack of the stash there, which holds every local settled
        at ``lo`` that one of their ``bodies`` reads."""
        reads = set().union(*(body.reads for body in bodies))
        stash = self._stash[lo] = [
            name for name, sig in self._ir.signals.items()
            if sig.kind != "input" and self._wiring.deps(name) <= lo and name in reads]
        return [f"{nested_tuple(_locals(stash))} = s[{self.layout.stash_slot}]"] if stash else []

    def _gen_part(self, part: Part) -> _Body:
        lo, hi = part
        exprgen, reads = self._open_body(hi)
        body = self._emit
        stash = self._stash.get(hi, [])
        self._gen_comb_body(exprgen, lo, hi, stash=stash)
        outs = part_outputs(self._ir, part)
        if stash:
            body.line(f"s[{self.layout.stash_slot}] = {nested_tuple(_locals(stash))}")
            reads.update(stash)  # those computed before come through
        if outs:
            body.line(f"return {flat_tuple([self._output_ref(n) for n in outs])}")
        binds, poison = self._prologue(reads)
        if lo is None:
            self._bind_registered_child_outputs(reads | set(outs))
        return _Body(binds, body, reads, poison)

    # -- cycle ----------------------------------------------------------------------

    def _gen_cycle(self) -> List[FunctionEmitter]:
        bodies = self._bodies(self._gen_cycle_body)
        return self._define("cycle", self._ir.inputs, self._unstash(self._wiring.comb, bodies),
                            bodies)

    def _gen_cycle_body(self) -> _Body:
        ir = self._ir
        comb, everything = self._wiring.comb, self._wiring.all
        exprgen, reads = self._open_body(everything, self._wiring.edge.reads_old)
        body = self._emit
        hooks = self.hooks
        self._gen_comb_body(exprgen, comb, everything, in_cycle=True)
        for block_id, stmt in self._wiring.edge.order:
            self._gen_seq_unit(exprgen, block_id, stmt)
        skip = self._wiring.skip
        for index, inst in enumerate(ir.instances):
            if index in skip:
                # Pure subtree: stateless, so its cycle would only
                # recompute values nothing commits.  Skip it.
                continue
            child = self._netlist.modules[inst.child_key]
            ref = self._child_ref(index)
            args = _pass(child.inputs, self._child_args(exprgen, inst, child.inputs))
            body.line(f"{_entry(ref, 'cycle_fn')}({ref}.state, {ref}.children{args})")
        if hooks is not None:
            hooks.commit_regs(body)
        written = [n for n in self._mem_slot if n in self._seq_writers]
        for name in written:
            spec = self._mem_slot[name]
            with block(body, f"if _pw_{name}:"):
                body.line(f"_m = s[{spec.slot}]")
                if spec.marks_slot >= 0:
                    body.line(f"_d = s[{spec.marks_slot}]")
                with block(body, f"for _a, _v in _pw_{name}:"):
                    body.line("_m[_a] = _v")
                    if spec.marks_slot >= 0:
                        body.line(f"_d.add(_a >> {PAGE_SHIFT})")
                    if hooks is not None:
                        hooks.commit_mem_word(body, name)
                body.line(f"del _pw_{name}[:]")
        # The prologue, once the body is written: the bitmap and the
        # memories it reads, the old values it reads, the pending writes
        # and the write notes.
        binds, poison = self._prologue(reads)  # registered child outputs: the stash
        for name in sorted(self._old, key=lambda name: ir.signals[name].state_index):
            binds.line(f"r_{name} = s[{ir.signals[name].state_index}]")
        for name in written:
            binds.line(f"_pw_{name} = s[{self._mem_slot[name].pending_slot}]")
        if hooks is not None:
            hooks.open_cycle(binds)
        return _Body(binds, body, reads, poison)

    def _unit_body(self, stmt: ast.Stmt) -> List[ast.Stmt]:
        """The statements the plan emits for one unit of the edge
        (:func:`~.callplan.edge_units`)."""
        if self._plans is None:
            return [stmt]
        return self._planned(stmt, lambda node: self._plan.body([node]))

    def _gen_seq_unit(self, exprgen: ExprGen, block_id: int, stmt: ast.Stmt) -> None:
        """One top-level statement of sequential block ``block_id``:
        each register it writes is written to its slot."""
        signals = self._ir.signals

        def write_target(target: ast.LValue, code: str) -> None:
            if signals[target.name].state_index is None:
                raise CodegenError(
                    f"sequential assignment to non-register {target.name!r}",
                    target.line,
                )
            self._emit.line(f"s[{signals[target.name].state_index}] = {code}")

        def read_latest(name: str) -> str:  # a partial write's other bits
            return f"s[{signals[name].state_index}]"

        def mem_write(name: str, addr: str, value: str, line: int) -> None:
            spec = self._mem_slot[name]
            self._emit.line(
                f"_pw_{name}.append(({addr}, "
                f"({value}) & {mask_of(spec.width)}))"
            )

        stmtgen = self._stmtgen(exprgen, write_target=write_target, read_target_current=read_latest,
                                mem_write=mem_write, block_id=block_id)
        stmtgen.gen_stmts(self._unit_body(stmt))


def compile_module(
    wiring: Wiring,
    build: BuildConfig = BuildConfig(),
    runtime: object = None,
    key: Optional[ModuleKey] = None,
) -> CompiledModule:
    """Compile the specialization ``wiring`` plans into a
    :class:`CompiledModule`.

    ``wiring`` is the module's entry of :func:`~.callplan.part_demand`: its
    optimization plan (see :mod:`repro.passes`: what to fold, which dead
    logic to drop and which pure subtrees' ``cycle`` to skip), the parts
    of its settled body its parents call besides ``eval_out``, and the
    calls each of its parts makes.

    Under ``build.sanitize`` the generated source is instrumented with
    calls into ``runtime`` (a :class:`repro.sanitize.SanitizerRuntime`),
    bound as the module-global ``_san`` at exec time; ``build.san_elide``
    says whether the instrumenter drops the sites their widths make safe
    and shortens the rest.

    ``key`` is the cache address the pass pipeline compiles for; it
    names the ``linecache`` entry.  Direct callers have none and get
    the bare ``(spec, build, parts)`` key.
    """
    ir = wiring.ir
    if key is None:
        key = ModuleKey(ir.key, build=build, parts=part_names(ir, wiring.parts))
    with obs.span("codegen.compile_module", key=ir.key,
                  sanitize=build.sanitize, opt=build.opt):
        compiler = ModuleCompiler(wiring, build)
        source = compiler.generate()
        fns = entry_points(exec_source(source, key.filename, build, runtime))
    obs.incr("codegen.modules_compiled")
    reg_slots = {name: sig.state_index for name, sig in ir.signals.items()
                 if sig.state_index is not None}
    return CompiledModule(
        key=ir.key,
        name=ir.name,
        ir=ir,
        source=source,
        inputs=tuple(ir.inputs),
        comb_input_ports=ir.comb_input_ports,
        outputs=tuple(ir.outputs),
        num_regs=ir.num_regs,
        layout=compiler.layout,
        reg_slots=reg_slots,  # type: ignore[arg-type]
        reg_widths={name: ir.signals[name].width for name in reg_slots},
        mem_specs=dict(compiler._mem_slot),
        child_insts=tuple((i.name, i.child_key) for i in ir.instances),
        source_hash=hashlib.sha256(source.encode()).hexdigest(),
        build=build,
        san_sites=compiler.sites,
        san_elided=compiler.elided,
        eval_out_packed=packs(ir.comb_input_ports),
        cycle_packed=packs(ir.inputs),
        **fns,
    )


def site_count(ir: ModuleIR, netlist: Netlist,
               unit: Optional[Tuple[str, int]] = None) -> int:
    """Sanitizer sites the generator writes for module ``ir``, or for
    its comb schedule ``unit`` (``("assign" | "block", index)``) alone.

    The census is the generator: this runs the emitter with a fresh
    instrumenter and no plan, so it counts what ``san_sites`` counts
    and nothing else decides where a hook goes.  It runs the plain-hook
    build, which writes each function once and counts every site as
    the elided build does.  The optimizer asks it which dead units and
    pure children it may drop under sanitize (zero: none of their
    findings would be silenced).
    """
    compiler = ModuleCompiler(Wiring(ir, netlist), BuildConfig(sanitize=True, san_elide=False))
    if unit is None:
        compiler.generate()
    else:
        compiler.gen_unit(*unit)
    return compiler.hooks.sites
