"""Shared-module code generation (the LiveSim compilation model).

Each module specialization compiles to exactly one set of functions,
regardless of how many instances exist.  Instances share the code
object and differ only in their state arrays, reproducing the paper's
Fig. 4d: *"Each module is only compiled once, which drastically reduces
the amount of code that needs to be compiled."*

A cycle is two walks of the instance tree, through two entry points:

* ``eval_out(state, children, *comb_inputs) -> outputs`` — a *pure*
  function of the instance state and the inputs that combinationally
  affect outputs (see :mod:`repro.ir.dataflow`).  Results are memoized
  per instance on the argument tuple, so repeated calls within one
  cycle cost a tuple compare.  Sequential-only inputs (resets, stalls,
  enables) are NOT arguments — which is what lets a pipeline with
  feedback (branch redirect into fetch, writeback into decode)
  schedule in one ordered pass with no fixed-point iteration.
* ``cycle(state, children, *all_inputs)`` — runs once per cycle with
  every input settled: finishes the combinational values, computes
  pending register values and memory writes, runs the children's
  ``cycle``, then commits its own pending state and drops the memo
  (the clock edge, on the way back up).

Each combinational unit is emitted once, in one of the two functions,
and runs only on a path that reads it.  That is not once per cycle: a
comb loop's step repeats until it settles, and a child's ``eval_out``
body runs again on each memo miss (an early-bind prepass, then the
call with the real arguments, then ``cycle``'s refresh), so a child
can run its body several times a cycle.  A continuous assign every
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
the scheduled units that define a settled signal and stores, next to
the memo, one tuple of the settled locals ``cycle`` reads.  ``cycle``
unpacks that tuple and emits only the units that define an unsettled
signal.  A child instance is called from ``eval_out`` when one of its
combinational outputs is settled, and again from ``cycle`` when one of
its ``eval_out`` arguments reads an unsettled signal (the second call
refreshes the child's own memo and tuple with the real arguments).
``cycle`` first compares the memo key with its real arguments and
calls ``eval_out`` on a mismatch, so the tuple it unpacks was always
computed from these arguments and this state.

Ordering invariant: a parent reads registered child outputs and
evaluates every child argument from its locals and its own uncommitted
state, never from a child's state after that child's ``cycle``; so a
sibling never sees another sibling's post-edge value, and the parent's
own commit comes last.  An edge is atomic: a sanitizer trap inside
``cycle`` is raised once the edge is complete, and any other exception
re-syncs the tree (:meth:`repro.sim.pipeline.Pipe.tick`).

Calling convention: arguments are in ``[0, 2**width)`` of their port
and *the caller guarantees it*; the callee masks nothing.  By
:mod:`exprgen`'s value invariant an argument can only exceed its port
when the connected expression is statically wider, which is where the
generated caller masks (``_child_args``); top-level inputs are masked by
:class:`~repro.sim.pipeline.Pipe`, the only caller of the raw entry
points under ``src/``.  An entry point with more ports than
:func:`packs` allows (28) takes them as one tuple, ``_in``, and unpacks
it on entry; its callers build that tuple.  With it, no generated call
passes more than :data:`STACK_ITEMS` arguments and no tuple display on
the right of an assignment holds more than that many items, so the
kernel stays off CPython's slow paths for both (``CALL_FUNCTION_EX``;
``BUILD_LIST`` + ``LIST_APPEND`` + ``LIST_TO_TUPLE``).

A genuine combinational loop is one step of the schedule
(``ModuleIR.loops``).  ``eval_out`` and ``cycle`` each repeat the part
of that step the partition gives them until the locals it binds stop
moving (:func:`settle_loop`).  Every signal on a cycle has the same
input dependencies, so a loop an output reads settles in ``eval_out``
and one only a register reads in ``cycle``; only a child instance on a
loop can bind outputs on both sides.  A module with a loop takes
``comb_input_ports`` like any other and is memoized, stashed and
optimized the same way, at any depth of the tree.

State array layout per instance (a plain Python list)::

    [0 .. NR)          current register values
    [NR .. 2*NR)       pending (next-cycle) values
    [2*NR]             eval_out memo key (args tuple or None)
    [2*NR + 1]         eval_out memo value (outputs tuple)
    [2*NR + 2]         settled locals ``cycle`` reads (tuple)
    [2*NR+3 + j]       memory j contents (list of ints)
    [2*NR+3+NM + j]    memory j pending writes (list of (addr, value))

followed, in sanitized builds, by the poison bitmaps and the per-cycle
nonblocking-write dict (see :class:`StateLayout`).

Invariant: whenever no clock edge is in flight, pending == current and
every pending-write list is empty.  ``cycle`` relies on it (it commits
with one copy) and restores it; the other writers (``make_state``,
``StageInst.poke_reg`` / ``load``) set both halves.

Anything that mutates state outside ``cycle`` (snapshot restore, pokes,
direct memory writes) must drop the memo of the instance and of every
ancestor — see :meth:`repro.sim.stage.StageInst.invalidate_cache`.

Build flavours: the emitter above is the whole of a clean build, and
each optional flavour is one object it calls.  The optimizer's is an
:class:`~repro.codegen.optplan.OptPlan` (assembled by
:class:`repro.passes.codegen.CodegenPass` from the pass facts): the
emitter asks it for the expression or block body to emit and reads its
dead units and skippable children; ``NO_OPT`` applies nothing.  The
sanitizer's is an :class:`~repro.sanitize.instrument.Instrumenter`
(built here, one per sanitized module compile, told the build's
``san_elide``): it writes every hook, at the sites :mod:`exprgen` comes to,
at the four structural points of ``cycle`` (opening, register commit,
memory-word commit, module epilogue) and in each function's prologue
(the poison-bitmap binding), and counts them; a clean build
has ``None`` in its place.  :func:`site_count` is that same emitter
run for its count alone.
"""

from __future__ import annotations

import hashlib
import linecache
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .. import obs
from ..hdl import ast_nodes as ast
from ..hdl.consteval import width_of
from ..hdl.errors import CodegenError, ConvergenceError
from ..ir.netlist import ModuleIR, Netlist
from .build import BuildConfig, ModuleKey
from .emitter import FunctionEmitter, block
from .exprgen import ATOM, BAND, COND, Code, ExprGen, Resolver, StmtGen, mask_of, paren
from .optplan import NO_OPT, OptPlan
from .sinking import MAX_COPIES, MAX_DEPTH, Path, PathReads, all_exclusive, carries_hook

CACHE_SLOTS = 3  # eval_out memo key, memo value, settled locals for cycle

# Passes a comb loop's generated settle loop runs before ConvergenceError.
MAX_PASSES = 16

# The most items CPython (3.10-3.12) puts on its stack for one call or
# one tuple display: a call with more arguments compiles to
# CALL_FUNCTION_EX, a longer display to a list built item by item.
STACK_ITEMS = 30


def packs(ports: Sequence[str]) -> bool:
    """The calling convention: whether an entry point taking ``ports``
    takes them as one tuple (``s``, ``ch`` and one argument per port
    would pass :data:`STACK_ITEMS`)."""
    return len(ports) + 2 > STACK_ITEMS


def _pieces(items: Sequence[str]) -> List[str]:
    return [
        "(" + "".join(f"{item}, " for item in items[at:at + STACK_ITEMS]) + ")"
        for at in range(0, max(len(items), 1), STACK_ITEMS)
    ]


def _flat(items: Sequence[str]) -> str:
    """A tuple display of ``items``, concatenated from pieces CPython
    builds on its stack."""
    return " + ".join(_pieces(items))


def _slots(items: Sequence[str]) -> str:
    """A tuple of ``items`` nested in pieces when it is longer than one:
    the same text stores and unpacks it, cheaper than :func:`_flat` for
    a tuple only its own module reads (the stash, a comb loop's locals)."""
    pieces = _pieces(items)
    if len(pieces) == 1:
        return pieces[0]
    return "(" + "".join(f"{piece}, " for piece in pieces) + ")"


@contextmanager
def settle_loop(emit: FunctionEmitter, names: Sequence[str],
                key: str) -> Iterator[None]:
    """Run the comb body emitted inside to a fixed point: the locals
    ``names`` start at zero and the body repeats until a pass leaves
    them all unchanged; after :data:`MAX_PASSES` the generated code
    raises ``ConvergenceError`` naming module ``key``."""
    for name in names:
        emit.line(f"{name} = 0")
    settled = _slots(names)
    with block(emit, f"for _pass in range({MAX_PASSES}):"):
        emit.line(f"_was = {settled}")
        yield
        with block(emit, f"if {settled} == _was:"):
            emit.line("break")
    with block(emit, "else:"):
        message = f"{key}: comb loop did not settle in {MAX_PASSES} passes"
        emit.line(f"raise ConvergenceError({message!r})")


def _params(ports: Sequence[str]) -> str:
    """The parameters after ``s, ch`` of an entry point taking ``ports``."""
    if packs(ports):
        return ", _in"
    return "".join(f", i_{name}" for name in ports)


def _pass(ports: Sequence[str], args: Sequence[str]) -> str:
    """The arguments after ``s, ch`` of a call to an entry point taking
    ``ports``."""
    if packs(ports):
        return ", " + _flat(args)
    return "".join(f", {arg}" for arg in args)


def _unpack_inputs(fn: FunctionEmitter, ports: Sequence[str]) -> None:
    """A packed entry point's first use of its tuple (one flat unpack:
    an assignment target has no stack limit)."""
    if packs(ports):
        fn.line("(" + "".join(f"i_{name}, " for name in ports) + ") = _in")


def _locals(names: Sequence[str]) -> List[str]:
    return [f"v_{name}" for name in names]


class StateLayout(NamedTuple):
    """Where each region of an instance's state list starts."""

    cache_key_slot: int  # eval_out memo key; value and locals sit above
    mem_base: int  # NM contents lists, then NM pending-write lists
    # Sanitized builds (repro.sanitize) add NM + 2 slots:
    #   [sanitize_base]           register poison bitmap (bit i <-> reg i)
    #   [sanitize_base + 1 + j]   memory j word-poison bitmap
    #   [nw_slot]                 per-cycle nonblocking-write dict
    sanitize_base: int
    reg_poison_slot: int  # -1 in clean builds
    nw_slot: int  # -1 in clean builds
    state_size: int


def state_layout(num_regs: int, num_mems: int, sanitize: bool) -> StateLayout:
    cache_key_slot = 2 * num_regs
    mem_base = cache_key_slot + CACHE_SLOTS
    sanitize_base = mem_base + 2 * num_mems
    return StateLayout(
        cache_key_slot=cache_key_slot,
        mem_base=mem_base,
        sanitize_base=sanitize_base,
        reg_poison_slot=sanitize_base if sanitize else -1,
        nw_slot=sanitize_base + 1 + num_mems if sanitize else -1,
        state_size=sanitize_base + (num_mems + 2 if sanitize else 0),
    )


@dataclass
class MemSpec:
    """Where one memory's contents and pending writes live in the state."""
    name: str
    width: int
    depth: int
    slot: int  # state index of the contents list
    pending_slot: int  # state index of the pending-writes list
    poison_slot: int = -1  # word-poison bitmap slot (sanitized builds only)


@dataclass
class CompiledModule:
    """A hot-swappable compiled module specialization.

    The Python analogue of one of the paper's shared-object libraries:
    a self-contained unit that instances point at and that hot reload
    can replace in flight.
    """

    key: str
    name: str
    ir: ModuleIR
    eval_out_fn: Callable
    cycle_fn: Callable
    source: str
    inputs: Tuple[str, ...]
    comb_input_ports: Tuple[str, ...]  # the eval_out argument list
    outputs: Tuple[str, ...]
    num_regs: int
    layout: StateLayout
    reg_slots: Dict[str, int]  # register name -> current-value slot
    reg_widths: Dict[str, int]
    mem_specs: Dict[str, MemSpec]
    child_insts: Tuple[Tuple[str, str], ...]  # (instance name, child key)
    source_hash: str
    build: BuildConfig
    # Sanitizer accounting (repro.sanitize.instrument): the hooks the
    # generator came to while emitting this build (an expression emitted
    # in both entry points counts twice), and how many of them an index
    # too narrow to reach its bound let it write as clean code.
    san_sites: int = 0
    san_elided: int = 0
    # Whether eval_out / cycle take their ports as one tuple (packs());
    # code from another generator (flatgen) takes them positionally.
    eval_out_packed: bool = False
    cycle_packed: bool = False

    @property
    def sanitizer(self):
        """The SanitizerRuntime this code reports to (clean build: None)."""
        return self.cycle_fn.__globals__.get("_san")

    @cached_property
    def cycle_settles(self) -> bool:
        """Whether ``cycle`` runs ``eval_out`` itself on a memo miss:
        every pygen module's does, flatgen's commit-only one does not."""
        return "eval_out" in self.cycle_fn.__code__.co_names

    @cached_property
    def reg_names(self) -> Tuple[str, ...]:
        """Register names in slot order (``reg_names[i]`` lives in slot
        ``i``): one tuple per compiled module, which every snapshot
        record captured from it shares."""
        return tuple(sorted(self.reg_slots, key=self.reg_slots.__getitem__))

    @cached_property
    def mem_order(self) -> Tuple[MemSpec, ...]:
        """The memory specs in slot order."""
        return tuple(sorted(self.mem_specs.values(), key=lambda m: m.slot))

    @cached_property
    def mem_names(self) -> Tuple[str, ...]:
        """The memory names in slot order, shared like :attr:`reg_names`."""
        return tuple(spec.name for spec in self.mem_order)

    def make_state(self) -> list:
        state: list = [0] * (2 * self.num_regs)
        state.extend([None] * CACHE_SLOTS)  # eval_out memo: cold
        ordered = self.mem_order
        for spec in ordered:
            state.append([0] * spec.depth)
        for spec in ordered:
            state.append([])
        if self.build.sanitize:
            # Cold start is defined power-on zero: all poison clear.
            state.append(0)  # register poison bitmap
            state.extend(0 for _ in ordered)  # per-memory word poison
            state.append({})  # nonblocking writes this cycle
        return state


# ----------------------------------------------------------------------------
# Module compilation
# ----------------------------------------------------------------------------


class _ModuleCompiler:
    def __init__(self, ir: ModuleIR, netlist: Netlist, build: BuildConfig,
                 plan: OptPlan = NO_OPT):
        self._ir = ir
        self._netlist = netlist
        self._mux_style = build.mux_style
        self._emit = FunctionEmitter()
        self._comb_ports = list(ir.comb_input_ports)
        # The partition: signals that need an input eval_out does not
        # get.  Their units run in cycle; everything else in eval_out.
        comb = set(self._comb_ports)
        self._unsettled: Set[str] = {
            name for name, deps in ir.signal_deps.items() if not deps <= comb
        }
        # The settled comb locals cycle reads, in declaration order:
        # what eval_out leaves in the tuple slot (set by _gen_cycle).
        self._stash: List[str] = []
        self._plan = plan
        self._plans: Optional[Dict[int, object]] = (
            None if plan.is_noop else {})  # id(IR node) -> its plan
        # The schedule's steps without the units the plan drops.
        dead = {("assign", i) for i in plan.dead_assigns}
        dead |= {("block", i) for i in plan.dead_blocks}
        self._steps = [([u for u in units if u not in dead], is_loop)
                       for units, is_loop in ir.steps]
        # The assigns the function being generated writes at their reads
        # (by index), and the code of each one written so far.
        self._sunk: Set[int] = set()
        self._inlined: Dict[str, Code] = {}
        sanitize = build.sanitize
        nm = len(ir.memories)
        self.layout = layout = state_layout(ir.num_regs, nm, sanitize)
        self._mem_slot: Dict[str, MemSpec] = {}
        for i, mem in enumerate(
            sorted(ir.memories.values(), key=lambda m: m.mem_index)
        ):
            self._mem_slot[mem.name] = MemSpec(
                name=mem.name,
                width=mem.width,
                depth=mem.depth,
                slot=layout.mem_base + i,
                pending_slot=layout.mem_base + nm + i,
                poison_slot=layout.sanitize_base + 1 + i if sanitize else -1,
            )
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
                ir, layout, self._mem_slot, self._seq_writers, build.san_elide
            )

    @property
    def comb_ports(self) -> List[str]:
        return self._comb_ports

    # -- name resolution ------------------------------------------------------

    def _open_body(
        self, zeroed: Set[str] = frozenset()  # type: ignore[assignment]
    ) -> Tuple[ExprGen, Set[str]]:
        """Start one function's body in a fresh emitter.

        Returns the expression generator for it and the set it fills
        with every input, comb local and memory the emitted code names;
        the function's prologue (binds, the tuple of settled locals) is
        written from that set once the body is complete.
        Reads of ``zeroed`` signals lower to literal 0.

        Used by eval_out, which is not given the unsettled signals: the
        per-signal dataflow guarantees that a value tainted by a zero
        cannot reach a settled signal (if it could, that signal would
        be unsettled too), so the zeros only flow into the arguments of
        a child whose other outputs are wanted now; cycle calls that
        child again with the real arguments.
        """
        ir = self._ir
        reads: Set[str] = set()

        def signal_ref(name: str) -> str:
            sig = ir.signals.get(name)
            if sig is None:
                raise CodegenError(f"unknown signal {name!r} in {ir.name}")
            if sig.state_index is not None:
                return f"s[{sig.state_index}]"
            if name in zeroed:
                return "0"
            reads.add(name)
            return f"i_{name}" if sig.kind == "input" else f"v_{name}"

        def memory_ref(name: str) -> Optional[str]:
            if name not in self._mem_slot:
                return None
            reads.add(name)
            return f"_m_{name}"

        self._inlined = {}
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
        # cycle first: the settled locals it reads are what eval_out
        # must leave in the tuple slot.
        cycle = self._gen_cycle()
        source = self._gen_eval_out().source() + "\n" + cycle.source()
        if self.hooks is not None:
            source += self.hooks.epilogue()
        return source

    def gen_unit(self, kind: str, index: int) -> str:
        """The text of one comb schedule unit alone, as ``cycle`` would
        emit it (what :func:`site_count` counts the hooks of)."""
        exprgen, _ = self._open_body()
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

    def _bind_memories(self, reads: Set[str]) -> None:
        for name, spec in self._mem_slot.items():
            if name in reads:
                self._emit.line(f"_m_{name} = s[{spec.slot}]")

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

    # -- the combinational body, split between eval_out and cycle -------------

    def _gen_early_binds(self) -> None:
        """Prepass for wiring cycles (see repro.ir.schedule): call the
        involved children with zero arguments and bind only their
        dependency-free outputs, which are correct under any inputs
        (and therefore always settled: eval_out only)."""
        by_instance: Dict[int, Dict[str, str]] = {}
        for index, port, target in self._ir.early_bind:
            by_instance.setdefault(index, {})[port] = target
        for index, binds in by_instance.items():
            ports = self._child(index).comb_input_ports
            self._call_eval_out(index, binds, _pass(ports, ["0"] * len(ports)))

    def _runs_here(self, defines, in_cycle: bool) -> bool:
        """Whether the assign or block defining ``defines`` belongs to
        this function.  (All defines of one block share one dependency
        set, so a block is never split.)"""
        return in_cycle != self._unsettled.isdisjoint(defines)

    def _gen_comb_body(self, exprgen: ExprGen, in_cycle: bool) -> None:
        ir = self._ir
        early = {target for _, _, target in ir.early_bind}
        if not in_cycle:
            self._gen_early_binds()
        for units, is_loop in self._steps:
            settle = nullcontext()
            if is_loop:  # repeat the locals this function binds for it
                names = [n for u in units for n in ir.unit_defines(u)
                         if n not in early and self._runs_here((n,), in_cycle)]
                # ... while a unit of the part reads one (else one pass
                # settles them all).
                part = [u for u in units if u[0] == "inst"
                        or self._runs_here(ir.unit_defines(u), in_cycle)]
                if not set(names).isdisjoint(
                        n for u in part for n in ir.unit_reads(u)):
                    settle = settle_loop(self._emit, _locals(names), ir.key)
            with settle:
                for unit in units:
                    kind, index = unit
                    if kind == "inst":
                        self._gen_instance_out(exprgen, index, in_cycle)
                    elif self._runs_here(ir.unit_defines(unit), in_cycle):
                        gen = (self._gen_comb_assign if kind == "assign"
                               else self._gen_comb_block)
                        gen(exprgen, index)

    # -- mux shadowing: a value computed only where it is read ----------------

    def _hooked(self, assign) -> bool:
        """Whether a sanitized build's code for ``assign`` carries a hook
        (what :meth:`_gen_comb_assign` would count in ``san_sites``)."""
        if self.hooks is None:
            return False
        ir = self._ir
        mems = self._mem_slot
        width = width_of(assign.value, ir.signal_width,
                         lambda n: mems[n].width if n in mems else None)
        if width > ir.signals[assign.target.name].width:
            return True  # the truncation check

        def hooked(name: str) -> bool:  # a register or a memory
            sig = ir.signals.get(name)
            return name in mems or getattr(sig, "state_index", None) is not None

        return carries_hook(
            self._planned(assign.value, self._plan.expr), hooked)

    def _sink(self, in_cycle: bool) -> Set[int]:
        """The continuous assigns this function writes at their reads
        instead of at their schedule position (:mod:`.sinking`), by index.

        A candidate runs here and is not a port, not stashed for
        ``cycle`` and not on a comb loop.  One walk back over what the
        function emits gathers each candidate's reads with their paths
        and reaches it after all its readers: it moves when its code
        carries no sanitizer hook and its reads (one at least, at most
        ``MAX_COPIES``) are all guarded and pairwise exclusive, so none
        is a child argument or in a loop.  A moved assign's own reads
        then sit at each of its places: a chain moves as far as its
        last reader goes.
        """
        ir = self._ir
        units = [(unit, is_loop) for step, is_loop in self._steps
                 for unit in step if unit[0] != "inst"
                 and self._runs_here(ir.unit_defines(unit), in_cycle)]
        candidates = {
            ir.comb_assigns[index].defines
            for (kind, index), is_loop in units
            if kind == "assign" and not is_loop
        }.difference(ir.outputs, () if in_cycle else self._stash)
        if not candidates:
            return set()
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
            for seq in ir.seq_blocks:
                note_body(seq.body, seq.reads)
        sunk: Dict[int, List[str]] = {}  # index -> the names it reads
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
            moves = (paths and all_exclusive(paths)
                     and not self._hooked(assign))
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
        return set(sunk)

    def _gen_comb_assign(self, exprgen: ExprGen, index: int) -> None:
        assign = self._ir.comb_assigns[index]
        name = assign.target.name
        code = exprgen.code(self._planned(assign.value, self._plan.expr))
        width = self._ir.signals[name].width
        if exprgen.width_of(assign.value) > width:
            if self.hooks is not None:
                code = self.hooks.trunc(
                    code[0], width, getattr(assign.target, "line", 0), name,
                ), COND
            else:
                code = f"{paren(code, BAND)} & {mask_of(width)}", BAND
        if index in self._sunk:
            self._inlined[name] = code  # written where it is read
        else:
            self._emit.line(f"v_{name} = {code[0]}")

    def _gen_comb_block(self, exprgen: ExprGen, index: int) -> None:
        comb = self._ir.comb_blocks[index]
        stmtgen = StmtGen(
            exprgen=exprgen,
            emitter=self._emit,
            write_target=lambda target, code: self._emit.line(
                f"v_{target.name} = {code}"
            ),
            read_target_current=lambda name: f"v_{name}",
            mem_write=self._forbid_comb_mem_write,
            is_memory=lambda name: name in self._mem_slot,
            target_width=lambda name: self._ir.signals[name].width,
            hooks=self.hooks,
        )
        for name in comb.defines:
            self._emit.line(f"v_{name} = 0")
        stmtgen.gen_stmts(self._planned(comb.body, self._plan.body))

    @staticmethod
    def _forbid_comb_mem_write(name: str, addr: str, value: str, line: int) -> None:
        raise CodegenError(
            f"memory {name!r} may only be written in always @(posedge)", line
        )

    def _child(self, index: int) -> ModuleIR:
        return self._netlist.modules[self._ir.instances[index].child_key]

    def _gen_instance_out(self, exprgen: ExprGen, index: int,
                          in_cycle: bool) -> None:
        """Call one child's eval_out and bind the outputs this function
        owns: the settled ones in eval_out, the unsettled ones in cycle
        (which calls iff an argument reads an unsettled signal, i.e.
        iff eval_out could not have passed the real arguments)."""
        ir = self._ir
        inst = ir.instances[index]
        binds = {p: t for p, t in inst.output_conns.items()
                 if p not in inst.registered_ports}
        if in_cycle:
            if self._unsettled.isdisjoint(inst.comb_reads):
                return
            binds = {p: t for p, t in binds.items() if t in self._unsettled}
        else:
            elsewhere = {t for i, _, t in ir.early_bind if i == index}
            elsewhere |= self._unsettled
            binds = {p: t for p, t in binds.items() if t not in elsewhere}
            if not binds:
                return  # its own cycle evaluates it, with every input
        ports = self._child(index).comb_input_ports
        args = self._child_args(exprgen, inst, ports)
        self._call_eval_out(index, binds, _pass(ports, args))

    def _call_eval_out(self, index: int, binds: Dict[str, str], args: str) -> None:
        """Call child ``index``'s eval_out with ``args`` (:meth:`_pass`),
        its result bound by one unpack: ``binds`` maps child output ->
        local, the rest land in ``_``; a call that only refreshes the
        child's memo (nothing bound) assigns nothing."""
        names = [f"v_{binds[p]}" if p in binds else "_"
                 for p in self._child(index).outputs]
        lhs = f"({', '.join(names)}, ) = " if binds else ""
        ref = self._emit.fresh("c")
        self._emit.line(f"{ref} = ch[{index}]")
        self._emit.line(
            f"{lhs}{ref}.code.eval_out_fn({ref}.state, {ref}.children{args})"
        )

    def _output_ref(self, name: str) -> str:
        sig = self._ir.signals[name]
        if sig.state_index is not None:
            # Registered outputs expose the current (pre-edge) value.
            return f"s[{sig.state_index}]"
        return f"v_{name}"

    # -- phase 1: eval_out --------------------------------------------------------

    def _gen_eval_out(self) -> FunctionEmitter:
        ir = self._ir
        key_slot = self.layout.cache_key_slot
        exprgen, reads = self._open_body(zeroed=self._unsettled)
        body = self._emit
        self._sunk = self._sink(in_cycle=False)
        self._gen_comb_body(exprgen, in_cycle=False)
        returns = [self._output_ref(name) for name in ir.outputs]
        body.line(f"_ret = {_flat(returns)}")
        body.line(f"s[{key_slot}] = _ck")
        body.line(f"s[{key_slot + 1}] = _ret")
        if self._stash:
            body.line(f"s[{key_slot + 2}] = {_slots(_locals(self._stash))}")
        body.line("return _ret")

        comb = self._comb_ports
        self._emit = fn = FunctionEmitter()
        with block(fn, f"def eval_out(s, ch{_params(comb)}):"):
            # A packed eval_out's tuple is its memo key as it stands.
            key = "_in" if packs(comb) else _flat([f"i_{n}" for n in comb])
            fn.line(f"_ck = {key}")
            with block(fn, f"if s[{key_slot}] == _ck:"):
                fn.line(f"return s[{key_slot + 1}]")
            _unpack_inputs(fn, comb)
            if self.hooks is not None:
                self.hooks.bind_poison(fn)
            self._bind_memories(reads)
            self._bind_registered_child_outputs(
                reads | set(self._stash) | set(ir.outputs)
            )
            fn.splice(body)
        return fn

    # -- phase 2: cycle -------------------------------------------------------------

    def _gen_cycle(self) -> FunctionEmitter:
        ir = self._ir
        num_regs = ir.num_regs
        key_slot = self.layout.cache_key_slot
        exprgen, reads = self._open_body()
        body = self._emit
        written = [n for n in self._mem_slot if n in self._seq_writers]
        for name in written:
            body.line(f"_pw_{name} = s[{self._mem_slot[name].pending_slot}]")
        hooks = self.hooks
        if hooks is not None:
            hooks.open_cycle(body)
        self._sunk = self._sink(in_cycle=True)
        self._gen_comb_body(exprgen, in_cycle=True)
        for block_id, seq in enumerate(ir.seq_blocks):
            self._gen_seq_block(exprgen, seq, block_id)
        skip = self._plan.skip_children
        for index, inst in enumerate(ir.instances):
            if index in skip:
                # Pure subtree: stateless, so its cycle would only
                # recompute values nothing commits.  Skip it.
                continue
            child = self._netlist.modules[inst.child_key]
            ref = body.fresh("c")
            body.line(f"{ref} = ch[{index}]")
            args = _pass(child.inputs, self._child_args(exprgen, inst, child.inputs))
            body.line(f"{ref}.code.cycle_fn({ref}.state, {ref}.children{args})")
        # The commit, after every child's: nothing above reads this
        # module's state again.  Pending == current held on entry (the
        # layout invariant), so this one copy is the whole edge.
        if num_regs:
            body.line(f"s[0:{num_regs}] = s[{num_regs}:{2 * num_regs}]")
        body.line(f"s[{key_slot}] = None")
        if hooks is not None:
            hooks.commit_regs(body)
        for name in written:
            spec = self._mem_slot[name]
            with block(body, f"if _pw_{name}:"):
                body.line(f"_m = s[{spec.slot}]")
                with block(body, f"for _a, _v in _pw_{name}:"):
                    body.line("_m[_a] = _v")
                    if hooks is not None:
                        hooks.commit_mem_word(body, name)
                body.line(f"del _pw_{name}[:]")

        self._stash = [
            name for name, sig in ir.signals.items()
            if name in reads and sig.kind != "input"
            and name not in self._unsettled
        ]
        self._emit = fn = FunctionEmitter()
        with block(fn, f"def cycle(s, ch{_params(ir.inputs)}):"):
            _unpack_inputs(fn, ir.inputs)
            comb = self._comb_ports
            key = _flat([f"i_{name}" for name in comb])
            args = _pass(comb, [f"i_{name}" for name in comb])
            if packs(comb):  # the key is the argument: build it once
                fn.line(f"_ck = {key}")
                key, args = "_ck", ", _ck"
            # The one compare that makes a stale tuple impossible:
            # a poke, restore, swap, input change or a parent that
            # did not call in phase 1 all land here.
            with block(fn, f"if s[{key_slot}] != {key}:"):
                fn.line(f"eval_out(s, ch{args})")
            if self._stash:
                fn.line(f"{_slots(_locals(self._stash))} = s[{key_slot + 2}]")
            if hooks is not None:
                hooks.bind_poison(fn)
            self._bind_memories(reads)  # registered child outputs: the tuple
            fn.splice(body)
        return fn

    def _gen_seq_block(self, exprgen: ExprGen, seq, block_id: int) -> None:
        num_regs = self._ir.num_regs

        def write_target(target: ast.LValue, code: str) -> None:
            sig = self._ir.signals[target.name]
            if sig.state_index is None:
                raise CodegenError(
                    f"sequential assignment to non-register {target.name!r}",
                    target.line,
                )
            self._emit.line(f"s[{sig.state_index + num_regs}] = {code}")

        def read_pending(name: str) -> str:
            sig = self._ir.signals[name]
            return f"s[{sig.state_index + num_regs}]"

        def mem_write(name: str, addr: str, value: str, line: int) -> None:
            spec = self._mem_slot[name]
            if spec.depth & (spec.depth - 1) == 0:
                addr_code = f"({addr}) & {spec.depth - 1}"
            else:
                addr_code = f"({addr}) % {spec.depth}"
            self._emit.line(
                f"_pw_{name}.append(({addr_code}, "
                f"({value}) & {mask_of(spec.width)}))"
            )

        stmtgen = StmtGen(
            exprgen=exprgen,
            emitter=self._emit,
            write_target=write_target,
            read_target_current=read_pending,
            mem_write=mem_write,
            is_memory=lambda name: name in self._mem_slot,
            target_width=lambda name: self._ir.signals[name].width,
            hooks=self.hooks,
            block_id=block_id,
        )
        stmtgen.gen_stmts(self._planned(seq.body, self._plan.body))


def compile_module(
    ir: ModuleIR,
    netlist: Netlist,
    build: BuildConfig = BuildConfig(),
    runtime: object = None,
    opt_plan: OptPlan = NO_OPT,
    key: Optional[ModuleKey] = None,
) -> CompiledModule:
    """Compile one specialization into a :class:`CompiledModule`.

    Under ``build.sanitize`` the generated source is instrumented with
    calls into ``runtime`` (a :class:`repro.sanitize.SanitizerRuntime`),
    bound as the module-global ``_san`` at exec time; ``build.san_elide``
    says whether the instrumenter drops the sites their widths make safe
    and shortens the rest.

    ``opt_plan`` (see :mod:`repro.passes`) says what to fold, which
    dead logic to drop and, at opt=full, which pure subtrees' ``cycle``
    to skip.

    ``key`` is the cache address the pass pipeline compiles for; it
    names the ``linecache`` entry.  Direct callers have none and get
    the bare ``(spec, build)`` key.
    """
    if key is None:
        key = ModuleKey(ir.key, build=build)
    with obs.span("codegen.compile_module", key=ir.key,
                  sanitize=build.sanitize, opt=build.opt):
        compiler = _ModuleCompiler(ir, netlist, build, opt_plan)
        source = compiler.generate()
        fns = exec_source(source, key.filename, build, runtime)
    obs.incr("codegen.modules_compiled")
    hooks = compiler.hooks
    reg_slots = {
        name: sig.state_index
        for name, sig in ir.signals.items()
        if sig.state_index is not None
    }
    return CompiledModule(
        key=ir.key,
        name=ir.name,
        ir=ir,
        source=source,
        inputs=tuple(ir.inputs),
        comb_input_ports=tuple(compiler.comb_ports),
        outputs=tuple(ir.outputs),
        num_regs=ir.num_regs,
        layout=compiler.layout,
        reg_slots=reg_slots,  # type: ignore[arg-type]
        reg_widths={name: ir.signals[name].width for name in reg_slots},
        mem_specs=dict(compiler._mem_slot),
        child_insts=tuple((i.name, i.child_key) for i in ir.instances),
        source_hash=hashlib.sha256(source.encode()).hexdigest(),
        build=build,
        san_sites=hooks.sites if hooks is not None else 0,
        san_elided=hooks.elided if hooks is not None else 0,
        eval_out_packed=packs(compiler.comb_ports),
        cycle_packed=packs(ir.inputs),
        **fns,
    )


def site_count(ir: ModuleIR, netlist: Netlist,
               unit: Optional[Tuple[str, int]] = None) -> int:
    """Sanitizer sites the generator writes for module ``ir``, or for
    its comb schedule ``unit`` (``("assign" | "block", index)``) alone.

    The census is the generator: this runs the emitter with a fresh
    instrumenter and no plan, so it counts what ``san_sites`` counts
    and nothing else decides where a hook goes.  The optimizer asks it
    which dead units and pure children it may drop under sanitize
    (zero: none of their findings would be silenced).
    """
    compiler = _ModuleCompiler(ir, netlist, BuildConfig(sanitize=True))
    if unit is None:
        compiler.generate()
    else:
        compiler.gen_unit(*unit)
    return compiler.hooks.sites


def exec_source(
    source: str, filename: str, build: BuildConfig, runtime: object
) -> Dict[str, Callable]:
    """Exec generated ``source`` and return the two entry points as
    :class:`CompiledModule` keyword arguments (also how the artifact
    store rehydrates a module).  A comb loop raises the
    ``ConvergenceError`` global; instrumented source binds ``runtime``
    as its ``_san`` global."""
    namespace: Dict[str, object] = {"ConvergenceError": ConvergenceError}
    if build.sanitize:
        namespace["_san"] = runtime
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102
    linecache.cache[filename] = (
        len(source), None, source.splitlines(keepends=True), filename
    )
    return {
        "eval_out_fn": namespace["eval_out"],
        "cycle_fn": namespace["cycle"],
    }

