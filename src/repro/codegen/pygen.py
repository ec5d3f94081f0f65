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

Each combinational unit is evaluated once per cycle.  A signal is
*settled in phase 1* when it depends on no input outside the
``eval_out`` arguments (``ModuleIR.signal_deps``); ``eval_out`` emits
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
points under ``src/``.

Modules with a genuine combinational loop (``needs_fixpoint``) take
every input in ``eval_out``, carry their comb locals between passes in
the memo-key slot instead of memoizing, and re-run the whole
combinational body in ``cycle`` from the carried values.

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
(built here, one per sanitized module compile, from the
:class:`~repro.sanitize.elide.ElisionPlan` the sanitize-plan pass
derived): it writes every hook, at the sites :mod:`exprgen` comes to and
at the four structural points of ``cycle`` (opening, register commit,
memory-word commit, module epilogue), and counts them; a clean build
has ``None`` in its place.  :func:`site_count` is that same emitter
run for its count alone.
"""

from __future__ import annotations

import hashlib
import linecache
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from .. import obs
from ..hdl import ast_nodes as ast
from ..hdl.consteval import stmt_reads_writes
from ..hdl.errors import CodegenError
from ..ir.netlist import ModuleIR, Netlist
from ..sanitize.elide import EMPTY_PLAN, ElisionPlan
from ..sanitize.instrument import Instrumenter
from .build import BuildConfig, ModuleKey
from .emitter import FunctionEmitter, block
from .exprgen import ExprGen, Resolver, StmtGen, mask_of
from .optplan import NO_OPT, OptPlan

CACHE_SLOTS = 3  # eval_out memo key, memo value, settled locals for cycle


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
    compile_seconds: float
    build: BuildConfig
    # Sanitizer accounting (repro.sanitize.instrument): the hooks the
    # generator came to while emitting this build (an expression emitted
    # in both entry points counts twice), and how many of them the
    # stable-tier value facts let it write as clean code.
    san_sites: int = 0
    san_elided: int = 0
    # Registers proven constant from reset (env tier): hot reload
    # initializes swap-introduced registers from this map instead of
    # poisoning them.
    reg_const_init: Dict[str, int] = field(default_factory=dict)

    @property
    def sanitizer(self):
        """The SanitizerRuntime this code reports to (clean build: None)."""
        return self.cycle_fn.__globals__.get("_san")

    def make_state(self) -> list:
        state: list = [0] * (2 * self.num_regs)
        state.extend([None] * CACHE_SLOTS)  # eval_out memo: cold
        ordered = sorted(self.mem_specs.values(), key=lambda m: m.slot)
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
                 plan: OptPlan = NO_OPT, elision: ElisionPlan = EMPTY_PLAN):
        self._ir = ir
        self._netlist = netlist
        self._mux_style = build.mux_style
        self._emit = FunctionEmitter()
        self._comb_ports = list(ir.comb_input_ports)
        if ir.needs_fixpoint:
            # A genuine comb loop: memoizing would freeze the iteration
            # the runtime uses to settle it, and seq-only inputs cannot
            # be deferred reliably — fall back to the conservative ABI.
            self._comb_ports = list(ir.inputs)
            plan = NO_OPT  # comb locals round-trip the memo slot
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
            for name in stmt_reads_writes(blk.body)[1]:
                self._seq_writers.setdefault(name, set()).add(bid)
        # The sanitizer flavour: every hook this compile writes.
        self.hooks = Instrumenter(
            ir, layout, self._mem_slot, self._seq_writers, elision
        ) if sanitize else None

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

        resolver = Resolver(
            signal_ref=signal_ref,
            signal_width=ir.signal_width,
            memory_ref=memory_ref,
            memory_width=lambda n: self._mem_slot[n].width,
            memory_depth=lambda n: self._mem_slot[n].depth,
            hooks=self.hooks,
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

    def _arg_list(self, ports: List[str]) -> str:
        return "".join(f", i_{name}" for name in ports)

    @staticmethod
    def _tuple(prefix: str, names: List[str]) -> str:
        return "(" + "".join(f"{prefix}{name}, " for name in names) + ")"

    def _child_args(self, exprgen: ExprGen, inst, ports: List[str]) -> str:
        """Arguments for ``ports`` of one child, in range for the port
        (the calling convention): an expression statically wider than
        its port is masked here, a literal folded; the rest already fit."""
        signals = self._netlist.modules[inst.child_key].signals
        args = ""
        for port in ports:
            expr = self._plan.expr(inst.input_conns[port])
            code = exprgen.gen(expr)
            if exprgen.width_of(expr) > signals[port].width:
                mask = mask_of(signals[port].width)
                if isinstance(expr, ast.Num):
                    code = str(expr.value & mask)
                else:
                    code = f"(({code}) & {mask})"
            args += ", " + code
        return args

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
            ports = self._child_comb_ports(self._ir.instances[index])
            self._call_eval_out(index, binds, ", 0" * len(ports))

    def _comb_signal_names(self) -> List[str]:
        """Every comb-driven signal local, in deterministic order."""
        names = [assign.defines for assign in self._ir.comb_assigns]
        for comb in self._ir.comb_blocks:
            names.extend(comb.defines)
        for inst in self._ir.instances:
            names.extend(inst.comb_defines)
        return list(dict.fromkeys(names))

    def _gen_fixpoint_prelude(self) -> None:
        """For genuine comb loops: seed every comb local from the value
        slot (carried across fixpoint passes), or zero on the first
        pass of a cycle.  The commit clears the slot."""
        names = self._comb_signal_names()
        if not names:
            return
        slot = self.layout.cache_key_slot  # doubles as the carry slot
        with block(self._emit, f"if s[{slot}] is None:"):
            for name in names:
                self._emit.line(f"v_{name} = 0")
        with block(self._emit, "else:"):
            self._emit.line(f"{self._tuple('v_', names)} = s[{slot}]")

    def _gen_fixpoint_save(self) -> None:
        names = self._comb_signal_names()
        if names:
            self._emit.line(
                f"s[{self.layout.cache_key_slot}] = {self._tuple('v_', names)}"
            )

    def _runs_here(self, defines, in_cycle: bool) -> bool:
        """Whether the assign or block defining ``defines`` belongs to
        this function.  (All defines of one block share one dependency
        set, so a block is never split; a fixpoint module re-runs its
        whole body in both.)"""
        if self._ir.needs_fixpoint:
            return True
        return in_cycle != self._unsettled.isdisjoint(defines)

    def _gen_comb_body(self, exprgen: ExprGen, in_cycle: bool) -> None:
        ir = self._ir
        dead_assigns = set(self._plan.dead_assigns)
        dead_blocks = set(self._plan.dead_blocks)
        if ir.needs_fixpoint:
            self._gen_fixpoint_prelude()
        if ir.needs_fixpoint or not in_cycle:
            self._gen_early_binds()
        for unit_kind, index in ir.schedule:
            if unit_kind == "assign":
                if index not in dead_assigns and self._runs_here(
                    (ir.comb_assigns[index].defines,), in_cycle
                ):
                    self._gen_comb_assign(exprgen, index)
            elif unit_kind == "block":
                if index not in dead_blocks and self._runs_here(
                    ir.comb_blocks[index].defines, in_cycle
                ):
                    self._gen_comb_block(exprgen, index)
            else:
                self._gen_instance_out(exprgen, index, in_cycle)

    def _gen_comb_assign(self, exprgen: ExprGen, index: int) -> None:
        assign = self._ir.comb_assigns[index]
        code = exprgen.gen(self._plan.expr(assign.value))
        width = self._ir.signals[assign.target.name].width
        if exprgen.width_of(assign.value) > width:
            if self.hooks is not None:
                code = self.hooks.trunc(
                    code, width,
                    getattr(assign.target, "line", 0),
                    assign.target.name,
                )
            else:
                code = f"(({code}) & {mask_of(width)})"
        self._emit.line(f"v_{assign.target.name} = {code}")

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
        stmtgen.gen_stmts(self._plan.body(comb.body))

    @staticmethod
    def _forbid_comb_mem_write(name: str, addr: str, value: str, line: int) -> None:
        raise CodegenError(
            f"memory {name!r} may only be written in always @(posedge)", line
        )

    def _child_comb_ports(self, inst) -> List[str]:
        child = self._netlist.modules[inst.child_key]
        return child.inputs if child.needs_fixpoint else child.comb_input_ports

    def _gen_instance_out(self, exprgen: ExprGen, index: int,
                          in_cycle: bool) -> None:
        """Call one child's eval_out and bind the outputs this function
        owns: the settled ones in eval_out, the unsettled ones in cycle
        (which calls iff an argument reads an unsettled signal, i.e.
        iff eval_out could not have passed the real arguments)."""
        ir = self._ir
        inst = ir.instances[index]
        child = self._netlist.modules[inst.child_key]
        binds = {p: t for p, t in inst.output_conns.items()
                 if p not in inst.registered_ports}
        if ir.needs_fixpoint:
            pass  # the whole body, every pass
        elif in_cycle:
            arg_reads = inst.reads if child.needs_fixpoint else inst.comb_reads
            if self._unsettled.isdisjoint(arg_reads):
                return
            binds = {p: t for p, t in binds.items() if t in self._unsettled}
        else:
            elsewhere = {t for i, _, t in ir.early_bind if i == index}
            elsewhere |= self._unsettled
            binds = {p: t for p, t in binds.items() if t not in elsewhere}
            if not binds:
                return  # its own cycle evaluates it, with every input
        args = self._child_args(exprgen, inst, self._child_comb_ports(inst))
        self._call_eval_out(index, binds, args)

    def _call_eval_out(self, index: int, binds: Dict[str, str], args: str) -> None:
        """Call child ``index``'s eval_out, its result bound by one unpack:
        ``binds`` maps child output -> local, the rest land in ``_``; a call
        that only refreshes the child's memo (nothing bound) assigns nothing."""
        child = self._netlist.modules[self._ir.instances[index].child_key]
        names = [f"v_{binds[p]}" if p in binds else "_" for p in child.outputs]
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
        use_cache = not ir.needs_fixpoint
        key_slot = self.layout.cache_key_slot
        exprgen, reads = self._open_body(zeroed=self._unsettled)
        body = self._emit
        self._gen_comb_body(exprgen, in_cycle=False)
        if not use_cache:
            self._gen_fixpoint_save()
        returns = "".join(f"{self._output_ref(name)}, " for name in ir.outputs)
        body.line(f"_ret = ({returns})")
        if use_cache:
            body.line(f"s[{key_slot}] = _ck")
            body.line(f"s[{key_slot + 1}] = _ret")
            if self._stash:
                body.line(
                    f"s[{key_slot + 2}] = {self._tuple('v_', self._stash)}"
                )
        body.line("return _ret")

        self._emit = fn = FunctionEmitter()
        with block(fn, f"def eval_out(s, ch{self._arg_list(self._comb_ports)}):"):
            if use_cache:
                fn.line(f"_ck = {self._tuple('i_', self._comb_ports)}")
                with block(fn, f"if s[{key_slot}] == _ck:"):
                    fn.line(f"return s[{key_slot + 1}]")
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
            args = self._child_args(exprgen, inst, child.inputs)
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

        fixpoint = ir.needs_fixpoint  # its body re-ran from the carry slot
        if not fixpoint:
            self._stash = [
                name for name, sig in ir.signals.items()
                if name in reads and sig.kind != "input"
                and name not in self._unsettled
            ]
        self._emit = fn = FunctionEmitter()
        with block(fn, f"def cycle(s, ch{self._arg_list(ir.inputs)}):"):
            if not fixpoint:
                comb = self._comb_ports
                # The one compare that makes a stale tuple impossible:
                # a poke, restore, swap, input change or a parent that
                # did not call in phase 1 all land here.
                with block(
                    fn, f"if s[{key_slot}] != {self._tuple('i_', comb)}:"
                ):
                    fn.line(f"eval_out(s, ch{self._arg_list(comb)})")
                if self._stash:
                    fn.line(
                        f"{self._tuple('v_', self._stash)} = s[{key_slot + 2}]"
                    )
            self._bind_memories(reads)
            # Elsewhere registered child outputs come in the tuple.
            self._bind_registered_child_outputs(reads if fixpoint else set())
            fn.splice(body)
        return fn

    def _gen_seq_block(self, exprgen: ExprGen, seq, block_id: int) -> None:
        num_regs = self._ir.num_regs
        hooks = self.hooks

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
            if hooks is not None:
                addr = hooks.mem_write_addr(name, addr, line)
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
            hooks=hooks,
            block_id=block_id,
        )
        stmtgen.gen_stmts(self._plan.body(seq.body))


def compile_module(
    ir: ModuleIR,
    netlist: Netlist,
    build: BuildConfig = BuildConfig(),
    runtime: object = None,
    opt_plan: OptPlan = NO_OPT,
    elision: ElisionPlan = EMPTY_PLAN,
    key: Optional[ModuleKey] = None,
) -> CompiledModule:
    """Compile one specialization into a :class:`CompiledModule`.

    Under ``build.sanitize`` the generated source is instrumented with
    calls into ``runtime`` (a :class:`repro.sanitize.SanitizerRuntime`),
    bound as the module-global ``_san`` at exec time; ``elision`` says
    which sites the value facts let the instrumenter drop or shorten,
    and its ``const_init`` rides along for hot reload.

    ``opt_plan`` (see :mod:`repro.passes`) says what to fold, which
    dead logic to drop and, at opt=full, which pure subtrees' ``cycle``
    to skip.

    ``key`` is the cache address the pass pipeline compiles for; it
    names the ``linecache`` entry.  Direct callers have none and get
    the bare ``(spec, build)`` key.
    """
    if key is None:
        key = ModuleKey(ir.key, build=build)
    started = time.perf_counter()
    with obs.span("codegen.module", key=ir.key, sanitize=build.sanitize,
                  opt=build.opt):
        compiler = _ModuleCompiler(ir, netlist, build, opt_plan, elision)
        source = compiler.generate()
        fns = exec_source(source, key.filename, build, runtime)
    elapsed = time.perf_counter() - started
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
        compile_seconds=elapsed,
        build=build,
        san_sites=hooks.sites if hooks is not None else 0,
        san_elided=hooks.elided if hooks is not None else 0,
        reg_const_init=dict(elision.const_init),
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
    store rehydrates a module).  Instrumented source binds ``runtime``
    as its ``_san`` global."""
    namespace: Dict[str, object] = (
        {"_san": runtime} if build.sanitize else {}
    )
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102
    linecache.cache[filename] = (
        len(source), None, source.splitlines(keepends=True), filename
    )
    return {
        "eval_out_fn": namespace["eval_out"],
        "cycle_fn": namespace["cycle"],
    }


def compile_netlist(
    netlist: Netlist,
    build: BuildConfig = BuildConfig(),
    runtime: object = None,
) -> Dict[str, CompiledModule]:
    """Compile every specialization in ``netlist`` (bottom-up).

    Returns key -> CompiledModule.  The total work is proportional to
    the number of *unique* specializations, not instances — a 256-core
    mesh compiles its core modules once.
    """
    compiled: Dict[str, CompiledModule] = {}

    def visit(key: str) -> None:
        if key in compiled:
            return
        ir = netlist.modules[key]
        for inst in ir.instances:
            visit(inst.child_key)
        compiled[key] = compile_module(ir, netlist, build, runtime)

    visit(netlist.top)
    return compiled
