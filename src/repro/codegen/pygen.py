"""Shared-module code generation (the LiveSim compilation model).

Each module specialization compiles to exactly one set of functions,
regardless of how many instances exist.  Instances share the code
object and differ only in their state arrays, reproducing the paper's
Fig. 4d: *"Each module is only compiled once, which drastically reduces
the amount of code that needs to be compiled."*

Evaluation is two-phase, the standard cycle-simulator structure:

* ``eval_out(state, children, *comb_inputs) -> outputs`` — a *pure*
  function of the instance state and the inputs that combinationally
  affect outputs (see :mod:`repro.ir.dataflow`).  Results are memoized
  per instance on the argument tuple, so repeated calls within one
  cycle cost a tuple compare.  Sequential-only inputs (resets, stalls,
  enables) are NOT arguments — which is what lets a pipeline with
  feedback (branch redirect into fetch, writeback into decode)
  schedule in one ordered pass with no fixed-point iteration.
* ``eval_seq(state, children, *all_inputs)`` — runs once per cycle
  with every input settled: recomputes the combinational values it
  needs (child outputs come from the memoized ``eval_out``), computes
  pending register values and memory writes, and recurses into
  children's ``eval_seq``.
* ``tick(state, children)`` — commits pending values and invalidates
  the memo (the clock edge).

State array layout per instance (a plain Python list)::

    [0 .. NR)          current register values
    [NR .. 2*NR)       pending (next-cycle) values
    [2*NR]             eval_out memo key (args tuple or None)
    [2*NR + 1]         eval_out memo value (outputs tuple)
    [2*NR+2 + j]       memory j contents (list of ints)
    [2*NR+2+NM + j]    memory j pending writes (list of (addr, value))

Anything that mutates state outside ``tick`` (snapshot restore, pokes,
direct memory writes) must invalidate the memo — see
:meth:`repro.sim.stage.StageInst.invalidate_cache`.
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
from .build import BuildConfig, ModuleKey
from .emitter import FunctionEmitter, block
from .exprgen import ExprGen, Resolver, StmtGen, mask_of
from .optplan import OptPlan, optimize_stmts, substitute_expr

CACHE_SLOTS = 2


class StateLayout(NamedTuple):
    """Where each region of an instance's state list starts."""

    cache_key_slot: int  # eval_out memo key; the value sits one above
    mem_base: int  # NM contents lists, then NM pending-write lists
    # Sanitized builds (repro.sanitize) add NM + 2 slots:
    #   [sanitize_base]           register poison bitmap (bit i <-> reg i)
    #   [sanitize_base + 1 + j]   memory j word-poison bitmap
    #   [nw_slot]                 per-cycle nonblocking-write dict
    sanitize_base: int
    reg_poison_slot: int  # -1 in clean builds
    nw_slot: int  # -1 in clean builds
    # opt=full builds append one (input-key tuple, cached outputs) slot
    # pair per sensitivity guard, after the sanitizer region.
    sens_base: int
    state_size: int


def state_layout(
    num_regs: int, num_mems: int, sanitize: bool, guards: int
) -> StateLayout:
    cache_key_slot = 2 * num_regs
    mem_base = cache_key_slot + CACHE_SLOTS
    sanitize_base = mem_base + 2 * num_mems
    sens_base = sanitize_base + (num_mems + 2 if sanitize else 0)
    return StateLayout(
        cache_key_slot=cache_key_slot,
        mem_base=mem_base,
        sanitize_base=sanitize_base,
        reg_poison_slot=sanitize_base if sanitize else -1,
        nw_slot=sanitize_base + 1 + num_mems if sanitize else -1,
        sens_base=sens_base,
        state_size=sens_base + 2 * guards,
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
    eval_seq_fn: Callable
    tick_fn: Callable
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
    interface_fp: str
    source_hash: str
    compile_seconds: float
    build: BuildConfig
    sens_slot_count: int = 0  # opt=full sensitivity guards
    # Proof-driven elision accounting (repro.sanitize.elide): total
    # instrumentation sites this build considered, and how many the
    # stable-tier value facts removed or downgraded.
    san_sites: int = 0
    san_elided: int = 0
    # Registers proven constant from reset (env tier): hot reload
    # initializes swap-introduced registers from this map instead of
    # poisoning them.
    reg_const_init: Dict[str, int] = field(default_factory=dict)

    def make_state(self) -> list:
        state: list = [0] * (2 * self.num_regs)
        state.extend([None, None])  # eval_out memo (key, value)
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
        for _ in range(self.sens_slot_count):
            state.extend([None, None])  # guard (key, outputs) — cold miss
        return state


# ----------------------------------------------------------------------------
# Module compilation
# ----------------------------------------------------------------------------


class _ModuleCompiler:
    def __init__(self, ir: ModuleIR, netlist: Netlist, build: BuildConfig,
                 plan: Optional[OptPlan] = None, elision=None):
        self._ir = ir
        self._netlist = netlist
        self._mux_style = build.mux_style
        self._sanitize = sanitize = build.sanitize
        # ElisionPlan (repro.sanitize.elide), sanitized builds only.
        self._elide = elision if sanitize else None
        self._san_sites = 0
        self._san_elided = 0
        self._emit = FunctionEmitter()
        self._comb_ports = list(ir.comb_input_ports)
        if ir.needs_fixpoint:
            # A genuine comb loop: memoizing would freeze the iteration
            # the runtime uses to settle it, and seq-only inputs cannot
            # be deferred reliably — fall back to the conservative ABI.
            self._comb_ports = list(ir.inputs)
            plan = None  # comb locals round-trip the memo slot: no opt
        self._plan = plan
        self._seq_phase = False
        self._dead_assigns: Set[int] = set()
        self._dead_blocks: Set[int] = set()
        self._guard_pos: Dict[int, int] = {}
        self._opt_bodies: Dict[Tuple[str, int], list] = {}
        if plan is not None:
            self._dead_assigns = set(plan.dead_assigns)
            self._dead_blocks = set(plan.dead_blocks)
            self._guard_pos = {
                blk: pos for pos, blk in enumerate(plan.guard_blocks)
            }
            # Pre-transform block bodies once: constant substitution plus
            # static branch pruning, shared between eval_out and eval_seq.
            for i, comb in enumerate(ir.comb_blocks):
                self._opt_bodies[("comb", i)] = optimize_stmts(
                    comb.body, plan.consts, plan.const_widths
                )
            for i, seq in enumerate(ir.seq_blocks):
                self._opt_bodies[("seq", i)] = optimize_stmts(
                    seq.body, plan.consts, plan.const_widths
                )
        nm = len(ir.memories)
        self.layout = layout = state_layout(
            ir.num_regs, nm, sanitize, self.sens_slot_count
        )
        self._poison_slot = layout.reg_poison_slot
        self._nw_slot = layout.nw_slot
        self._sens_base = layout.sens_base
        # Instrumentation sites (module, signal, file-absolute line),
        # emitted as a literal _SAN_I table inside the generated source
        # so store rehydration carries them for free.
        self._san_infos: List[Tuple[str, str, int]] = []
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

    @property
    def comb_ports(self) -> List[str]:
        return self._comb_ports

    @property
    def sens_slot_count(self) -> int:
        return len(self._plan.guard_blocks) if self._plan is not None else 0

    # -- optimization plan plumbing -------------------------------------------

    def _expr(self, expr):
        """The expression codegen actually emits: constant-substituted
        (and folded) under an active plan, verbatim otherwise."""
        if self._plan is None:
            return expr
        return substitute_expr(
            expr, self._plan.consts, self._plan.const_widths
        )

    def _comb_body_stmts(self, index: int) -> list:
        if self._plan is None:
            return self._ir.comb_blocks[index].body
        return self._opt_bodies[("comb", index)]

    def _seq_body_stmts(self, index: int) -> list:
        if self._plan is None:
            return self._ir.seq_blocks[index].body
        return self._opt_bodies[("seq", index)]

    def _skip_children(self) -> Set[int]:
        if self._plan is None:
            return set()
        return set(self._plan.skip_children)

    # -- name resolution ------------------------------------------------------

    def _resolver(self, available_inputs: Optional[Set[str]] = None) -> Resolver:
        """``available_inputs`` restricts which input ports may be read;
        others lower to literal 0.

        Used by eval_out, whose arguments are only the comb-relevant
        inputs: the per-output dataflow guarantees that any value
        tainted by a zeroed input cannot reach an output (if it could,
        the input would have been comb-relevant), so the zeros only
        flow into dead-for-phase-1 values that eval_seq recomputes with
        the real inputs.
        """
        ir = self._ir

        def signal_ref(name: str) -> str:
            sig = ir.signals.get(name)
            if sig is None:
                raise CodegenError(f"unknown signal {name!r} in {ir.name}")
            if sig.kind == "input":
                if available_inputs is not None and name not in available_inputs:
                    return "0"
                return f"i_{name}"
            if sig.state_index is not None:
                return f"s[{sig.state_index}]"
            return f"v_{name}"

        def signal_width(name: str) -> Optional[int]:
            sig = ir.signals.get(name)
            return sig.width if sig is not None else None

        def memory_ref(name: str) -> Optional[str]:
            spec = self._mem_slot.get(name)
            return f"_m_{name}" if spec is not None else None

        resolver = Resolver(
            signal_ref=signal_ref,
            signal_width=signal_width,
            memory_ref=memory_ref,
            memory_width=lambda n: self._mem_slot[n].width,
            memory_depth=lambda n: self._mem_slot[n].depth,
        )
        if self._sanitize:
            self._attach_sanitize_hooks(resolver)
        return resolver

    # -- sanitizer instrumentation (repro.sanitize) ---------------------------

    def _seq_writer_blocks(self) -> Dict[str, Set[int]]:
        """Signal -> seq block ids that may write it, over the ORIGINAL
        bodies (optimization only removes writes, so this map is an
        over-approximation of the emitted writers — safe for the
        single-writer nw fast path)."""
        cached = getattr(self, "_seq_writers", None)
        if cached is None:
            cached = {}
            for bid, blk in enumerate(self._ir.seq_blocks):
                _, writes = stmt_reads_writes(blk.body)
                for name in writes:
                    cached.setdefault(name, set()).add(bid)
            self._seq_writers = cached
        return cached

    def _san_info(self, signal: str, line: int) -> str:
        """Register one instrumentation site; returns its table ref."""
        self._san_infos.append((self._ir.name, signal, line))
        return f"_SAN_I[{len(self._san_infos) - 1}]"

    def _attach_sanitize_hooks(self, resolver: Resolver) -> None:
        ir = self._ir
        elide = self._elide

        def reg_read_hook(name: str, ref: str, line: int) -> Optional[str]:
            sig = ir.signals.get(name)
            if sig is None or sig.state_index is None:
                return None  # inputs and comb wires carry no poison
            self._san_sites += 1
            call = (
                f"_san.rr(s[{self._poison_slot}], {sig.state_index}, "
                f"{ref}, {self._san_info(name, line)})"
            )
            if elide is not None and elide.rr_fast:
                # Inline poison-bit fast path: the hook runs exactly
                # when the bit is set (when it would report/trap), so
                # findings and hit counts are preserved bit-for-bit.
                return (
                    f"{ref} if not s[{self._poison_slot}] >> "
                    f"{sig.state_index} & 1 else {call}"
                )
            return call

        def mem_read_hook(name: str, index_code: str, line: int) -> str:
            spec = self._mem_slot[name]
            self._san_sites += 1
            info = self._san_info(name, line)
            if elide is not None and elide.rr_fast:
                # In-bounds and unpoisoned is the common case; the hook
                # returns mem[index % depth], which equals mem[t] when
                # t < depth, so the fast path is bit-exact and the call
                # is made exactly when it would report.
                t = f"_sv{len(self._san_infos)}"
                return (
                    f"(_m_{name}[{t}] if ({t} := ({index_code})) < "
                    f"{spec.depth} and not s[{spec.poison_slot}] >> {t} & 1 "
                    f"else _san.mr(_m_{name}, s[{spec.poison_slot}], "
                    f"{t}, {info}))"
                )
            return (
                f"_san.mr(_m_{name}, s[{spec.poison_slot}], "
                f"({index_code}), {info})"
            )

        def index_bound_hook(
            name: str, index_code: str, bound: int, line: int
        ) -> str:
            self._san_sites += 1
            if elide is not None and (name, line) in elide.ob_safe:
                self._san_elided += 1
                return index_code  # proven in range for any reg state
            info = self._san_info(name, line)
            if elide is not None and elide.rr_fast:
                # ob returns the index unchanged either way; only call
                # out when it would report (index >= bound).
                t = f"_sv{len(self._san_infos)}"
                return (
                    f"({t} if ({t} := ({index_code})) < {bound} "
                    f"else _san.ob({t}, {bound}, {info}))"
                )
            return f"_san.ob(({index_code}), {bound}, {info})"

        resolver.reg_read_hook = reg_read_hook
        resolver.mem_read_hook = mem_read_hook
        resolver.index_bound_hook = index_bound_hook

    def _trunc_hook(self, value_code: str, declared: int, line: int,
                    target: str) -> str:
        mask = mask_of(declared)
        self._san_sites += 1
        if self._elide is not None and (target, line) in self._elide.tr_safe:
            # Proven to fit: no bits exist above the mask to lose.
            self._san_elided += 1
            return f"(({value_code}) & {mask})"
        info = self._san_info(target, line)
        if self._elide is not None and self._elide.rr_fast:
            # Values are non-negative, so bits above the mask exist
            # exactly when value > mask; tr returns the value, so the
            # call only matters when it would report.
            t = f"_sv{len(self._san_infos)}"
            return (
                f"(({t} if ({t} := ({value_code})) <= {mask} "
                f"else _san.tr({t}, {mask}, {info})) & {mask})"
            )
        return f"(_san.tr(({value_code}), {mask}, {info}) & {mask})"

    # -- generation ------------------------------------------------------------

    def generate(self) -> str:
        self._gen_eval_out()
        self._emit.blank()
        self._gen_eval_seq()
        self._emit.blank()
        self._gen_tick()
        if self._sanitize:
            # Module-level, after the defs: the hooks index it at call
            # time, so ordering relative to the functions is free.
            self._emit.blank()
            self._emit.line(f"_SAN_I = {self._san_infos!r}")
        return self._emit.source()

    def _arg_list(self, ports: List[str]) -> str:
        args = ", ".join(f"i_{name}" for name in ports)
        return (", " + args) if args else ""

    def _mask_inputs(self, ports: List[str]) -> None:
        for name in ports:
            width = self._ir.signals[name].width
            self._emit.line(f"i_{name} &= {mask_of(width)}")

    def _bind_memories(self, names: List[str]) -> None:
        for name in names:
            self._emit.line(f"_m_{name} = s[{self._mem_slot[name].slot}]")

    def _bind_registered_child_outputs(self) -> None:
        """Registered child outputs are state: bind them up front so
        consumers never wait on the producing instance."""
        for index, inst in enumerate(self._ir.instances):
            child = self._netlist.modules[inst.child_key]
            for port in inst.registered_ports:
                target = inst.output_conns[port]
                slot = child.signals[port].state_index
                self._emit.line(f"v_{target} = ch[{index}].state[{slot}]")

    # -- the combinational body (shared between eval_out and eval_seq) -----------

    def _gen_early_binds(self) -> None:
        """Prepass for wiring cycles (see repro.ir.schedule): call the
        involved children with zero arguments and bind only their
        dependency-free outputs, which are correct under any inputs."""
        by_instance: Dict[int, List[Tuple[str, str]]] = {}
        for index, port, target in self._ir.early_bind:
            by_instance.setdefault(index, []).append((port, target))
        for index, bindings in by_instance.items():
            inst = self._ir.instances[index]
            child = self._netlist.modules[inst.child_key]
            ref = self._emit.fresh("e")
            self._emit.line(f"{ref} = ch[{index}]")
            zeros = ", ".join("0" for _ in self._child_comb_ports(inst))
            result = self._emit.fresh("er")
            self._emit.line(
                f"{result} = {ref}.code.eval_out_fn({ref}.state, "
                f"{ref}.children{', ' + zeros if zeros else ''})"
            )
            for port, target in bindings:
                j = list(child.outputs).index(port)
                self._emit.line(f"v_{target} = {result}[{j}]")

    def _comb_signal_names(self) -> List[str]:
        """Every comb-driven signal local, in deterministic order."""
        names: List[str] = []
        for assign in self._ir.comb_assigns:
            names.append(assign.defines)
        for comb in self._ir.comb_blocks:
            names.extend(comb.defines)
        for inst in self._ir.instances:
            registered = set(inst.registered_ports)
            for port, target in inst.output_conns.items():
                if port not in registered:
                    names.append(target)
        seen = set()
        unique = []
        for name in names:
            if name not in seen:
                seen.add(name)
                unique.append(name)
        return unique

    def _gen_fixpoint_prelude(self) -> None:
        """For genuine comb loops: seed every comb local from the value
        slot (carried across fixpoint passes), or zero on the first
        pass of a cycle.  tick() clears the slot."""
        names = self._comb_signal_names()
        if not names:
            return
        slot = 2 * self._ir.num_regs  # the memo-key slot doubles as the guard
        locals_tuple = ", ".join(f"v_{n}" for n in names)
        if len(names) == 1:
            locals_tuple += ","
        with block(self._emit, f"if s[{slot}] is None:"):
            for name in names:
                self._emit.line(f"v_{name} = 0")
        with block(self._emit, "else:"):
            self._emit.line(f"({locals_tuple}) = s[{slot}]")

    def _gen_fixpoint_save(self) -> None:
        names = self._comb_signal_names()
        if not names:
            return
        slot = 2 * self._ir.num_regs
        locals_tuple = ", ".join(f"v_{n}" for n in names)
        if len(names) == 1:
            locals_tuple += ","
        self._emit.line(f"s[{slot}] = ({locals_tuple})")

    def _gen_comb_body(self, exprgen: ExprGen) -> None:
        if self._ir.needs_fixpoint:
            self._gen_fixpoint_prelude()
        self._gen_early_binds()
        for unit_kind, index in self._ir.schedule:
            if unit_kind == "assign":
                self._gen_comb_assign(exprgen, index)
            elif unit_kind == "block":
                self._gen_comb_block(exprgen, index)
            else:
                self._gen_instance_out(exprgen, index)

    def _gen_comb_assign(self, exprgen: ExprGen, index: int) -> None:
        if index in self._dead_assigns:
            return
        assign = self._ir.comb_assigns[index]
        code = exprgen.gen(self._expr(assign.value))
        width = self._ir.signals[assign.target.name].width
        if exprgen.width_of(assign.value) > width:
            if self._sanitize:
                code = self._trunc_hook(
                    code, width,
                    getattr(assign.target, "line", 0),
                    assign.target.name,
                )
            else:
                code = f"(({code}) & {mask_of(width)})"
        self._emit.line(f"v_{assign.target.name} = {code}")

    def _gen_comb_block(self, exprgen: ExprGen, index: int) -> None:
        if index in self._dead_blocks:
            return
        comb = self._ir.comb_blocks[index]
        body = self._comb_body_stmts(index)
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
            trunc_hook=self._trunc_hook if self._sanitize else None,
        )
        pos = self._guard_pos.get(index) if self._seq_phase else None
        if pos is None:
            for name in comb.defines:
                self._emit.line(f"v_{name} = 0")
            stmtgen.gen_stmts(body)
            return
        # Sensitivity guard (opt=full, eval_seq only): if this block's
        # residual inputs match last cycle's, restore the cached output
        # tuple instead of re-evaluating the body.  Sound because the
        # outputs are a pure function of the key — defines start from a
        # deterministic zero-init every evaluation.
        kslot = self._sens_base + 2 * pos
        vslot = kslot + 1
        key_names = self._plan.guard_inputs[index]
        key_refs = [
            exprgen.gen(ast.Id(name=name, line=comb.line))
            for name in key_names
        ]
        key_code = ", ".join(key_refs)
        if len(key_refs) == 1:
            key_code += ","
        sk = self._emit.fresh("sk")
        self._emit.line(f"{sk} = ({key_code})")
        defines = list(comb.defines)
        locals_tuple = ", ".join(f"v_{name}" for name in defines)
        if len(defines) == 1:
            locals_tuple += ","
        with block(self._emit, f"if s[{kslot}] == {sk}:"):
            self._emit.line(f"({locals_tuple}) = s[{vslot}]")
        with block(self._emit, "else:"):
            for name in defines:
                self._emit.line(f"v_{name} = 0")
            stmtgen.gen_stmts(body)
            self._emit.line(f"s[{kslot}] = {sk}")
            self._emit.line(f"s[{vslot}] = ({locals_tuple})")

    @staticmethod
    def _forbid_comb_mem_write(name: str, addr: str, value: str, line: int) -> None:
        raise CodegenError(
            f"memory {name!r} may only be written in always @(posedge)", line
        )

    def _child_comb_ports(self, inst) -> List[str]:
        child = self._netlist.modules[inst.child_key]
        if child.needs_fixpoint:
            return list(child.inputs)
        return child.comb_input_ports

    def _gen_instance_out(self, exprgen: ExprGen, index: int) -> None:
        inst = self._ir.instances[index]
        child = self._netlist.modules[inst.child_key]
        ref = self._emit.fresh("c")
        self._emit.line(f"{ref} = ch[{index}]")
        arg_codes = [
            exprgen.gen(self._expr(inst.input_conns[port]))
            for port in self._child_comb_ports(inst)
        ]
        result = self._emit.fresh("r")
        call_args = ", ".join(arg_codes)
        self._emit.line(
            f"{result} = {ref}.code.eval_out_fn({ref}.state, {ref}.children"
            f"{', ' + call_args if call_args else ''})"
        )
        registered = set(inst.registered_ports)
        for j, port in enumerate(child.outputs):
            target = inst.output_conns.get(port)
            if target is not None and port not in registered:
                self._emit.line(f"v_{target} = {result}[{j}]")

    def _memories_read_in_comb(self) -> List[str]:
        reads: Set[str] = set()
        for assign in self._ir.comb_assigns:
            reads |= set(assign.reads)
        for comb in self._ir.comb_blocks:
            reads |= set(comb.reads)
        for inst in self._ir.instances:
            reads |= set(inst.reads)
        return [name for name in self._mem_slot if name in reads]

    def _output_ref(self, name: str) -> str:
        sig = self._ir.signals[name]
        if sig.state_index is not None:
            # Registered outputs expose the current (pre-tick) value.
            return f"s[{sig.state_index}]"
        return f"v_{name}"

    # -- phase 1: eval_out --------------------------------------------------------

    def _gen_eval_out(self) -> None:
        ir = self._ir
        use_cache = not ir.needs_fixpoint
        exprgen = ExprGen(
            self._resolver(available_inputs=set(self._comb_ports)),
            self._emit,
            self._mux_style,
        )
        header = f"def eval_out(s, ch{self._arg_list(self._comb_ports)}):"
        cache_slot = 2 * ir.num_regs
        with block(self._emit, header):
            self._mask_inputs(self._comb_ports)
            if use_cache:
                args_tuple = ", ".join(f"i_{p}" for p in self._comb_ports)
                if self._comb_ports:
                    self._emit.line(f"_ck = ({args_tuple},)")
                else:
                    self._emit.line("_ck = ()")
                with block(self._emit, f"if s[{cache_slot}] == _ck:"):
                    self._emit.line(f"return s[{cache_slot + 1}]")
            self._bind_memories(self._memories_read_in_comb())
            self._bind_registered_child_outputs()
            self._gen_comb_body(exprgen)
            if not use_cache:
                self._gen_fixpoint_save()
            returns = ", ".join(self._output_ref(name) for name in ir.outputs)
            if len(ir.outputs) == 1:
                returns += ","
            self._emit.line(f"_ret = ({returns})")
            if use_cache:
                self._emit.line(f"s[{cache_slot}] = _ck")
                self._emit.line(f"s[{cache_slot + 1}] = _ret")
            self._emit.line("return _ret")

    # -- phase 2: eval_seq ----------------------------------------------------------

    def _gen_eval_seq(self) -> None:
        ir = self._ir
        all_ports = list(ir.inputs)
        exprgen = ExprGen(self._resolver(), self._emit, self._mux_style)
        header = f"def eval_seq(s, ch{self._arg_list(all_ports)}):"
        self._seq_phase = True  # guards only here; eval_out keeps its memo
        with block(self._emit, header):
            wrote = False
            if ir.inputs:
                self._mask_inputs(all_ports)
                wrote = True
            comb_mems = self._memories_read_in_comb()
            seq_mems = [
                name
                for name in self._mem_slot
                if name not in comb_mems
                and (self._memory_written(name) or self._memory_read_in_seq(name))
            ]
            self._bind_memories(comb_mems + seq_mems)
            wrote = wrote or bool(comb_mems or seq_mems)
            for name in self._mem_slot:
                if self._memory_written(name):
                    spec = self._mem_slot[name]
                    self._emit.line(f"_pw_{name} = s[{spec.pending_slot}]")
                    self._emit.line(f"del _pw_{name}[:]")
                    wrote = True
            if self._sanitize and ir.seq_blocks and ir.num_regs:
                # Fresh per-cycle write tracking for the nb-conflict
                # check and tick's poison clearing.
                self._emit.line(f"s[{self._nw_slot}].clear()")
                wrote = True
            self._bind_registered_child_outputs()
            self._gen_comb_body(exprgen)
            wrote = wrote or bool(ir.schedule) or bool(ir.instances)
            if ir.num_regs:
                self._emit.line(
                    f"s[{ir.num_regs}:{2 * ir.num_regs}] = s[0:{ir.num_regs}]"
                )
                wrote = True
            for block_id, seq in enumerate(ir.seq_blocks):
                self._gen_seq_block(exprgen, seq, block_id)
                wrote = True
            skip = self._skip_children()
            for index, inst in enumerate(ir.instances):
                if index in skip:
                    # Pure subtree: stateless, so eval_seq would only
                    # recompute values tick never commits.  Skip it.
                    continue
                child = self._netlist.modules[inst.child_key]
                ref = self._emit.fresh("c")
                self._emit.line(f"{ref} = ch[{index}]")
                arg_codes = [
                    exprgen.gen(self._expr(inst.input_conns[port]))
                    for port in child.inputs
                ]
                call_args = ", ".join(arg_codes)
                self._emit.line(
                    f"{ref}.code.eval_seq_fn({ref}.state, {ref}.children"
                    f"{', ' + call_args if call_args else ''})"
                )
                wrote = True
            if not wrote:
                self._emit.line("pass")
        self._seq_phase = False

    def _memory_written(self, name: str) -> bool:
        for seq in self._ir.seq_blocks:
            _, writes = stmt_reads_writes(seq.body)
            if name in writes:
                return True
        return False

    def _memory_read_in_seq(self, name: str) -> bool:
        for seq in self._ir.seq_blocks:
            reads, _ = stmt_reads_writes(seq.body)
            if name in reads:
                return True
        return False

    def _gen_seq_block(self, exprgen: ExprGen, seq, block_id: int = 0) -> None:
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
            if self._sanitize:
                self._san_sites += 1
                if self._elide is not None \
                        and (name, line) in self._elide.ob_safe:
                    self._san_elided += 1  # address proven < depth
                else:
                    # Bound-check the address before the wrap hides it.
                    addr = (
                        f"_san.ob(({addr}), {spec.depth}, "
                        f"{self._san_info(name, line)})"
                    )
            if spec.depth & (spec.depth - 1) == 0:
                addr_code = f"({addr}) & {spec.depth - 1}"
            else:
                addr_code = f"({addr}) % {spec.depth}"
            self._emit.line(
                f"_pw_{name}.append(({addr_code}, "
                f"({value}) & {mask_of(spec.width)}))"
            )

        def write_note(name: str, wmask: Optional[int], line: int) -> None:
            sig = self._ir.signals[name]
            full = mask_of(sig.width)
            mask = full if wmask is None else (wmask & full)
            self._san_sites += 1
            if self._elide is not None and self._elide.rr_fast \
                    and len(self._seq_writer_blocks().get(name, ())) <= 1:
                # One statically-possible writer block: the cross-block
                # conflict can never fire, and tick only reads the dict
                # keys to clear poison — write the entry inline.
                self._emit.line(
                    f"s[{self._nw_slot}][{sig.state_index}] = "
                    f"({block_id}, {mask})"
                )
                return
            self._emit.line(
                f"_san.nw(s[{self._nw_slot}], {sig.state_index}, "
                f"{block_id}, {mask}, {self._san_info(name, line)})"
            )

        stmtgen = StmtGen(
            exprgen=exprgen,
            emitter=self._emit,
            write_target=write_target,
            read_target_current=read_pending,
            mem_write=mem_write,
            is_memory=lambda name: name in self._mem_slot,
            target_width=lambda name: self._ir.signals[name].width,
            trunc_hook=self._trunc_hook if self._sanitize else None,
            write_note=write_note if self._sanitize else None,
        )
        stmtgen.gen_stmts(self._seq_body_stmts(block_id))

    # -- tick ---------------------------------------------------------------

    def _gen_tick(self) -> None:
        ir = self._ir
        cache_slot = 2 * ir.num_regs
        with block(self._emit, "def tick(s, ch):"):
            if ir.num_regs:
                self._emit.line(
                    f"s[0:{ir.num_regs}] = s[{ir.num_regs}:{2 * ir.num_regs}]"
                )
            self._emit.line(f"s[{cache_slot}] = None")
            if self._sanitize and ir.num_regs and ir.seq_blocks:
                # A register written this cycle (nw-dict key) is defined
                # from here on: clear its poison bit at commit.  The dict
                # itself is cleared at the start of the next eval_seq.
                self._emit.line(f"_nw = s[{self._nw_slot}]")
                with block(self._emit, "if _nw:"):
                    self._emit.line(f"_p = s[{self._poison_slot}]")
                    with block(self._emit, "for _i in _nw:"):
                        self._emit.line("_p &= ~(1 << _i)")
                    self._emit.line(f"s[{self._poison_slot}] = _p")
            for name, spec in self._mem_slot.items():
                if not self._memory_written(name):
                    continue
                self._emit.line(f"_pw = s[{spec.pending_slot}]")
                with block(self._emit, "if _pw:"):
                    self._emit.line(f"_m = s[{spec.slot}]")
                    with block(self._emit, "for _a, _v in _pw:"):
                        self._emit.line("_m[_a] = _v")
                        if self._sanitize:
                            self._emit.line(
                                f"s[{spec.poison_slot}] &= ~(1 << _a)"
                            )
                    self._emit.line("del _pw[:]")
            if ir.instances:
                skip = self._skip_children()
                if not skip:
                    with block(self._emit, "for _c in ch:"):
                        self._emit.line(
                            "_c.code.tick_fn(_c.state, _c.children)"
                        )
                else:
                    # Pure subtrees have nothing to commit.
                    for index in range(len(ir.instances)):
                        if index in skip:
                            continue
                        self._emit.line(
                            f"_c = ch[{index}]"
                        )
                        self._emit.line(
                            "_c.code.tick_fn(_c.state, _c.children)"
                        )


def compile_module(
    ir: ModuleIR,
    netlist: Netlist,
    build: BuildConfig = BuildConfig(),
    runtime: object = None,
    opt_plan: Optional[OptPlan] = None,
    elision=None,
    reg_const_init: Optional[Dict[str, int]] = None,
    key: Optional[ModuleKey] = None,
) -> CompiledModule:
    """Compile one specialization into a :class:`CompiledModule`.

    Under ``build.sanitize`` the generated source is instrumented with
    calls into ``runtime`` (a :class:`repro.sanitize.SanitizerRuntime`),
    bound as the module-global ``_san`` at exec time.  ``elision`` (an
    :class:`repro.sanitize.ElisionPlan`) drops ob/tr sites the value
    facts prove safe and puts the inline poison-bit fast path on
    register reads; ``reg_const_init`` rides along for hot reload.

    With an ``opt_plan`` (see :mod:`repro.passes`), the emitted code is
    constant-folded, dead logic is dropped, and opt=full adds
    sensitivity guards plus pure-subtree skips.

    ``key`` is the cache address the pass pipeline compiles for; it
    names the ``linecache`` entry.  Direct callers have none and get
    the bare ``(spec, build)`` key.
    """
    if opt_plan is not None and opt_plan.is_noop:
        opt_plan = None  # nothing to apply: emit the plain shape
    if key is None:
        key = ModuleKey(ir.key, build=build)
    started = time.perf_counter()
    with obs.span("codegen.module", key=ir.key, sanitize=build.sanitize,
                  opt=build.opt):
        compiler = _ModuleCompiler(
            ir, netlist, build, plan=opt_plan, elision=elision,
        )
        source = compiler.generate()
        fns = exec_source(source, key.filename, build, runtime)
    elapsed = time.perf_counter() - started
    obs.incr("codegen.modules_compiled")
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
        interface_fp=ir.interface_fingerprint(),
        source_hash=hashlib.sha256(source.encode()).hexdigest(),
        compile_seconds=elapsed,
        build=build,
        sens_slot_count=compiler.sens_slot_count,
        san_sites=compiler._san_sites,
        san_elided=compiler._san_elided,
        reg_const_init=dict(reg_const_init or {}),
        **fns,
    )


def exec_source(
    source: str, filename: str, build: BuildConfig, runtime: object
) -> Dict[str, Callable]:
    """Exec generated ``source`` and return the three entry points as
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
        "eval_seq_fn": namespace["eval_seq"],
        "tick_fn": namespace["tick"],
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
