"""Flattening code generation (the Verilator compilation model, Fig. 4b).

The entire hierarchy is compiled into ONE eval/cycle pair: every
instance's logic is inlined with hierarchical name mangling, and every
instance gets its own copy of its module's code.  This enables
cross-module optimization (modeled by the ``select`` mux style and the
absence of call glue) but makes both compile time and host code
footprint proportional to the *instance count* — the scaling cliff the
paper measures in Tables VII/VIII.

Scheduling is at the granularity of individual flattened units
(continuous assigns, port bindings, comb blocks), globally topo-sorted
by def-before-use with the scheduler the shared compiler uses
(:func:`repro.ir.schedule.toposort`) — what a real flattening compiler
does.  Registers and memories are state and never constrain ordering,
so any design whose loops pass through a flop schedules in one pass;
each genuine combinational loop is one group of the order, which
``eval`` repeats alone until it settles, in the generated loop the
shared compiler uses (:func:`~repro.codegen.module.settle_loop`).

The result is packaged as a :class:`CompiledModule` with no children,
so the same :class:`~repro.sim.pipeline.Pipe` runtime drives it.
Register/memory names in ``reg_slots``/``mem_specs`` are hierarchical
paths like ``u_core.u_ifu.pc``.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..hdl import ast_nodes as ast
from ..hdl.consteval import expr_reads
from ..hdl.errors import CodegenError, CompileBudgetExceeded
from ..ir.netlist import ModuleIR, Netlist
from ..ir.schedule import toposort
from .build import BuildConfig
from .emitter import FunctionEmitter, block
from .exprgen import ExprGen, Resolver, StmtGen, mask_of
from .module import PAGE_SHIFT, CompiledModule, MemSpec, exec_source, settle_loop, state_layout


@dataclass
class _Unit:
    """One flattened combinational unit, emitted after global sorting."""

    defines: Tuple[str, ...]  # global comb-local ids this unit assigns
    reads: Tuple[str, ...]  # global comb-local ids it needs first
    emit: Callable[[], None]


class _FlatScope:
    """Signal resolution for one inlined instance."""

    def __init__(self, compiler: "_FlatCompiler", ir: ModuleIR, path: str):
        self.compiler = compiler
        self.ir = ir
        self.path = path

    def global_id(self, name: str) -> str:
        return f"{self.path}.{name}" if self.path else name

    def local(self, name: str) -> str:
        mangled = self.global_id(name).replace(".", "_")
        return f"v_{mangled}"

    def comb_read_ids(self, names) -> Set[str]:
        """Map signal names to global comb ids; state reads are free."""
        ids: Set[str] = set()
        for name in names:
            sig = self.ir.signals.get(name)
            if sig is None:
                continue  # memory: state
            if sig.state_index is not None:
                continue  # register: state
            ids.add(self.global_id(name))
        return ids

    def resolver(self) -> Resolver:
        compiler = self.compiler

        def signal_ref(name: str) -> str:
            sig = self.ir.signals.get(name)
            if sig is None:
                raise CodegenError(f"unknown signal {name!r} in {self.ir.name}")
            if sig.state_index is not None:
                slot = compiler._reg_slots[self.global_id(name)]
                return f"s[{slot}]"
            return self.local(name)  # inputs are bound locals too

        def memory_ref(name: str) -> Optional[str]:
            if name in self.ir.memories:
                spec = compiler._mem_specs[self.global_id(name)]
                return f"s[{spec.slot}]"
            return None

        def mem_spec(name: str) -> MemSpec:
            return compiler._mem_specs[self.global_id(name)]

        return Resolver(
            signal_ref=signal_ref,
            signal_width=self.ir.signal_width,
            memory_ref=memory_ref,
            memory_width=lambda n: mem_spec(n).width,
            memory_depth=lambda n: mem_spec(n).depth,
        )


class _FlatCompiler:
    def __init__(self, netlist: Netlist, mux_style: str,
                 budget_seconds: Optional[float]):
        self._netlist = netlist
        self._mux_style = mux_style
        self._budget = budget_seconds
        self._started = time.perf_counter()
        self._emit = FunctionEmitter()
        self._units: List[_Unit] = []
        self._seq_emitters: List[Callable[[], None]] = []
        self._num_regs = 0
        self._reg_slots: Dict[str, int] = {}
        self._reg_widths: Dict[str, int] = {}
        self._mems: List[Tuple[str, int, int]] = []  # (name, width, depth)
        self._mem_specs: Dict[str, MemSpec] = {}
        self._written_mems: Set[str] = set()

    def _check_budget(self) -> None:
        if self._budget is None:
            return
        elapsed = time.perf_counter() - self._started
        if elapsed > self._budget:
            raise CompileBudgetExceeded(
                f"flattening compile exceeded budget ({elapsed:.1f}s > "
                f"{self._budget:.1f}s)",
                elapsed=elapsed,
                budget=self._budget,
            )

    # -- allocation ------------------------------------------------------------

    def _allocate(self, key: str, path: str) -> None:
        ir = self._netlist.modules[key]
        for name, sig in ir.signals.items():
            if sig.state_index is not None:
                full = f"{path}.{name}" if path else name
                self._reg_slots[full] = self._num_regs
                self._reg_widths[full] = sig.width
                self._num_regs += 1
        for name, mem in sorted(
            ir.memories.items(), key=lambda kv: kv[1].mem_index
        ):
            full = f"{path}.{name}" if path else name
            self._mems.append((full, mem.width, mem.depth))
        for inst in ir.instances:
            child_path = f"{path}.{inst.name}" if path else inst.name
            self._allocate(inst.child_key, child_path)

    # -- unit collection ----------------------------------------------------------

    def _collect(self, key: str, path: str,
                 input_exprs: Dict[str, Tuple[str, Set[str]]]) -> None:
        """Walk one instance: record comb units and seq emitters.

        ``input_exprs`` maps port -> (code, comb-read ids) evaluated in
        the parent's scope.
        """
        self._check_budget()
        ir = self._netlist.modules[key]
        scope = _FlatScope(self, ir, path)
        exprgen = ExprGen(scope.resolver(), self._emit, self._mux_style)

        # Input port bindings.
        for port in ir.inputs:
            code, reads = input_exprs[port]
            local = scope.local(port)
            width = ir.signals[port].width

            def emit_bind(local=local, code=code, width=width) -> None:
                self._emit.line(f"{local} = ({code}) & {mask_of(width)}")

            self._units.append(
                _Unit(
                    defines=(scope.global_id(port),),
                    reads=tuple(reads),
                    emit=emit_bind,
                )
            )

        for assign in ir.comb_assigns:
            code = exprgen.gen(assign.value)
            width = ir.signals[assign.target.name].width
            if exprgen.width_of(assign.value) > width:
                code = f"(({code}) & {mask_of(width)})"
            target_local = scope.local(assign.target.name)

            def emit_assign(target_local=target_local, code=code) -> None:
                self._emit.line(f"{target_local} = {code}")

            self._units.append(
                _Unit(
                    defines=(scope.global_id(assign.target.name),),
                    reads=tuple(scope.comb_read_ids(assign.reads)),
                    emit=emit_assign,
                )
            )

        for comb in ir.comb_blocks:
            def emit_block(scope=scope, exprgen=exprgen, comb=comb) -> None:
                self._emit_comb_block(scope, exprgen, comb)

            self._units.append(
                _Unit(
                    defines=tuple(
                        scope.global_id(n) for n in comb.defines
                    ),
                    reads=tuple(scope.comb_read_ids(comb.reads)),
                    emit=emit_block,
                )
            )

        for seq in ir.seq_blocks:
            for name in seq.writes:
                if name in ir.memories:
                    self._written_mems.add(scope.global_id(name))

            def emit_seq(scope=scope, seq=seq) -> None:
                seq_exprgen = ExprGen(
                    scope.resolver(), self._emit, self._mux_style
                )
                self._emit_seq_block(scope, seq_exprgen, seq)

            self._seq_emitters.append(emit_seq)

        for inst in ir.instances:
            child_path = f"{path}.{inst.name}" if path else inst.name
            child = self._netlist.modules[inst.child_key]
            child_inputs: Dict[str, Tuple[str, Set[str]]] = {}
            for port, expr in inst.input_conns.items():
                child_inputs[port] = (
                    exprgen.gen(expr),
                    scope.comb_read_ids(expr_reads(expr)),
                )
            self._collect(inst.child_key, child_path, child_inputs)
            # Output bindings: parent local <- child port local.
            child_scope = _FlatScope(self, child, child_path)
            for port, target in inst.output_conns.items():
                child_sig = child.signals[port]
                if child_sig.state_index is not None:
                    source_code = f"s[{self._reg_slots[f'{child_path}.{port}']}]"
                    reads: Tuple[str, ...] = ()
                else:
                    source_code = child_scope.local(port)
                    reads = (child_scope.global_id(port),)
                target_local = scope.local(target)

                def emit_out(target_local=target_local,
                             source_code=source_code) -> None:
                    self._emit.line(f"{target_local} = {source_code}")

                self._units.append(
                    _Unit(
                        defines=(scope.global_id(target),),
                        reads=reads,
                        emit=emit_out,
                    )
                )

    # -- emission helpers ------------------------------------------------------------

    def _emit_comb_block(self, scope: _FlatScope, exprgen: ExprGen, comb) -> None:
        for name in comb.defines:
            self._emit.line(f"{scope.local(name)} = 0")
        stmtgen = StmtGen(
            exprgen=exprgen,
            emitter=self._emit,
            write_target=lambda target, code: self._emit.line(
                f"{scope.local(target.name)} = {code}"
            ),
            read_target_current=lambda name: scope.local(name),
            is_memory=lambda name: name in scope.ir.memories,
            target_width=lambda name: scope.ir.signals[name].width,
        )
        stmtgen.gen_stmts(comb.body)

    def _emit_seq_block(self, scope: _FlatScope, exprgen: ExprGen, seq) -> None:
        def write_target(target: ast.LValue, code: str) -> None:
            slot = self._reg_slots.get(scope.global_id(target.name))
            if slot is None:
                raise CodegenError(
                    f"sequential assignment to non-register {target.name!r}",
                    target.line,
                )
            self._emit.line(f"_p[{slot}] = {code}")

        def read_next(name: str) -> str:
            return f"_p[{self._reg_slots[scope.global_id(name)]}]"

        def mem_write(name: str, addr: str, value: str, line: int) -> None:
            spec = self._mem_specs[scope.global_id(name)]
            self._emit.line(
                f"s[{spec.pending_slot}].append(({addr}, "
                f"({value}) & {mask_of(spec.width)}))"
            )

        stmtgen = StmtGen(
            exprgen=exprgen,
            emitter=self._emit,
            write_target=write_target,
            read_target_current=read_next,
            mem_write=mem_write,
            is_memory=lambda name: name in scope.ir.memories,
            target_width=lambda name: scope.ir.signals[name].width,
        )
        stmtgen.gen_stmts(seq.body)

    # -- top-level generation --------------------------------------------------------------

    def generate(self) -> str:
        top = self._netlist.top_module
        self._allocate(self._netlist.top, "")
        # The shared layout (CompiledModule.make_state); the stash slot
        # holds the next register values.
        self.layout, self._mem_specs = state_layout(self._num_regs, self._mems, False)
        top_inputs = {
            name: (f"i_{name}", set()) for name in top.inputs
        }
        self._collect(self._netlist.top, "", top_inputs)
        self._check_budget()
        ids = range(len(self._units))
        producer = {name: i for i in ids for name in self._units[i].defines}
        steps = toposort(ids, {i: self._units[i].reads for i in ids}, producer)

        emit = self._emit
        args = ", ".join(f"i_{name}" for name in top.inputs)
        top_scope = _FlatScope(self, top, "")
        with block(emit, f"def eval(s, ch{', ' + args if args else ''}):"):
            for spec in self._mem_specs.values():
                if spec.name in self._written_mems:
                    emit.line(f"del s[{spec.pending_slot}][:]")
            for step, is_loop in steps:
                units = [self._units[i] for i in step]
                settle = nullcontext()
                if is_loop:
                    names = dict.fromkeys(f"v_{name.replace('.', '_')}"
                                          for unit in units for name in unit.defines)
                    settle = settle_loop(emit, list(names), f"flat:{top.key}")
                with settle:
                    for unit in units:
                        unit.emit()
                self._check_budget()
            if self._num_regs:
                emit.line(f"_p = s[{self.layout.stash_slot}] = s[:{self._num_regs}]")
            for emit_seq in self._seq_emitters:
                emit_seq()
            returns = ", ".join(
                self._top_output_ref(top, top_scope, name)
                for name in top.outputs
            )
            if len(top.outputs) == 1:
                returns += ","
            emit.line(f"return ({returns})")

        emit.blank()
        # comb and next state are both computed in eval: cycle is the commit.
        with block(emit, f"def cycle(s, ch{', ' + args if args else ''}):"):
            wrote = False
            if self._num_regs:
                emit.line(f"s[:{self._num_regs}] = s[{self.layout.stash_slot}]")
                wrote = True
            for spec in self._mem_specs.values():
                if spec.name not in self._written_mems:
                    continue
                emit.line(f"_pw = s[{spec.pending_slot}]")
                with block(emit, "if _pw:"):
                    emit.line(f"_m = s[{spec.slot}]")
                    if spec.marks_slot >= 0:
                        emit.line(f"_d = s[{spec.marks_slot}]")
                    with block(emit, "for _a, _v in _pw:"):
                        emit.line("_m[_a] = _v")
                        if spec.marks_slot >= 0:
                            emit.line(f"_d.add(_a >> {PAGE_SHIFT})")
                    emit.line("del _pw[:]")
                wrote = True
            if not wrote:
                emit.line("pass")
        return emit.source()

    def _top_output_ref(self, top: ModuleIR, scope: _FlatScope, name: str) -> str:
        sig = top.signals[name]
        if sig.state_index is not None:
            return f"s[{self._reg_slots[name]}]"
        return scope.local(name)


def compile_flat(
    netlist: Netlist,
    mux_style: str = "select",
    budget_seconds: Optional[float] = None,
) -> CompiledModule:
    """Flatten + compile the whole design into one CompiledModule.

    Raises :class:`CompileBudgetExceeded` if generation/compilation
    exceeds ``budget_seconds`` — the analogue of the paper's 24-hour
    Verilator timeout on the 16x16 PGAS.
    """
    build = BuildConfig(mux_style=mux_style)  # rejects an unknown style
    top = netlist.top_module
    compiler = _FlatCompiler(netlist, mux_style, budget_seconds)
    source = compiler.generate()
    compiler._check_budget()
    namespace = exec_source(source, f"<flat:{top.key}>", build, None)
    compiler._check_budget()

    flat_ir = ModuleIR(
        name=top.name,
        key=f"flat:{top.key}",
        params=dict(top.params),
        inputs=list(top.inputs),
        outputs=list(top.outputs),
        num_regs=compiler._num_regs,
    )
    flat_ir.signals = dict(top.signals)

    return CompiledModule(
        key=flat_ir.key,
        name=top.name,
        ir=flat_ir,
        eval_out_fn=namespace["eval"],  # type: ignore[arg-type]
        cycle_fn=namespace["cycle"],  # type: ignore[arg-type]
        source=source,
        inputs=tuple(top.inputs),
        comb_input_ports=tuple(top.inputs),  # flat eval takes everything
        outputs=tuple(top.outputs),
        num_regs=compiler._num_regs,
        layout=compiler.layout,
        reg_slots=dict(compiler._reg_slots),
        reg_widths=dict(compiler._reg_widths),
        mem_specs=dict(compiler._mem_specs),
        child_insts=(),
        source_hash=hashlib.sha256(source.encode()).hexdigest(),
        build=build,
    )
