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
by def-before-use — what a real flattening compiler does.  Registers
and memories are state and never constrain ordering, so any design
whose loops pass through a flop schedules in one pass; only genuine
combinational loops fall back to fixpoint iteration.

The result is packaged as a :class:`CompiledModule` with no children,
so the same :class:`~repro.sim.pipeline.Pipe` runtime drives it.
Register/memory names in ``reg_slots``/``mem_specs`` are hierarchical
paths like ``u_core.u_ifu.pc``.
"""

from __future__ import annotations

import hashlib
import linecache
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..hdl import ast_nodes as ast
from ..hdl.consteval import expr_reads, stmt_reads_writes
from ..hdl.errors import CodegenError, CompileBudgetExceeded
from ..ir.netlist import ModuleIR, Netlist
from .build import BuildConfig
from .emitter import FunctionEmitter, block
from .exprgen import ExprGen, Resolver, StmtGen, mask_of
from .pygen import CACHE_SLOTS, CompiledModule, MemSpec, state_layout


@dataclass
class _Unit:
    """One flattened combinational unit, emitted after global sorting."""

    defines: Tuple[str, ...]  # global comb-local ids this unit assigns
    reads: Tuple[str, ...]  # global comb-local ids it needs first
    emit: Callable[[], None]
    order: int  # declaration order (tie-breaker)


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
        self._mem_specs: Dict[str, MemSpec] = {}
        self._mem_count = 0
        self._needs_fixpoint = False
        self._written_mems: Set[str] = set()
        self._stuck_defines: List[str] = []

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
            self._mem_specs[full] = MemSpec(
                name=full, width=mem.width, depth=mem.depth,
                slot=-1, pending_slot=-1,
            )
            self._mem_count += 1
        for inst in ir.instances:
            child_path = f"{path}.{inst.name}" if path else inst.name
            self._allocate(inst.child_key, child_path)

    def _finalize_slots(self) -> None:
        # Layout matches CompiledModule.make_state: the memo slots sit
        # between the pending registers and the memories.
        base = 2 * self._num_regs + CACHE_SLOTS
        for i, spec in enumerate(self._mem_specs.values()):
            spec.slot = base + i
            spec.pending_slot = base + self._mem_count + i

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
                    order=len(self._units),
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
                    order=len(self._units),
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
                    order=len(self._units),
                )
            )

        for seq in ir.seq_blocks:
            _, writes = stmt_reads_writes(seq.body)
            for name in writes:
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
                        order=len(self._units),
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
            mem_write=self._forbid_comb_mem_write,
            is_memory=lambda name: name in scope.ir.memories,
            target_width=lambda name: scope.ir.signals[name].width,
        )
        stmtgen.gen_stmts(comb.body)

    @staticmethod
    def _forbid_comb_mem_write(name: str, addr: str, value: str, line: int) -> None:
        raise CodegenError(
            f"memory {name!r} may only be written in always @(posedge)", line
        )

    def _emit_seq_block(self, scope: _FlatScope, exprgen: ExprGen, seq) -> None:
        num_regs = self._num_regs

        def write_target(target: ast.LValue, code: str) -> None:
            slot = self._reg_slots.get(scope.global_id(target.name))
            if slot is None:
                raise CodegenError(
                    f"sequential assignment to non-register {target.name!r}",
                    target.line,
                )
            self._emit.line(f"s[{slot + num_regs}] = {code}")

        def read_pending(name: str) -> str:
            slot = self._reg_slots[scope.global_id(name)]
            return f"s[{slot + num_regs}]"

        def mem_write(name: str, addr: str, value: str, line: int) -> None:
            spec = self._mem_specs[scope.global_id(name)]
            if spec.depth & (spec.depth - 1) == 0:
                addr_code = f"({addr}) & {spec.depth - 1}"
            else:
                addr_code = f"({addr}) % {spec.depth}"
            self._emit.line(
                f"s[{spec.pending_slot}].append(({addr_code}, "
                f"({value}) & {mask_of(spec.width)}))"
            )

        stmtgen = StmtGen(
            exprgen=exprgen,
            emitter=self._emit,
            write_target=write_target,
            read_target_current=read_pending,
            mem_write=mem_write,
            is_memory=lambda name: name in scope.ir.memories,
            target_width=lambda name: scope.ir.signals[name].width,
        )
        stmtgen.gen_stmts(seq.body)

    # -- global scheduling --------------------------------------------------------------

    def _sorted_units(self) -> List[_Unit]:
        """Kahn's algorithm over all flattened comb units, declaration
        order as the tie-breaker (deterministic output)."""
        import heapq

        producer: Dict[str, _Unit] = {}
        for unit in self._units:
            for name in unit.defines:
                producer[name] = unit
        by_id = {id(u): u for u in self._units}
        dependents: Dict[int, List[_Unit]] = {id(u): [] for u in self._units}
        in_degree: Dict[int, int] = {}
        for unit in self._units:
            deps = set()
            for name in unit.reads:
                dep = producer.get(name)
                if dep is not None and dep is not unit:
                    deps.add(id(dep))
            in_degree[id(unit)] = len(deps)
            for dep_id in deps:
                dependents[dep_id].append(unit)
        heap = [
            (u.order, id(u)) for u in self._units if in_degree[id(u)] == 0
        ]
        heapq.heapify(heap)
        order: List[_Unit] = []
        while heap:
            _, uid = heapq.heappop(heap)
            unit = by_id[uid]
            order.append(unit)
            for follower in dependents[uid]:
                fid = id(follower)
                in_degree[fid] -= 1
                if in_degree[fid] == 0:
                    heapq.heappush(heap, (follower.order, fid))
        if len(order) != len(self._units):
            # Genuine combinational loop across the flat design: keep
            # declaration order for the cyclic tail and pre-zero its
            # locals so the runtime's fixpoint iteration can run.
            self._needs_fixpoint = True
            placed = {id(u) for u in order}
            stuck = [u for u in self._units if id(u) not in placed]
            for unit in stuck:
                self._stuck_defines.extend(unit.defines)
            order.extend(sorted(stuck, key=lambda u: u.order))
        return order

    # -- top-level generation --------------------------------------------------------------

    def generate(self) -> str:
        top = self._netlist.top_module
        self._allocate(self._netlist.top, "")
        self._finalize_slots()
        top_inputs = {
            name: (f"i_{name}", set()) for name in top.inputs
        }
        self._collect(self._netlist.top, "", top_inputs)
        self._check_budget()
        ordered = self._sorted_units()

        emit = self._emit
        args = ", ".join(f"i_{name}" for name in top.inputs)
        top_scope = _FlatScope(self, top, "")
        with block(emit, f"def eval(s, ch{', ' + args if args else ''}):"):
            for spec in self._mem_specs.values():
                if spec.name in self._written_mems:
                    emit.line(f"del s[{spec.pending_slot}][:]")
            if self._needs_fixpoint:
                emit.line("# genuine comb loop: cyclic tail pre-zeroed")
                for name in self._stuck_defines:
                    emit.line(f"v_{name.replace('.', '_')} = 0")
            for unit in ordered:
                unit.emit()
                self._check_budget()
            if self._num_regs:
                emit.line(
                    f"s[{self._num_regs}:{2 * self._num_regs}] = "
                    f"s[0:{self._num_regs}]"
                )
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
        # comb and pending are both computed in eval: cycle is the commit.
        with block(emit, f"def cycle(s, ch{', ' + args if args else ''}):"):
            wrote = False
            if self._num_regs:
                emit.line(
                    f"s[0:{self._num_regs}] = "
                    f"s[{self._num_regs}:{2 * self._num_regs}]"
                )
                wrote = True
            for spec in self._mem_specs.values():
                if spec.name not in self._written_mems:
                    continue
                emit.line(f"_pw = s[{spec.pending_slot}]")
                with block(emit, "if _pw:"):
                    emit.line(f"_m = s[{spec.slot}]")
                    with block(emit, "for _a, _v in _pw:"):
                        emit.line("_m[_a] = _v")
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
    started = time.perf_counter()
    top = netlist.top_module
    compiler = _FlatCompiler(netlist, mux_style, budget_seconds)
    source = compiler.generate()
    compiler._check_budget()
    filename = f"<flat:{top.key}>"
    code = compile(source, filename, "exec")
    compiler._check_budget()
    namespace: Dict[str, object] = {}
    exec(code, namespace)  # noqa: S102 - generated, trusted code
    compiler._check_budget()
    linecache.cache[filename] = (
        len(source), None, source.splitlines(keepends=True), filename
    )
    elapsed = time.perf_counter() - started

    flat_ir = ModuleIR(
        name=top.name,
        key=f"flat:{top.key}",
        params=dict(top.params),
        inputs=list(top.inputs),
        outputs=list(top.outputs),
        num_regs=compiler._num_regs,
    )
    flat_ir.signals = dict(top.signals)
    flat_ir.needs_fixpoint = compiler._needs_fixpoint

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
        layout=state_layout(compiler._num_regs, compiler._mem_count, False),
        reg_slots=dict(compiler._reg_slots),
        reg_widths=dict(compiler._reg_widths),
        mem_specs=dict(compiler._mem_specs),
        child_insts=(),
        source_hash=hashlib.sha256(source.encode()).hexdigest(),
        compile_seconds=elapsed,
        build=build,
    )
