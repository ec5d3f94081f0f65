"""Elaboration: AST -> netlist IR.

Elaboration resolves the module hierarchy and parameters, producing one
:class:`~repro.ir.netlist.ModuleIR` per *specialization* (module +
parameter set).  Specializations are memoized, so a 16x16 PGAS mesh with
256 identical cores elaborates the core's modules exactly once — this
sharing is what LiveSim's compile-once/instantiate-many model (paper
Fig. 4d) is built on.

Across edits a ``ModuleIR`` is reused per specialization through the
session's :class:`~repro.codegen.build.DerivedCache` (kind
``elaborate``), keyed on ``(spec key, module fingerprint, ((child key,
child comb signature) per instance))``: all that lowering reads of the
module's text and of its children.  A body-only edit rebuilds one
``ModuleIR``; the rest are the same objects as before, so a
``ModuleIR`` is immutable once elaboration returns and its ``line``
fields are those of the parse that produced it (``ModuleIR.line`` is
where that parse found the ``module`` header).  A rebuilt ``ModuleIR``
takes every lowered item the edit left alone from the previous one
(``Elaborator._build_module_ir``).  An error raised while
specialising a module is placed in it (``HDLError.place``), with the
header line of the AST it read, so LiveCompiler can move it into the
file.

Every schedule item (continuous assign, comb block, sequential block)
carries a ``shape``: :func:`item_shape`, the key under which its value
facts outlive the ``ModuleIR`` (:mod:`repro.passes.dataflow`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..ir.dataflow import compute_output_deps, compute_signal_deps
from ..ir.netlist import (
    CombAssignIR,
    CombBlockIR,
    InstanceIR,
    MemoryIR,
    ModuleIR,
    Netlist,
    SeqBlockIR,
    SignalIR,
    spec_key,
)
from ..ir.schedule import schedule_module
from . import ast_nodes as ast
from .consteval import (
    eval_const,
    expr_reads,
    fold_params,
    fold_stmts,
    stmt_reads_writes,
)
from .errors import ElaborationError, HDLError, WidthError


class Elaborator:
    """Drives hierarchy + parameter resolution over a parsed design."""

    def __init__(
        self, design: ast.Design, cache=None,
        fingerprint_of: Optional[Callable[[str], str]] = None,
    ):
        """``cache`` (a ``DerivedCache``) and ``fingerprint_of`` (module
        name -> behavioural fingerprint, normally
        ``LiveParser.fingerprint``) make elaboration incremental;
        without fingerprints nothing identifies a module across calls
        and every ``ModuleIR`` is built from scratch."""
        self._design = design
        self._cache = cache if fingerprint_of is not None else None
        self._fingerprint_of = fingerprint_of
        self._specs: Dict[str, ModuleIR] = {}
        self._in_progress: Set[str] = set()

    def elaborate(
        self, top: str, params: Optional[Dict[str, int]] = None
    ) -> Netlist:
        if top not in self._design.modules:
            raise ElaborationError(f"top module {top!r} not found")
        top_ir = self._specialize(top, dict(params or {}))
        return Netlist(top=top_ir.key, modules=dict(self._specs))

    # -- specialization ------------------------------------------------------

    def _specialize(self, name: str, overrides: Dict[str, int]) -> ModuleIR:
        module = self._design.modules.get(name)
        if module is None:
            raise ElaborationError(f"module {name!r} not found")
        try:
            return self._specialize_module(module, overrides)
        except HDLError as err:
            err.place(name, module.line)
            raise

    def _specialize_module(
        self, module: ast.Module, overrides: Dict[str, int]
    ) -> ModuleIR:
        name = module.name
        env = self._resolve_params(module, overrides)
        public = {
            p.name: env[p.name] for p in module.params if not p.is_local
        }
        # Key on the full resolved public parameter set so two override
        # dicts resolving to the same values share one specialization.
        key = spec_key(name, public)
        if key in self._specs:
            return self._specs[key]
        if key in self._in_progress:
            raise ElaborationError(f"recursive instantiation of {name!r}", module.line)
        self._in_progress.add(key)
        try:
            # Children first: a parent's identity includes what it can
            # see of them.
            children = [
                self._specialize(inst.module, {
                    param: eval_const(expr, env)
                    for param, expr in inst.param_overrides.items()
                })
                for inst in module.instances
            ]
            if self._cache is None:
                ir = self._build_module_ir(module, env, key, children)
            else:
                ir = self._cache.lookup(
                    "elaborate", key,
                    (key, self._fingerprint_of(name), tuple(
                        (child.key, child.comb_signature)
                        for child in children
                    )),
                    lambda: self._build_module_ir(module, env, key, children),
                )
        finally:
            self._in_progress.discard(key)
        self._specs[key] = ir
        return ir

    def _resolve_params(
        self, module: ast.Module, overrides: Dict[str, int]
    ) -> Dict[str, int]:
        env: Dict[str, int] = {}
        declared = {p.name for p in module.params}
        for extra in overrides:
            if extra not in declared:
                raise ElaborationError(
                    f"module {module.name!r} has no parameter {extra!r}", module.line
                )
        for param in module.params:
            if param.is_local and param.name in overrides:
                raise ElaborationError(
                    f"cannot override localparam {param.name!r}", param.line
                )
            if not param.is_local and param.name in overrides:
                env[param.name] = overrides[param.name]
            else:
                env[param.name] = eval_const(param.default, env)
        return env

    # -- per-module IR construction -------------------------------------------

    def _build_module_ir(
        self, module: ast.Module, env: Dict[str, int], key: str,
        children: List[ModuleIR],
    ) -> ModuleIR:
        """Lower ``module`` under ``env`` to a new ``ModuleIR``.

        A lowered item (an assign's or a block's folded tree with its
        reads, writes or defines and its shape) is taken as it is from
        the specialization's most recent ``ModuleIR`` in the cache when
        its parsed item is the very object that IR was lowered from,
        under an equal parameter environment, and every name the item
        mentions is declared alike in both (:func:`_declared`): all
        that lowering the item reads.  Everything else (signals,
        register slots, the driver checks, the schedule, the deps) is
        computed here, every time.  Lowered items are never mutated, so
        two ``ModuleIR`` may share them.
        """
        ir = ModuleIR(name=module.name, key=key, params=dict(env),
                      line=module.line, source=module)
        self._declare_signals(module, env, ir)
        self._lower_instances(module, env, ir, children)
        lowered = self._lowered(key, env, ir)
        self._lower_assigns(module, env, ir, lowered)
        self._lower_always(module, env, ir, lowered)
        self._assign_reg_slots(module, ir)
        self._check_drivers(module, ir)
        schedule_module(ir)
        ir.signal_deps = compute_signal_deps(
            ir, lambda key: self._specs[key]
        )
        ir.output_deps = compute_output_deps(ir.signal_deps, ir.outputs)
        return ir

    def _signal_width(
        self,
        msb: Optional[ast.Expr],
        lsb: Optional[ast.Expr],
        env: Dict[str, int],
        line: int,
    ) -> int:
        if msb is None:
            return 1
        msb_val = eval_const(msb, env)
        lsb_val = eval_const(lsb, env) if lsb is not None else 0
        if lsb_val != 0:
            raise WidthError("only [msb:0] ranges are supported", line)
        if msb_val < 0:
            raise WidthError("negative msb", line)
        return msb_val + 1

    def _declare_signals(
        self, module: ast.Module, env: Dict[str, int], ir: ModuleIR
    ) -> None:
        for port in module.ports:
            if port.name in ir.signals:
                raise ElaborationError(f"duplicate port {port.name!r}", port.line)
            width = self._signal_width(port.msb, port.lsb, env, port.line)
            ir.signals[port.name] = SignalIR(
                name=port.name, width=width, kind=port.direction, line=port.line
            )
            if port.direction == "input":
                ir.inputs.append(port.name)
            else:
                ir.outputs.append(port.name)
        for net in module.nets:
            if net.is_memory:
                if net.name in ir.memories or net.name in ir.signals:
                    raise ElaborationError(f"duplicate name {net.name!r}", net.line)
                width = self._signal_width(net.msb, net.lsb, env, net.line)
                lo = eval_const(net.depth_msb, env)  # written [0:D-1]
                hi = eval_const(net.depth_lsb, env) if net.depth_lsb is not None else lo
                depth = abs(hi - lo) + 1
                ir.memories[net.name] = MemoryIR(
                    name=net.name, width=width, depth=depth,
                    mem_index=len(ir.memories), line=net.line,
                )
                continue
            if net.name in ir.signals:
                # "output reg x" style redeclaration: tolerate an exact
                # redeclaration of a port as reg/wire.
                existing = ir.signals[net.name]
                width = self._signal_width(net.msb, net.lsb, env, net.line)
                if width != existing.width:
                    raise WidthError(
                        f"redeclaration of {net.name!r} with different width",
                        net.line,
                    )
                continue
            if net.name in ir.memories:
                raise ElaborationError(f"duplicate name {net.name!r}", net.line)
            width = self._signal_width(net.msb, net.lsb, env, net.line)
            ir.signals[net.name] = SignalIR(
                name=net.name, width=width, kind="wire", line=net.line
            )

    def _lower_instances(
        self, module: ast.Module, env: Dict[str, int], ir: ModuleIR,
        children: List[ModuleIR],
    ) -> None:
        seen_names: Set[str] = set()
        for inst, child in zip(module.instances, children):
            if inst.name in seen_names:
                raise ElaborationError(
                    f"duplicate instance name {inst.name!r}", inst.line
                )
            seen_names.add(inst.name)
            inst_ir = InstanceIR(name=inst.name, child_key=child.key, line=inst.line)
            for port_name, conn in inst.connections.items():
                child_sig = child.signals.get(port_name)
                if child_sig is None or child_sig.kind not in ("input", "output"):
                    raise ElaborationError(
                        f"module {inst.module!r} has no port {port_name!r}",
                        inst.line,
                    )
                if child_sig.kind == "input":
                    inst_ir.input_conns[port_name] = fold_params(conn, env)
                else:
                    if not isinstance(conn, ast.Id):
                        raise ElaborationError(
                            f"output port {port_name!r} of {inst.name!r} must "
                            "connect to a plain signal",
                            inst.line,
                        )
                    target = ir.signals.get(conn.name)
                    if target is None:
                        raise ElaborationError(
                            f"unknown signal {conn.name!r} in connection",
                            inst.line,
                        )
                    if target.width != child_sig.width:
                        raise WidthError(
                            f"width mismatch connecting {inst.name}.{port_name} "
                            f"({child_sig.width}) to {conn.name} ({target.width})",
                            inst.line,
                        )
                    inst_ir.output_conns[port_name] = conn.name
            missing = [
                p for p in child.inputs if p not in inst_ir.input_conns
            ]
            if missing:
                raise ElaborationError(
                    f"instance {inst.name!r} leaves input(s) {missing} unconnected",
                    inst.line,
                )
            reads: Set[str] = set()
            for expr in inst_ir.input_conns.values():
                reads |= expr_reads(expr)
            inst_ir.reads = tuple(sorted(reads))
            comb_reads: Set[str] = set()
            for port in child.comb_inputs:
                expr = inst_ir.input_conns.get(port)
                if expr is not None:
                    comb_reads |= expr_reads(expr)
            inst_ir.comb_reads = tuple(sorted(comb_reads))
            inst_ir.defines = tuple(sorted(inst_ir.output_conns.values()))
            inst_ir.registered_ports = tuple(
                sorted(
                    port
                    for port in inst_ir.output_conns
                    if child.signals[port].state_index is not None
                )
            )
            inst_ir.comb_defines = tuple(
                sorted(
                    target
                    for port, target in inst_ir.output_conns.items()
                    if child.signals[port].state_index is None
                )
            )
            inst_ir.dep_free_ports = tuple(
                sorted(
                    port
                    for port in inst_ir.output_conns
                    if child.signals[port].state_index is None
                    and not child.output_deps.get(port, set())
                )
            )
            ir.instances.append(inst_ir)

    def _lowered(self, key: str, env: Dict[str, int],
                 ir: ModuleIR) -> Callable[[object], Optional[object]]:
        """parsed item -> its lowered item in the specialization's most
        recent ``ModuleIR``, when ``ir`` may reuse it (None otherwise)."""
        previous = self._cache.recent("elaborate", key) if self._cache else ()
        if not previous or previous[0].params != env:
            return _NOTHING
        prev = previous[0]
        items = dict(zip(map(id, prev.source.assigns), prev.comb_assigns))
        kinds = {"comb": iter(prev.comb_blocks), "seq": iter(prev.seq_blocks)}
        for block in prev.source.always_blocks:
            items[id(block)] = next(kinds[block.kind])
        redeclared = {
            name
            for name in {*ir.signals, *ir.memories, *prev.signals,
                         *prev.memories}
            if _declared(ir, name) != _declared(prev, name)
        }

        def lowered(node) -> Optional[object]:
            item = items.get(id(node))
            if item is None or not redeclared.isdisjoint(_mentions(item)):
                return None
            return item

        return lowered

    def _lower_assigns(
        self, module: ast.Module, env: Dict[str, int], ir: ModuleIR,
        lowered: Callable[[object], Optional[object]],
    ) -> None:
        for assign in module.assigns:
            reused = lowered(assign)
            if reused is not None:
                ir.comb_assigns.append(reused)
                continue
            target = assign.target
            if target.index is not None or target.msb is not None:
                raise ElaborationError(
                    "continuous assignment targets must be whole signals",
                    assign.line,
                )
            if target.name not in ir.signals:
                raise ElaborationError(
                    f"assignment to undeclared signal {target.name!r}", assign.line
                )
            value = fold_params(assign.value, env)
            ir.comb_assigns.append(
                CombAssignIR(
                    target=target,
                    value=value,
                    line=assign.line,
                    reads=tuple(sorted(expr_reads(value))),
                    defines=target.name,
                    shape=item_shape("assign", assign.line, ir,
                                     target, value),
                )
            )

    def _lower_always(
        self, module: ast.Module, env: Dict[str, int], ir: ModuleIR,
        lowered: Callable[[object], Optional[object]],
    ) -> None:
        for block in module.always_blocks:
            reused = lowered(block)
            if reused is not None:
                (ir.seq_blocks if block.kind == "seq"
                 else ir.comb_blocks).append(reused)
                continue
            body = fold_stmts(block.body, env)
            reads, writes = stmt_reads_writes(body)
            if block.kind == "seq":
                clock = block.clock or ""
                clock_sig = ir.signals.get(clock)
                if clock_sig is None or clock_sig.kind != "input":
                    raise ElaborationError(
                        f"clock {clock!r} must be an input port", block.line
                    )
                ir.seq_blocks.append(SeqBlockIR(
                    clock=clock, body=body, line=block.line,
                    reads=tuple(sorted(reads)), writes=tuple(sorted(writes)),
                    shape=item_shape("seq", block.line, ir, body),
                ))
            else:
                # Targets written by the block are not "reads" even if
                # they also appear on a right-hand side (the generated
                # code initializes them to zero first — no latches).
                ir.comb_blocks.append(
                    CombBlockIR(
                        body=body,
                        line=block.line,
                        reads=tuple(sorted(reads - writes)),
                        defines=tuple(sorted(writes)),
                        shape=item_shape("comb", block.line, ir, body),
                    )
                )
        ir.clock_names = tuple(sorted({b.clock for b in ir.seq_blocks}))

    def _assign_reg_slots(self, module: ast.Module, ir: ModuleIR) -> None:
        seq_writes: Set[str] = set()
        mem_writes: Set[str] = set()
        for block in ir.seq_blocks:
            for name in block.writes:
                if name in ir.memories:
                    mem_writes.add(name)
                elif name in ir.signals:
                    seq_writes.add(name)
                else:
                    raise ElaborationError(
                        f"sequential assignment to undeclared {name!r}", block.line
                    )
        index = 0
        for name, sig in ir.signals.items():  # declaration order (dict ordered)
            if name in seq_writes:
                if sig.kind == "input":
                    raise ElaborationError(
                        f"cannot assign to input port {name!r}", sig.line
                    )
                sig.state_index = index
                if sig.kind == "output":
                    sig.is_registered_output = True
                index += 1
        ir.num_regs = index

    def _check_drivers(self, module: ast.Module, ir: ModuleIR) -> None:
        drivers: Dict[str, List[int]] = {}

        def add(name: str, line: int) -> None:
            drivers.setdefault(name, []).append(line)

        for assign in ir.comb_assigns:
            add(assign.defines, assign.line)
        for block in ir.comb_blocks:
            for name in block.defines:
                add(name, block.line)
        for inst in ir.instances:
            for name in inst.defines:
                add(name, inst.line)
        for name, sig in ir.signals.items():
            if sig.state_index is not None:
                add(name, sig.line)
        for name, lines in drivers.items():
            sig = ir.signals.get(name)
            if sig is None and name not in ir.memories:
                raise ElaborationError(
                    f"assignment to undeclared signal {name!r}", lines[0]
                )
            if sig is not None and sig.kind == "input":
                raise ElaborationError(
                    f"input port {name!r} is driven inside the module", lines[0]
                )
            if len(lines) > 1:
                raise ElaborationError(
                    f"signal {name!r} has multiple drivers (lines {lines})",
                    lines[0],
                )
        # Undriven-but-read detection; remember which construct read
        # each name so diagnostics point at the use site.
        read_anywhere: Dict[str, int] = {}

        def note_reads(names, line: int) -> None:
            for name in names:
                read_anywhere.setdefault(name, line)

        for assign in ir.comb_assigns:
            note_reads(assign.reads, assign.line)
        for block in ir.comb_blocks:
            note_reads(block.reads, block.line)
        for inst in ir.instances:
            note_reads(inst.reads, inst.line)
        for block in ir.seq_blocks:
            note_reads(block.reads, block.line)
        note_reads(ir.outputs, module.line)
        for name, read_line in read_anywhere.items():
            sig = ir.signals.get(name)
            if sig is None:
                if name in ir.memories:
                    continue
                raise ElaborationError(
                    f"module {module.name!r} reads undeclared signal {name!r}",
                    read_line,
                )
            if sig.kind == "input" or name in ir.clock_names:
                continue
            if name not in drivers:
                raise ElaborationError(
                    f"signal {name!r} in module {module.name!r} is read "
                    "but never driven",
                    sig.line,
                )


def _NOTHING(node) -> None:
    """No lowered item to reuse."""
    return None


def _mentions(item) -> Tuple[str, ...]:
    """Every name a lowered item's tree mentions (what its shape lists),
    and a sequential block's clock."""
    if type(item) is CombAssignIR:
        return item.reads + (item.defines,)
    if type(item) is CombBlockIR:
        return item.reads + item.defines
    return item.reads + item.writes + (item.clock,)


def _declared(ir: ModuleIR, name: str):
    """How ``name`` is declared in ``ir``: kind and width of a signal,
    width and depth of a memory, None when it is not."""
    sig = ir.signals.get(name)
    if sig is not None:
        return sig.kind, sig.width
    mem = ir.memories.get(name)
    return None if mem is None else (mem.width, mem.depth)


def item_shape(kind: str, line: int, ir: ModuleIR, *roots) -> str:
    """What a schedule item is, wherever it sits in the file.

    A prefix rendering of the item's folded tree (``roots``: the target
    and value of an assign, the body of a block) that spells every
    node's line relative to the item's first ``line``, then the width of
    every name the tree mentions, the depth too for a memory, ``?`` for
    an undeclared one.  Two items of equal shape evaluate alike over
    equal facts of the names they read, and their site lines differ by
    the distance between their first lines; nothing here changes when
    the item only moves.
    """
    shape = _Shape(line)
    out = shape.out
    out.append(kind)
    for root in roots:
        if type(root) is list:
            shape.stmts(root)
        elif type(root) is ast.LValue:
            shape.lvalue(root)
        else:
            shape.expr(root)
    out.append("|")
    for name in sorted(shape.names):
        sig = ir.signals.get(name)
        mem = ir.memories.get(name) if sig is None else None
        out.append(f"{name}:{sig.width}" if sig is not None
                   else f"{name}:{mem.width}x{mem.depth}" if mem is not None
                   else f"{name}:?")
    return " ".join(out)


class _Shape:
    """One :func:`item_shape` rendering in progress: the tokens so far,
    the names met, and the line the rendering stands on."""

    __slots__ = ("out", "names", "base", "at")

    def __init__(self, line: int):
        self.out: List[str] = []
        self.names: Set[str] = set()
        self.base = self.at = line

    def _mark(self, line: int) -> None:
        self.at = line
        self.out.append(f"@{line - self.base}")

    def expr(self, node) -> None:
        if node.line != self.at:
            self._mark(node.line)
        out = self.out
        kind = type(node)
        if kind is ast.Id:
            self.names.add(node.name)
            out.append(node.name)
        elif kind is ast.Num:
            out.append(f"#{node.value}/{node.width}")
        elif kind is ast.Binary:
            out.append("b" + node.op)
            self.expr(node.left)
            self.expr(node.right)
        elif kind is ast.Unary:
            out.append("u" + node.op)
            self.expr(node.operand)
        elif kind is ast.Index:
            self.names.add(node.base)
            out.append("[")
            out.append(node.base)
            self.expr(node.index)
        elif kind is ast.Slice:
            self.names.add(node.base)
            out.append("[:")
            out.append(node.base)
            self.expr(node.msb)
            self.expr(node.lsb)
        elif kind is ast.Ternary:
            out.append("?")
            self.expr(node.cond)
            self.expr(node.if_true)
            self.expr(node.if_false)
        elif kind is ast.Concat:
            out.append(f"{{{len(node.parts)}")
            for part in node.parts:
                self.expr(part)
        elif kind is ast.Repl:
            out.append("{{")
            self.expr(node.count)
            self.expr(node.value)
        elif kind is ast.IndexedPart:
            self.names.add(node.base)
            out.append("[+" if node.ascending else "[-")
            out.append(node.base)
            self.expr(node.start)
            self.expr(node.width)
        elif kind is ast.SysCall:
            out.append(f"{node.func}/{len(node.args)}")
            for arg in node.args:
                self.expr(arg)
        else:  # no evaluation reads a node of another kind
            out.append(repr(node))

    def lvalue(self, target: ast.LValue) -> None:
        if target.line != self.at:
            self._mark(target.line)
        self.names.add(target.name)
        self.out.append("lv")
        self.out.append(target.name)
        for part in (target.index, target.msb, target.lsb):
            if part is None:
                self.out.append("-")
            else:
                self.expr(part)

    def stmts(self, body: List[ast.Stmt]) -> None:
        out = self.out
        out.append(f"s{len(body)}")
        for stmt in body:
            if stmt.line != self.at:
                self._mark(stmt.line)
            kind = type(stmt)
            if kind is ast.NonBlocking or kind is ast.Blocking:
                out.append("<=" if kind is ast.NonBlocking else "=")
                self.lvalue(stmt.target)
                self.expr(stmt.value)
            elif kind is ast.If:
                out.append("if")
                self.expr(stmt.cond)
                self.stmts(stmt.then_body)
                self.stmts(stmt.else_body)
            elif kind is ast.Case:
                out.append(f"case{len(stmt.arms)}")
                self.expr(stmt.subject)
                for labels, arm in stmt.arms:
                    out.append(f"l{len(labels)}")
                    for label in labels:
                        self.expr(label)
                    self.stmts(arm)
            else:
                out.append(repr(stmt))


def elaborate(
    design: ast.Design,
    top: str,
    params: Optional[Dict[str, int]] = None,
    cache=None,
    fingerprint_of: Optional[Callable[[str], str]] = None,
) -> Netlist:
    """Elaborate ``design`` with ``top`` as the root module; ``cache``
    and ``fingerprint_of`` as for :class:`Elaborator`."""
    return Elaborator(design, cache, fingerprint_of).elaborate(top, params)
