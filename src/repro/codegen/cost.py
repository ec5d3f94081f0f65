"""Static cost model of generated simulator code.

The host performance model (Table VII) needs to know, for each
compilation style, roughly how much host code a design's inner loop
touches and what it does per simulated cycle:

* how many host instructions one evaluation of each module executes,
* how many of those are branches,
* how many data loads/stores hit the instance's state,
* how many bytes of host code the compiled module occupies.

These are derived by walking the IR with simple per-op weights — the
same methodology a compiler person would use for a first-order
footprint estimate.  The absolute numbers are uncalibrated; the host
model calibrates the 1x1 design against the paper's measured column and
everything else follows from *relative* footprint growth, which is the
effect the paper attributes the Verilator cliff to.

Styles:

* ``"branch"`` (LiveSim): muxes lower to branches; one arm evaluated.
* ``"select"`` (Verilator-like): muxes lower to arithmetic selects;
  both arms evaluated, almost no branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..hdl import ast_nodes as ast
from ..ir.netlist import ModuleIR, Netlist
from .callplan import edge_plan

_BYTES_PER_INSTR = 4.2  # x86-64 average instruction length
_CALL_OVERHEAD = 12  # instructions per child-module call (LiveSim style)
_INLINE_FACTOR = 0.85  # cross-module optimization benefit of full inlining


@dataclass
class OpCount:
    """Raw operation counts for one expression/statement walk."""

    alu: float = 0.0
    branches: float = 0.0
    loads: float = 0.0
    stores: float = 0.0

    def add(self, other: "OpCount") -> None:
        self.alu += other.alu
        self.branches += other.branches
        self.loads += other.loads
        self.stores += other.stores

    def scaled(self, factor: float) -> "OpCount":
        return OpCount(
            alu=self.alu * factor,
            branches=self.branches * factor,
            loads=self.loads * factor,
            stores=self.stores * factor,
        )


@dataclass
class ModuleCost:
    """Cost of evaluating one instance of one module for one cycle."""

    key: str
    style: str
    instructions: float
    branches: float
    loads: float
    stores: float
    code_bytes: float  # host code footprint of the compiled module
    state_bytes: int  # per-instance data footprint


@dataclass
class DesignCost:
    """Whole-design per-cycle cost for one compilation style."""

    style: str
    instructions: float  # executed per simulated cycle, all instances
    branches: float
    loads: float
    stores: float
    code_bytes: float  # total compiled code footprint (the I$ working set)
    data_bytes: float  # total state footprint (the D$ working set)
    module_costs: Dict[str, ModuleCost] = field(default_factory=dict)
    instance_counts: Dict[str, int] = field(default_factory=dict)


class _CostWalker:
    def __init__(self, ir: ModuleIR, style: str):
        self._ir = ir
        self._style = style

    # -- expressions ---------------------------------------------------------

    def expr(self, node: ast.Expr) -> OpCount:
        count = OpCount()
        self._expr(node, count)
        return count

    def _expr(self, node: ast.Expr, out: OpCount) -> None:
        if isinstance(node, ast.Num):
            return
        if isinstance(node, ast.Id):
            sig = self._ir.signals.get(node.name)
            if sig is not None and (sig.state_index is not None):
                out.loads += 1
            else:
                out.alu += 0.2  # local/register-allocated value
            return
        if isinstance(node, ast.Unary):
            out.alu += 1
            self._expr(node.operand, out)
            return
        if isinstance(node, ast.Binary):
            out.alu += 2 if node.op in ("*", "/", "%") else 1
            self._expr(node.left, out)
            self._expr(node.right, out)
            return
        if isinstance(node, ast.Ternary):
            cond = OpCount()
            self._expr(node.cond, cond)
            out.add(cond)
            if_true = OpCount()
            self._expr(node.if_true, if_true)
            if_false = OpCount()
            self._expr(node.if_false, if_false)
            if self._style == "branch":
                out.branches += 1
                out.alu += 1
                # One arm executes; charge the average.
                out.add(if_true.scaled(0.5))
                out.add(if_false.scaled(0.5))
            else:
                out.alu += 4  # mask construction and merge
                out.add(if_true)
                out.add(if_false)
            return
        if isinstance(node, ast.Concat):
            out.alu += 2 * max(len(node.parts) - 1, 0)
            for part in node.parts:
                self._expr(part, out)
            return
        if isinstance(node, ast.Repl):
            out.alu += 1
            self._expr(node.value, out)
            return
        if isinstance(node, ast.Index):
            if node.base in self._ir.memories:
                out.loads += 1
                out.alu += 1
            else:
                out.alu += 2
                self._name_read(node.base, out)
            self._expr(node.index, out)
            return
        if isinstance(node, ast.Slice):
            out.alu += 2
            self._name_read(node.base, out)
            return
        if isinstance(node, ast.IndexedPart):
            out.alu += 2
            self._name_read(node.base, out)
            self._expr(node.start, out)
            return
        if isinstance(node, ast.SysCall):
            for arg in node.args:
                self._expr(arg, out)
            return

    def _name_read(self, name: str, out: OpCount) -> None:
        sig = self._ir.signals.get(name)
        if sig is not None and sig.state_index is not None:
            out.loads += 1
        else:
            out.alu += 0.2

    # -- statements -----------------------------------------------------------

    def stmts(self, body: List[ast.Stmt], is_seq: bool) -> OpCount:
        count = OpCount()
        for stmt in body:
            count.add(self._stmt(stmt, is_seq))
        return count

    def _stmt(self, stmt: ast.Stmt, is_seq: bool) -> OpCount:
        out = OpCount()
        if isinstance(stmt, (ast.NonBlocking, ast.Blocking)):
            out.add(self.expr(stmt.value))
            if stmt.target.name in self._ir.memories or is_seq:
                out.stores += 1
            else:
                out.alu += 0.2
            if stmt.target.index is not None:
                out.add(self.expr(stmt.target.index))
                out.alu += 3  # read-modify-write merge
            return out
        if isinstance(stmt, ast.If):
            out.add(self.expr(stmt.cond))
            out.branches += 1
            then_cost = self.stmts(stmt.then_body, is_seq)
            else_cost = self.stmts(stmt.else_body, is_seq)
            # Control flow always branches (both styles); charge the average
            # executed path but the full code footprint elsewhere.
            out.add(then_cost.scaled(0.5))
            out.add(else_cost.scaled(0.5))
            return out
        if isinstance(stmt, ast.Case):
            out.add(self.expr(stmt.subject))
            arms = max(len(stmt.arms), 1)
            out.branches += arms / 2
            out.alu += arms / 2
            for _, body in stmt.arms:
                out.add(self.stmts(body, is_seq).scaled(1.0 / arms))
            return out
        return out

    # -- static (footprint) size: every op, no execution averaging -------------

    def static_expr(self, node: ast.Expr) -> float:
        if isinstance(node, (ast.Num,)):
            return 0.5
        if isinstance(node, ast.Id):
            return 1.0
        if isinstance(node, ast.Unary):
            return 1 + self.static_expr(node.operand)
        if isinstance(node, ast.Binary):
            return 1 + self.static_expr(node.left) + self.static_expr(node.right)
        if isinstance(node, ast.Ternary):
            return (
                2
                + self.static_expr(node.cond)
                + self.static_expr(node.if_true)
                + self.static_expr(node.if_false)
            )
        if isinstance(node, ast.Concat):
            return 1 + sum(self.static_expr(p) for p in node.parts)
        if isinstance(node, ast.Repl):
            return 1 + self.static_expr(node.value)
        if isinstance(node, ast.Index):
            return 2 + self.static_expr(node.index)
        if isinstance(node, (ast.Slice,)):
            return 2.0
        if isinstance(node, ast.IndexedPart):
            return 2 + self.static_expr(node.start)
        if isinstance(node, ast.SysCall):
            return sum(self.static_expr(a) for a in node.args)
        return 1.0

    def static_stmts(self, body: List[ast.Stmt]) -> float:
        total = 0.0
        for stmt in body:
            if isinstance(stmt, (ast.NonBlocking, ast.Blocking)):
                total += 1 + self.static_expr(stmt.value)
                if stmt.target.index is not None:
                    total += self.static_expr(stmt.target.index) + 3
            elif isinstance(stmt, ast.If):
                total += 1 + self.static_expr(stmt.cond)
                total += self.static_stmts(stmt.then_body)
                total += self.static_stmts(stmt.else_body)
            elif isinstance(stmt, ast.Case):
                total += 1 + self.static_expr(stmt.subject)
                for labels, body_arm in stmt.arms:
                    total += 1 + len(labels)
                    total += self.static_stmts(body_arm)
        return total


def module_cost(ir: ModuleIR, style: str) -> ModuleCost:
    """Per-instance, per-cycle cost of one module in one style."""
    walker = _CostWalker(ir, style)
    dynamic = OpCount()
    static_ops = 0.0
    for assign in ir.comb_assigns:
        dynamic.add(walker.expr(assign.value))
        dynamic.alu += 0.2
        static_ops += 1 + walker.static_expr(assign.value)
    for comb in ir.comb_blocks:
        dynamic.add(walker.stmts(comb.body, is_seq=False))
        static_ops += walker.static_stmts(comb.body)
    for seq in ir.seq_blocks:
        dynamic.add(walker.stmts(seq.body, is_seq=True))
        static_ops += walker.static_stmts(seq.body)
    # Pending-copy + commit work: only for the registers ``cycle`` does
    # not write in place.
    pending = len(edge_plan(ir).pending)
    dynamic.loads += pending
    dynamic.stores += 2 * pending
    static_ops += 2 * pending
    # Child call glue.
    for inst in ir.instances:
        child_args = len(inst.input_conns) + len(inst.output_conns)
        if style == "branch":
            dynamic.alu += _CALL_OVERHEAD + child_args
            static_ops += _CALL_OVERHEAD + child_args
        else:
            # Fully inlined: glue disappears but the child body is
            # accounted per instance at design level.
            dynamic.alu += child_args * 0.5
            static_ops += child_args * 0.5
        for expr in inst.input_conns.values():
            dynamic.add(walker.expr(expr))
            static_ops += walker.static_expr(expr)

    instructions = dynamic.alu + dynamic.branches + dynamic.loads + dynamic.stores
    state_bytes = 8 * 2 * ir.num_regs + sum(
        8 * m.depth for m in ir.memories.values()
    )
    if style == "select":
        instructions *= _INLINE_FACTOR
        static_ops *= _INLINE_FACTOR
    return ModuleCost(
        key=ir.key,
        style=style,
        instructions=instructions,
        branches=dynamic.branches,
        loads=dynamic.loads,
        stores=dynamic.stores,
        code_bytes=static_ops * _BYTES_PER_INSTR,
        state_bytes=state_bytes,
    )


def design_cost(netlist: Netlist, style: str) -> DesignCost:
    """Aggregate cost for the whole design in one compilation style.

    The decisive difference between the styles (paper Table VII):

    * ``branch``/LiveSim — code is shared, so the I$ working set is the
      sum over *unique* specializations;
    * ``select``/Verilator — code is replicated, so the I$ working set
      is the sum over *instances*.
    """
    counts = netlist.instance_count()
    module_costs = {
        key: module_cost(netlist.modules[key], style) for key in counts
    }
    total = DesignCost(style=style, instructions=0.0, branches=0.0, loads=0.0,
                       stores=0.0, code_bytes=0.0, data_bytes=0.0,
                       module_costs=module_costs, instance_counts=dict(counts))
    for key, n in counts.items():
        cost = module_costs[key]
        total.instructions += n * cost.instructions
        total.branches += n * cost.branches
        total.loads += n * cost.loads
        total.stores += n * cost.stores
        total.data_bytes += n * cost.state_bytes
        if style == "branch":
            total.code_bytes += cost.code_bytes  # shared once
        else:
            total.code_bytes += n * cost.code_bytes  # replicated
    return total
