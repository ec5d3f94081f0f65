"""The optimization passes: constant propagation and dead-logic
elimination.

Both are *facts-only*: they never mutate the shared ModuleIR.
Their conclusions are one :class:`~repro.codegen.optplan.OptPlan` per
module in ``PassData.plans``, which codegen compiles under: constprop
starts it from the module's own assigns (no plan at ``opt=none``) and
deadlogic fills in the dead units.  The skippable children are the
sensitivity pass's, at every level (:mod:`repro.passes.codegen`).

Per-module results go through :meth:`PassData.cached` — the session's
derived cache under the module identity (spec, fingerprint) plus each
pass's own extras — so a hot
reload re-runs each pass only for the modules whose identity moved.

A combinational loop (``ModuleIR.loops``) is one unit to both: its
defines never fold (their value is whatever the loop settles to), and
it is live or dead as a whole.  Everything around it is optimized as in
any other module.

Under sanitize the dynamic passes no longer stand down wholesale (the
PR 9 posture): dead elimination drops only units with no sanitizer
site.  The site count is asked of the generator
(:func:`repro.codegen.pygen.site_count` runs the emitter over the unit
or module): nothing here decides where a hook would go.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..codegen.optplan import OptPlan, optimize_stmts, substitute_expr
from ..codegen.pygen import site_count
from ..hdl import ast_nodes as ast
from ..hdl.consteval import expr_reads, mask_of, num_value, stmt_reads_writes
from ..ir.netlist import ModuleIR, Netlist
from .base import Pass, PassData


# -- shared residual-read helpers (what the emitted code still reads) --------


def _expr_residual_reads(expr, consts, widths) -> Set[str]:
    return expr_reads(substitute_expr(expr, consts, widths))


def _stmts_residual_reads(stmts, consts, widths) -> Set[str]:
    reads, _ = stmt_reads_writes(optimize_stmts(stmts, consts, widths))
    return reads


# -- constant propagation ----------------------------------------------------


class ConstPropPass(Pass):
    """Find comb wires whose single driving assign folds to a literal.

    Starts ``PassData.plans``: key -> an :class:`OptPlan` whose
    ``consts`` maps signal name to its value already masked to the
    declared width.  Active at ``opt=full`` (including under sanitize:
    substitution only replaces *wire* reads, which carry no poison, and
    the driving assign keeps its trunc instrumentation).
    Folding is syntactic: it reads no value facts.
    """

    name = "constprop"

    def run(self, data: PassData) -> None:
        data.plans = {
            key: data.cached(self.name, key, (),
                             lambda: self._find_consts(ir))
            for key, ir in data.netlist.modules.items()
        }

    @staticmethod
    def _find_consts(ir: ModuleIR) -> OptPlan:
        blocked: Set[str] = {
            name for loop in ir.loops for unit in loop
            for name in ir.unit_defines(unit)
        }
        seen_assign: Set[str] = set()
        for assign in ir.comb_assigns:
            name = assign.target.name
            if name in seen_assign:
                blocked.add(name)  # multi-driver
            seen_assign.add(name)
            if assign.target.index is not None or assign.target.msb is not None:
                blocked.add(name)  # partial writes never fold
        for comb in ir.comb_blocks:
            blocked.update(comb.defines)
        for inst in ir.instances:
            blocked.update(inst.output_conns.values())
        for _, _, target in ir.early_bind:
            blocked.add(target)

        consts: Dict[str, int] = {}
        widths: Dict[str, int] = {}
        for kind, index in ir.schedule:
            if kind != "assign":
                continue
            assign = ir.comb_assigns[index]
            name = assign.target.name
            if name in blocked:
                continue
            declared = ir.signals[name].width
            folded = substitute_expr(assign.value, consts, widths)
            if isinstance(folded, ast.Num):
                consts[name] = num_value(folded) & mask_of(declared)
                widths[name] = declared
        return OptPlan(consts=consts, const_widths=widths)


# -- dead-logic elimination --------------------------------------------------


class DeadLogicPass(Pass):
    """Backward liveness over the schedule: comb assigns/blocks whose
    defines reach no output, no sequential block, and no instance
    connection are dropped from the emitted evals (the plan's
    ``dead_assigns`` / ``dead_blocks``).

    Reads are *residual* — computed on the constant-substituted,
    branch-pruned bodies, exactly what codegen will emit — so a signal
    read only inside a pruned branch keeps nothing alive.  Under
    sanitize, a value-dead unit is only dropped when the generator
    writes no sanitizer site for it (instrumented reads are
    side-effecting findings); anything carrying a site stays live.
    """

    name = "deadlogic"

    def run(self, data: PassData) -> None:
        sanitize = data.build.sanitize
        sanitized_in = data.netlist if sanitize else None
        for key, plan in list(data.plans.items()):
            ir = data.netlist.modules[key]
            assigns, blocks = data.cached(
                self.name, key, (sanitize,),
                lambda: self._find_dead(ir, plan.consts, plan.const_widths,
                                        sanitized_in),
            )
            data.plans[key] = plan._replace(dead_assigns=assigns,
                                            dead_blocks=blocks)

    @staticmethod
    def _find_dead(ir: ModuleIR, consts: dict, widths: dict,
                   sanitized_in: Optional[Netlist] = None,
                   ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Dead assign and block indices, ascending.  ``sanitized_in``:
        the netlist, when the build is sanitized."""
        needed: Set[str] = set(ir.outputs)
        for seq in ir.seq_blocks:
            needed |= _stmts_residual_reads(seq.body, consts, widths)
        # Instance conns seed the walk up front, not at their schedule
        # position: cycle calls every child at the *end* of the
        # function with all input conns (including seq-only ports), so
        # an assign scheduled after the instance is still consumed.
        for inst in ir.instances:
            for conn in inst.input_conns.values():
                needed |= _expr_residual_reads(conn, consts, widths)
        dead: Dict[str, Set[int]] = {"assign": set(), "block": set()}
        for units, _ in reversed(list(ir.steps)):
            units = [u for u in units if u[0] != "inst"]
            # Dropping a unit with a site would silence its findings.
            live = any(name in needed for unit in units
                       for name in ir.unit_defines(unit)) or (
                sanitized_in is not None
                and any(site_count(ir, sanitized_in, unit) > 0
                        for unit in units)
            )
            for kind, index in units:
                if not live:
                    dead[kind].add(index)
                elif kind == "block":
                    needed |= _stmts_residual_reads(
                        ir.comb_blocks[index].body, consts, widths
                    )
                else:
                    needed |= _expr_residual_reads(
                        ir.comb_assigns[index].value, consts, widths
                    )
        return tuple(sorted(dead["assign"])), tuple(sorted(dead["block"]))
