"""The optimization passes: constant propagation, dead-logic
elimination, sensitivity pruning.

All three are *facts-only*: they never mutate the shared ModuleIR.
Their conclusions are one :class:`~repro.codegen.optplan.OptPlan` per
module in ``PassData.plans``, which codegen compiles under: constprop
starts it from ``value_facts`` (empty at ``opt=none``), deadlogic fills
in the dead units, and sensitivity (``opt=full``) the skippable
children from ``pure`` or, in a sanitized build, ``san_free``.

Per-module results go through :meth:`PassData.cached` — the session's
derived cache under the module identity (spec, fingerprint, value-facts
digest) plus each pass's own extras — so a hot reload re-runs each pass
only for the modules whose identity moved.

Fixpoint modules are exempt from every optimization: their comb locals
round-trip through the memo slot between iteration passes, so neither
branch pruning nor dead elimination can reason about a single linear
evaluation.

Under sanitize the dynamic passes no longer stand down wholesale (the
PR 9 posture): dead elimination drops only units with no sanitizer
site, and child-subtree skips additionally require the subtree to be
san-free.  The site count is asked of the generator
(:func:`repro.codegen.pygen.site_count` runs the emitter over the unit
or module): nothing here decides where a hook would go.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Set, Tuple

from ..codegen.optplan import NO_OPT, OptPlan, optimize_stmts, substitute_expr
from ..codegen.pygen import site_count
from ..hdl import ast_nodes as ast
from ..hdl.consteval import (
    expr_reads,
    mask_of,
    num_value,
    num_width,
    stmt_reads_writes,
)
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
    declared width.  Active at every opt level above ``none`` (including
    under sanitize: substitution only replaces *wire* reads, which carry
    no poison, and the driving assign keeps its trunc instrumentation).

    Beyond syntactic folding, the pass consumes the swap-stable tier of
    ``value_facts``: a wire whose interval proof pins one value in
    *any* register state (e.g. a comparison decided by widths alone)
    folds even when its expression never reduces to a literal — the
    range-based comparison/dead-branch rung.  Only the stable tier may
    justify this: folding is value-affecting, and hot swaps adopt live
    state outside the from-reset ranges.
    """

    name = "constprop"

    def run(self, data: PassData) -> None:
        plans: Dict[str, OptPlan] = {}
        if data.build.opt != "none":
            for key, ir in data.netlist.modules.items():
                mod_facts = data.value_facts.get(key)
                stable = mod_facts.stable if mod_facts is not None else None
                plans[key] = data.cached(
                    self.name, key, (),
                    lambda: self._find_consts(ir, stable),
                )
        data.plans = plans

    @staticmethod
    def _find_consts(ir: ModuleIR, stable: Optional[dict] = None) -> OptPlan:
        if ir.needs_fixpoint:
            return NO_OPT
        blocked: Set[str] = set()
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
                value = num_value(folded)
                if num_width(folded) > declared:
                    value &= mask_of(declared)
                consts[name] = value
                widths[name] = declared
                continue
            fact = stable.get(name) if stable is not None else None
            if fact is not None and fact.is_const:
                consts[name] = fact.const_value & mask_of(declared)
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
            data.plans[key] = replace(plan, dead_assigns=assigns,
                                      dead_blocks=blocks)

    @staticmethod
    def _find_dead(ir: ModuleIR, consts: dict, widths: dict,
                   sanitized_in: Optional[Netlist] = None,
                   ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Dead assign and block indices, ascending.  ``sanitized_in``:
        the netlist, when the build is sanitized."""
        if ir.needs_fixpoint:
            return (), ()
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
        for kind, index in reversed(ir.schedule):
            if kind == "inst":
                continue
            if kind == "block":
                defines = ir.comb_blocks[index].defines
            else:
                defines = (ir.comb_assigns[index].target.name,)
            # Dropping a unit with a site would silence its findings.
            live = any(name in needed for name in defines) or (
                sanitized_in is not None
                and site_count(ir, sanitized_in, (kind, index)) > 0
            )
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


# -- sensitivity pruning -----------------------------------------------------


class SensitivityPrunePass(Pass):
    """opt=full only: mark pure child subtrees, whose ``cycle`` call a
    parent can elide entirely (the plan's ``skip_children``).  Under
    sanitize the skip additionally requires the child subtree to be
    instrumentation-free: ``san_free``, a subset of ``pure``.

    (The pass used to emit per-block input-change guards as well, to
    skip re-evaluating a comb block in the sequential half; since every
    comb unit is evaluated once per cycle there is nothing to skip.)
    """

    name = "sensitivity"

    def run(self, data: PassData) -> None:
        if data.build.opt != "full":
            return
        skippable = data.san_free if data.build.sanitize else data.pure
        # A dict walk over facts already computed: cheaper than the
        # cache probe per module the other passes are worth.
        for key, plan in list(data.plans.items()):
            data.plans[key] = replace(plan, skip_children=tuple(
                index
                for index, inst in enumerate(data.netlist.modules[key].instances)
                if inst.child_key in skippable
            ))
