"""The optimization passes: constant propagation, dead-logic
elimination, sensitivity pruning.

All three are *facts-only*: they never mutate the shared ModuleIR.
Codegen consumes their conclusions through an
:class:`~repro.codegen.optplan.OptPlan`.

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

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set, Tuple

from ..codegen.optplan import optimize_stmts, substitute_expr
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

    Produces ``opt.consts``: key -> (consts, widths) where ``consts``
    maps signal name to its value already masked to the declared width.
    Active at every opt level above ``none`` (including under sanitize:
    substitution only replaces *wire* reads, which carry no poison, and
    the driving assign keeps its trunc instrumentation).

    Beyond syntactic folding, the pass consumes the swap-stable tier of
    ``dataflow.facts``: a wire whose interval proof pins one value in
    *any* register state (e.g. a comparison decided by widths alone)
    folds even when its expression never reduces to a literal — the
    range-based comparison/dead-branch rung.  Only the stable tier may
    justify this: folding is value-affecting, and hot swaps adopt live
    state outside the from-reset ranges.
    """

    name = "constprop"
    requires = ("elab.facts", "dataflow.facts")
    produces = ("opt.consts",)

    def run(self, data: PassData) -> None:
        out: Dict[str, Tuple[dict, dict]] = {}
        if data.build.opt != "none":
            value_facts = data.facts["dataflow.facts"]
            for key, ir in data.netlist.modules.items():
                mod_facts = value_facts.get(key)
                stable = mod_facts.stable if mod_facts is not None else None
                out[key] = data.cached(
                    self.name, key, (),
                    lambda: self._find_consts(ir, stable),
                )
        data.facts["opt.consts"] = out

    @staticmethod
    def _find_consts(ir: ModuleIR,
                     stable: Optional[dict] = None) -> Tuple[dict, dict]:
        if ir.needs_fixpoint:
            return {}, {}
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
        return consts, widths


# -- dead-logic elimination --------------------------------------------------


@dataclass(frozen=True)
class DeadFacts:
    assigns: FrozenSet[int]
    blocks: FrozenSet[int]


_EMPTY_DEAD = DeadFacts(assigns=frozenset(), blocks=frozenset())


class DeadLogicPass(Pass):
    """Backward liveness over the schedule: comb assigns/blocks whose
    defines reach no output, no sequential block, and no instance
    connection are dropped from the emitted evals.

    Reads are *residual* — computed on the constant-substituted,
    branch-pruned bodies, exactly what codegen will emit — so a signal
    read only inside a pruned branch keeps nothing alive.  Under
    sanitize, a value-dead unit is only dropped when the generator
    writes no sanitizer site for it (instrumented reads are
    side-effecting findings); anything carrying a site stays live.
    """

    name = "deadlogic"
    requires = ("opt.consts",)
    produces = ("opt.dead",)

    def run(self, data: PassData) -> None:
        out: Dict[str, DeadFacts] = {}
        if data.build.opt != "none":
            consts_facts = data.facts["opt.consts"]
            sanitize = data.build.sanitize
            sanitized_in = data.netlist if sanitize else None
            for key, ir in data.netlist.modules.items():
                consts, widths = consts_facts.get(key, ({}, {}))
                out[key] = data.cached(
                    self.name, key, (sanitize,),
                    lambda: self._find_dead(ir, consts, widths,
                                            sanitized_in),
                )
        data.facts["opt.dead"] = out

    @staticmethod
    def _find_dead(ir: ModuleIR, consts: dict, widths: dict,
                   sanitized_in: Optional[Netlist] = None) -> DeadFacts:
        """``sanitized_in``: the netlist, when the build is sanitized."""
        if ir.needs_fixpoint:
            return _EMPTY_DEAD
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
        return DeadFacts(
            assigns=frozenset(dead["assign"]),
            blocks=frozenset(dead["block"]),
        )


# -- sensitivity pruning -----------------------------------------------------


@dataclass(frozen=True)
class SensFacts:
    skip_children: Tuple[int, ...]


_EMPTY_SENS = SensFacts(skip_children=())


class SensitivityPrunePass(Pass):
    """opt=full only: mark pure child subtrees, whose ``cycle`` call a
    parent can elide entirely.  Under sanitize the skip additionally
    requires the child subtree to be instrumentation-free (san-free).

    (The pass used to emit per-block input-change guards as well, to
    skip re-evaluating a comb block in the sequential half; since every
    comb unit is evaluated once per cycle there is nothing to skip.)
    """

    name = "sensitivity"
    requires = ("elab.facts", "sanitize.plan")
    produces = ("opt.sensitivity",)

    def run(self, data: PassData) -> None:
        out: Dict[str, SensFacts] = {}
        if data.build.opt == "full":
            elab = data.facts["elab.facts"]
            san_plan = data.facts["sanitize.plan"]
            sanitize = san_plan["enabled"]
            san_free = san_plan["san_free"]
            # A dict walk over facts already computed: cheaper than the
            # cache probe per module the other passes are worth.
            for key, ir in data.netlist.modules.items():
                out[key] = SensFacts(skip_children=tuple(
                    index for index, inst in enumerate(ir.instances)
                    if elab[inst.child_key].pure
                    and (not sanitize or inst.child_key in san_free)
                ))
        data.facts["opt.sensitivity"] = out
