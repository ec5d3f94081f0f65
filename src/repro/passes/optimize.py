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
branch pruning, dead elimination, nor guards can reason about a single
linear evaluation.

Under sanitize the dynamic passes no longer stand down wholesale (the
PR 9 posture): dead elimination drops only units the site census
(:mod:`repro.sanitize.elide`) proves instrumentation-free, and
sensitivity guards stay sound because a skipped body's checks are
pure functions of the unchanged guard key — any finding they would
re-report is already deduplicated per site, and every poison-
introducing transition (swap, restore) lands in cold guard slots.
Child-subtree skips additionally require the subtree to be san-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set, Tuple

from ..codegen.exprgen import mask_of
from ..codegen.optplan import (
    num_value,
    num_width,
    optimize_stmts,
    substitute_expr,
)
from ..hdl import ast_nodes as ast
from ..hdl.consteval import expr_reads, stmt_reads_writes
from ..ir.netlist import ModuleIR
from ..sanitize.elide import unit_site_count
from .base import Pass, PassData

MAX_GUARD_KEY = 12  # widest input tuple worth building every cycle


# -- shared residual-read helpers (what the emitted code still reads) --------


def _expr_residual_reads(expr, consts, widths) -> Set[str]:
    return expr_reads(substitute_expr(expr, consts, widths))


def _stmts_residual_reads(stmts, consts, widths) -> Set[str]:
    reads, _ = stmt_reads_writes(optimize_stmts(stmts, consts, widths))
    return reads


def _stmt_weight(stmts) -> int:
    """Assignment count, recursively — the 'is a guard worth it' proxy."""
    total = 0
    for stmt in stmts:
        if isinstance(stmt, (ast.NonBlocking, ast.Blocking)):
            total += 1
        elif isinstance(stmt, ast.If):
            total += _stmt_weight(stmt.then_body) + _stmt_weight(stmt.else_body)
        elif isinstance(stmt, ast.Case):
            total += sum(_stmt_weight(body) for _, body in stmt.arms)
    return total


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
    # Residual reads per *live* comb block (what the optimized body
    # still references) — the sensitivity pass keys guards on these.
    block_reads: Dict[int, FrozenSet[str]]


_EMPTY_DEAD = DeadFacts(assigns=frozenset(), blocks=frozenset(),
                        block_reads={})


class DeadLogicPass(Pass):
    """Backward liveness over the schedule: comb assigns/blocks whose
    defines reach no output, no sequential block, and no instance
    connection are dropped from the emitted evals.

    Reads are *residual* — computed on the constant-substituted,
    branch-pruned bodies, exactly what codegen will emit — so a signal
    read only inside a pruned branch keeps nothing alive.  Under
    sanitize, a value-dead unit is only dropped when the site census
    proves it emits zero instrumentation (instrumented reads are
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
            for key, ir in data.netlist.modules.items():
                consts, widths = consts_facts.get(key, ({}, {}))
                out[key] = data.cached(
                    self.name, key, (sanitize,),
                    lambda: self._find_dead(ir, consts, widths,
                                            protect_sites=sanitize),
                )
        data.facts["opt.dead"] = out

    @staticmethod
    def _find_dead(ir: ModuleIR, consts: dict, widths: dict,
                   protect_sites: bool = False) -> DeadFacts:
        if ir.needs_fixpoint:
            return _EMPTY_DEAD
        needed: Set[str] = set(ir.outputs)
        for seq in ir.seq_blocks:
            needed |= _stmts_residual_reads(seq.body, consts, widths)
        # Instance conns seed the walk up front, not at their schedule
        # position: eval_seq calls every child at the *end* of the
        # function with all input conns (including seq-only ports), so
        # an assign scheduled after the instance is still consumed.
        for inst in ir.instances:
            for conn in inst.input_conns.values():
                needed |= _expr_residual_reads(conn, consts, widths)
        dead_assigns: Set[int] = set()
        dead_blocks: Set[int] = set()
        block_reads: Dict[int, FrozenSet[str]] = {}
        for kind, index in reversed(ir.schedule):
            if kind == "inst":
                continue
            if kind == "block":
                comb = ir.comb_blocks[index]
                live = any(name in needed for name in comb.defines)
                if not live and protect_sites \
                        and unit_site_count(ir, "block", index):
                    live = True  # dropping it would silence findings
                if live:
                    reads = frozenset(
                        _stmts_residual_reads(comb.body, consts, widths)
                    )
                    block_reads[index] = reads
                    needed |= reads
                else:
                    dead_blocks.add(index)
            else:  # assign
                assign = ir.comb_assigns[index]
                live = assign.target.name in needed
                if not live and protect_sites \
                        and unit_site_count(ir, "assign", index):
                    live = True
                if live:
                    needed |= _expr_residual_reads(
                        assign.value, consts, widths
                    )
                else:
                    dead_assigns.add(index)
        return DeadFacts(
            assigns=frozenset(dead_assigns),
            blocks=frozenset(dead_blocks),
            block_reads=block_reads,
        )


# -- sensitivity pruning -----------------------------------------------------


@dataclass(frozen=True)
class SensFacts:
    guard_blocks: Tuple[int, ...]
    guard_inputs: Dict[int, Tuple[str, ...]]
    skip_children: Tuple[int, ...]


_EMPTY_SENS = SensFacts(guard_blocks=(), guard_inputs={}, skip_children=())


class SensitivityPrunePass(Pass):
    """opt=full only: emit per-block input-change guards in eval_seq
    (a comb block whose residual inputs match last cycle's restores its
    cached outputs instead of re-evaluating), and mark pure child
    subtrees whose eval_seq/tick calls can be elided entirely.

    Guards are sound without invalidation because a guarded block's
    outputs are a pure function of its key: block-local defines start
    from a deterministic zero-init, so a stale (key, outputs) pair in
    state simply never matches a live key it would corrupt.  That same
    argument carries under sanitize — a skipped re-eval would only
    re-report per-site-deduplicated findings — with one rider: every
    state-introducing transition (swap, checkpoint restore) must land
    in cold guard slots, which hot reload's ``make_state`` and stage
    restore both guarantee.  Child skips additionally require the
    child subtree to be instrumentation-free (san-free).
    """

    name = "sensitivity"
    requires = ("elab.facts", "opt.dead", "sanitize.plan")
    produces = ("opt.sensitivity",)

    def run(self, data: PassData) -> None:
        out: Dict[str, SensFacts] = {}
        if data.build.opt == "full":
            elab = data.facts["elab.facts"]
            dead_facts = data.facts["opt.dead"]
            san_plan = data.facts["sanitize.plan"]
            sanitize = san_plan["enabled"]
            san_free = san_plan["san_free"]
            for key, ir in data.netlist.modules.items():
                child_skip = tuple(
                    elab[inst.child_key].pure
                    and (not sanitize or inst.child_key in san_free)
                    for inst in ir.instances
                )
                # ``sanitize`` because the dead set consumed here is
                # itself keyed on it.
                out[key] = data.cached(
                    self.name, key, (sanitize, child_skip),
                    lambda: self._plan_module(
                        ir, dead_facts.get(key, _EMPTY_DEAD), child_skip
                    ),
                )
        data.facts["opt.sensitivity"] = out

    @staticmethod
    def _plan_module(
        ir: ModuleIR, dead: DeadFacts, child_skip: Tuple[bool, ...]
    ) -> SensFacts:
        if ir.needs_fixpoint:
            return _EMPTY_SENS
        skip_children = tuple(
            index for index, skip in enumerate(child_skip) if skip
        )
        guards = []
        guard_inputs: Dict[int, Tuple[str, ...]] = {}
        for index, comb in enumerate(ir.comb_blocks):
            reads = dead.block_reads.get(index)
            if reads is None:  # dead block, or dead pass stood down
                continue
            if not comb.defines:
                continue
            if any(name in ir.memories for name in reads):
                continue  # memory contents are not cheap-keyable
            if _stmt_weight(comb.body) < 2:
                continue  # guard overhead would beat the body
            key_names = tuple(sorted(
                name for name in reads
                if name not in comb.defines and name in ir.signals
            ))
            if len(key_names) > MAX_GUARD_KEY:
                continue
            guards.append(index)
            guard_inputs[index] = key_names
        return SensFacts(
            guard_blocks=tuple(guards),
            guard_inputs=guard_inputs,
            skip_children=skip_children,
        )
