"""Proof-driven sanitizer check elision.

``repro.passes.dataflow`` proves per-site facts (known-bits masks and
unsigned intervals).  This module turns the swap-stable tier of those
facts into an :class:`ElisionPlan` that codegen consumes:

* ``ob`` sites (dynamic bit/part-select and memory-write address
  bounds) whose index is proven in range for *any* register state are
  dropped entirely — the check can never fire.
* ``tr`` sites (too-wide assignments) whose value is proven to fit the
  declared width degrade to the plain mask — no lost bits exist.
* ``rr`` sites (register reads) are never removed: a hot swap or
  checkpoint restore can poison any register at any time, so no static
  proof covers them.  Instead every site gains an inline poison-bit
  fast path — the ``_san.rr`` call is only made when the register's
  poison bit is actually set, which preserves findings bit-for-bit
  while taking the hook call off the hot path.
* ``mr``, ``ob``, ``tr``, and ``nw`` sites that cannot be removed get
  the same treatment under ``rr_fast``: the emitted code tests the
  reporting condition inline and only calls the hook when it would
  actually report (or, for ``nw`` on a statically single-writer
  register, writes the tick-visible dict entry inline — the
  cross-block conflict cannot exist).  Hit counters and findings are
  identical by construction.

Only the *stable* tier may justify removal: the from-reset (``env``)
tier feeds the analyzer, but adopted or migrated state is free to
leave its ranges.  The one env-tier consumer here is
:func:`reg_const_init` — registers proven constant from reset — which
hot reload uses to initialize swap-introduced registers to their
proven value instead of poisoning them (the "fully-known init" case).

The site-census helpers at the bottom let the dynamic optimization
passes stack with the sanitizer: a unit (or a pure child subtree) with
zero instrumentation sites can be dead-eliminated or skipped without
silencing any finding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from ..hdl import ast_nodes as ast
from ..hdl.consteval import width_of
from ..hdl.errors import HDLError
from ..ir.netlist import ModuleIR, Netlist

SiteKey = Tuple[str, int]  # (signal/memory name, source line)


@dataclass(frozen=True)
class ElisionPlan:
    """What codegen may skip for one module specialization."""

    ob_safe: FrozenSet[SiteKey] = frozenset()
    tr_safe: FrozenSet[SiteKey] = frozenset()
    # Emit the inline report-condition fast paths (rr poison bit, mr
    # bound+poison, ob bound, tr fit, nw single-writer).  Plan-level
    # rather than per-site: they are sound everywhere or nowhere.
    rr_fast: bool = True
    digest: str = ""

    @property
    def is_empty(self) -> bool:
        return not (self.ob_safe or self.tr_safe or self.rr_fast)


EMPTY_PLAN = ElisionPlan(rr_fast=False)


def build_elision_plan(facts) -> ElisionPlan:
    """Derive a plan from one module's :class:`ModuleValueFacts`.

    Only stable-tier sites qualify; a site missing from the stable
    recording (e.g. inside a branch the walk proved dead) simply stays
    instrumented.
    """
    ob_safe = frozenset(
        key for key, site in facts.stable_ob_sites.items() if site.safe
    )
    tr_safe = frozenset(
        key for key, site in facts.stable_tr_sites.items() if site.safe
    )
    return ElisionPlan(ob_safe=ob_safe, tr_safe=tr_safe, rr_fast=True,
                       digest=facts.digest)


def reg_const_init(facts, ir: ModuleIR) -> Dict[str, int]:
    """Registers proven to hold one constant value in every cycle from
    reset (env tier).  Hot reload initializes a swap-introduced
    register from this map instead of poisoning it: the value cannot
    differ from what a from-reset run would hold, so reading it is not
    reading uninitialized state."""
    out: Dict[str, int] = {}
    for name, sig in ir.signals.items():
        if sig.state_index is None:
            continue
        fact = facts.env.get(name)
        if fact is not None and fact.is_const:
            out[name] = fact.const_value
    return out


# ----------------------------------------------------------------------------
# Instrumentation-site census (conservative: over-counting is sound)
# ----------------------------------------------------------------------------


@dataclass
class _Census:
    ir: ModuleIR
    count: int = 0

    def _is_reg(self, name: str) -> bool:
        sig = self.ir.signals.get(name)
        return sig is not None and sig.state_index is not None

    def expr(self, expr) -> None:
        if isinstance(expr, ast.Num):
            return
        if isinstance(expr, ast.Id):
            if self._is_reg(expr.name):
                self.count += 1  # rr
            return
        if isinstance(expr, ast.Index):
            if expr.base in self.ir.memories:
                self.count += 1  # mr (bound + word poison)
            else:
                if self._is_reg(expr.base):
                    self.count += 1  # rr on the base read
                if not isinstance(expr.index, ast.Num):
                    self.count += 1  # ob
            self.expr(expr.index)
            return
        if isinstance(expr, (ast.Slice, ast.IndexedPart)):
            if self._is_reg(expr.base):
                self.count += 1  # rr
            if isinstance(expr, ast.IndexedPart):
                if not isinstance(expr.start, ast.Num):
                    self.count += 1  # ob
                self.expr(expr.start)
            return
        if isinstance(expr, ast.Unary):
            self.expr(expr.operand)
            return
        if isinstance(expr, ast.Binary):
            self.expr(expr.left)
            self.expr(expr.right)
            return
        if isinstance(expr, ast.Ternary):
            self.expr(expr.cond)
            self.expr(expr.if_true)
            self.expr(expr.if_false)
            return
        if isinstance(expr, ast.Concat):
            for part in expr.parts:
                self.expr(part)
            return
        if isinstance(expr, ast.Repl):
            self.expr(expr.value)
            return
        if isinstance(expr, ast.SysCall):
            for arg in expr.args:
                self.expr(arg)
            return
        self.count += 1  # unknown node: assume a site

    def _too_wide(self, value, declared: int) -> bool:
        try:
            return width_of(value, self.ir.signal_width,
                            self.ir.memory_width) > declared
        except HDLError:
            return True  # codegen cannot size it: assume a site

    def assign(self, target, value, seq: bool) -> None:
        """Sites one assignment emits.  Signal bit-write indices and
        RMW current-value reads carry no hooks (see StmtGen), so they
        do not count; memory writes wrap their address in ``ob``."""
        self.expr(value)
        if target.index is not None:
            self.expr(target.index)
        if target.name in self.ir.memories:
            self.count += 1  # ob on the write address
            return
        sig = self.ir.signals.get(target.name)
        if sig is None:
            self.count += 1
            return
        if seq:
            self.count += 1  # nw write note
        if target.index is None and target.msb is None \
                and self._too_wide(value, sig.width):
            self.count += 1  # tr

    def stmts(self, stmts, seq: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.Blocking, ast.NonBlocking)):
                self.assign(stmt.target, stmt.value, seq)
            elif isinstance(stmt, ast.If):
                self.expr(stmt.cond)
                self.stmts(stmt.then_body, seq)
                self.stmts(stmt.else_body, seq)
            elif isinstance(stmt, ast.Case):
                self.expr(stmt.subject)
                for labels, body in stmt.arms:
                    for label in labels:
                        self.expr(label)
                    self.stmts(body, seq)
            else:
                self.count += 1


def unit_site_count(ir: ModuleIR, kind: str, index: int) -> int:
    """Instrumentation sites in one schedule unit (comb assign or comb
    block).  Conservative by construction: over-counting only keeps a
    dead unit alive, never the reverse."""
    census = _Census(ir)
    if kind == "assign":
        assign = ir.comb_assigns[index]
        census.assign(assign.target, assign.value, seq=False)
    else:
        census.stmts(ir.comb_blocks[index].body, seq=False)
    return census.count


def module_site_count(ir: ModuleIR) -> int:
    """Every instrumentation site one module emits (comb + seq +
    instance connections)."""
    census = _Census(ir)
    for assign in ir.comb_assigns:
        census.assign(assign.target, assign.value, seq=False)
    for comb in ir.comb_blocks:
        census.stmts(comb.body, seq=False)
    for seq in ir.seq_blocks:
        census.stmts(seq.body, seq=True)
    for inst in ir.instances:
        for conn in inst.input_conns.values():
            census.expr(conn)
    return census.count


def san_free_keys(netlist: Netlist) -> FrozenSet[str]:
    """Module keys whose whole subtree emits zero instrumentation
    sites — safe to dead-eliminate or skip under sanitize."""
    memo: Dict[str, bool] = {}

    def visit(key: str) -> bool:
        cached = memo.get(key)
        if cached is not None:
            return cached
        ir = netlist.modules[key]
        free = module_site_count(ir) == 0 and all(
            visit(inst.child_key) for inst in ir.instances
        )
        memo[key] = free
        return free

    for key in netlist.modules:
        visit(key)
    return frozenset(key for key, free in memo.items() if free)
