"""What a sanitized module compile may shorten or skip.

An :class:`ElisionPlan` per module tells the instrumenter
(:mod:`repro.sanitize.instrument`) the shape of each hook.  No rule
here reads a value fact: a hot swap, a checkpoint restore or a poke can
put a register anywhere inside its declared width, so what holds from
reset need not hold in the running pipe.  Under ``rr_fast`` (``san_elide``
on):

* ``ob`` sites (dynamic bit/part-select and memory-write address
  bounds) whose index is too narrow to reach the bound are dropped
  entirely — the width rule: every generated value is masked to its
  width, so ``mask_of(width) < bound`` means the check can never fire.
* ``rr`` sites (register reads) are never removed.  Every site tests
  the register poison bitmap its function bound once (``_pz``): a zero
  bitmap — every cycle until a reload or a restore poisons something —
  costs one truth test, and the ``_san.rr`` call is only made when the
  register's own bit is set, which preserves findings bit-for-bit.
* ``mr``, ``ob`` and ``tr`` sites that stay test the reporting condition
  inline and only call the hook when it would actually report.  Hit
  counters and findings are identical by construction.
* ``nw`` on a statically single-writer register cannot conflict with
  another block, so the note only feeds the commit's poison clearing:
  it is a plain dict store, written only while ``_pz`` is nonzero (a
  bitmap that is zero when the edge starts is zero at its commit; see
  :mod:`repro.sanitize.instrument`).  A multi-writer register keeps
  the ``_san.nw`` call, whose conflict check does not depend on
  poison.

The one fact consumer here is :func:`reg_const_init` — registers
proven constant from reset — which hot reload uses to initialize
swap-introduced registers to their proven value instead of poisoning
them (the "fully-known init" case).  It changes no generated code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..ir.netlist import ModuleIR


@dataclass(frozen=True)
class ElisionPlan:
    """What codegen may skip for one module specialization."""

    # Elide by width and emit the inline report-condition fast paths
    # (rr poison bit, mr bound+poison, ob bound, tr fit, nw
    # single-writer).  Plan-level rather than per-site: they are sound
    # everywhere or nowhere.
    rr_fast: bool = True
    # Registers hot reload may initialize instead of poisoning
    # (:func:`reg_const_init`); rides on the compiled module.
    const_init: Dict[str, int] = field(default_factory=dict)


# Every site a plain hook call (``san_elide`` off).
EMPTY_PLAN = ElisionPlan(rr_fast=False)


def build_elision_plan(facts, ir: ModuleIR) -> ElisionPlan:
    """The plan of one module from its :class:`ModuleValueFacts`."""
    return ElisionPlan(rr_fast=True, const_init=reg_const_init(facts, ir))


def reg_const_init(facts, ir: ModuleIR) -> Dict[str, int]:
    """Registers proven to hold one constant value in every cycle from
    reset.  Hot reload initializes a swap-introduced
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
