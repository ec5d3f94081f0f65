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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

from ..ir.netlist import ModuleIR

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
    # Registers hot reload may initialize instead of poisoning
    # (:func:`reg_const_init`); rides on the compiled module.
    const_init: Dict[str, int] = field(default_factory=dict)


# Nothing proven: every site a plain hook call (``san_elide`` off).
EMPTY_PLAN = ElisionPlan(rr_fast=False)


def build_elision_plan(facts, ir: ModuleIR) -> ElisionPlan:
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
                       const_init=reg_const_init(facts, ir))


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
