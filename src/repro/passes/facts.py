"""Elaboration facts: the cheap whole-netlist summary later passes key on.

Writes ``PassData.pure``: the specializations whose whole *subtree* is
stateless (no registers, memories, sequential blocks, or fixpoint
iteration anywhere below), derived bottom-up from the elaborated IR —
a pure child's ``cycle`` call is a no-op a parent may elide.  Reads
only the netlist.

This pass recomputes every run (it is a dict walk, far cheaper than a
cache probe per module would be worth); the expensive passes downstream
cache per fingerprint key.
"""

from __future__ import annotations

from typing import Dict

from ..ir.netlist import ModuleIR
from .base import Pass, PassData


def module_is_pure(ir: ModuleIR, pure_children: bool) -> bool:
    """Stateless module body: nothing survives a clock edge.

    Fixpoint modules are excluded even when register-free — they carry
    comb-local iteration state in the memo slot across passes, and
    their cycle clears it.
    """
    return (
        pure_children
        and ir.num_regs == 0
        and not ir.memories
        and not ir.seq_blocks
        and not ir.needs_fixpoint
    )


class ElaborateFactsPass(Pass):
    name = "elab_facts"

    def run(self, data: PassData) -> None:
        netlist = data.netlist
        pure: Dict[str, bool] = {}

        def visit(key: str) -> bool:
            if key not in pure:
                ir = netlist.modules[key]
                pure[key] = module_is_pure(ir, all(
                    visit(inst.child_key) for inst in ir.instances
                ))
            return pure[key]

        for key in netlist.modules:
            visit(key)
        data.pure = frozenset(key for key, is_pure in pure.items() if is_pure)
