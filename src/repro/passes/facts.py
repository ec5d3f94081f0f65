"""Elaboration facts: the cheap whole-netlist summary later passes key on.

Writes ``PassData.pure``: the specializations whose whole *subtree* is
stateless (no registers, memories or sequential blocks anywhere
below), derived bottom-up from the elaborated IR —
a pure child's ``cycle`` call is a no-op a parent may elide.  Reads
only the netlist.

This pass recomputes every run (it is a dict walk, far cheaper than a
cache probe per module would be worth); the expensive passes downstream
cache per fingerprint key.
"""

from __future__ import annotations

from typing import Set

from ..ir.netlist import ModuleIR
from .base import Pass, PassData


def module_is_pure(ir: ModuleIR, pure_children: bool) -> bool:
    """Stateless module body: nothing survives a clock edge (a comb
    loop settles inside ``eval_out``, so it carries nothing either)."""
    return (
        pure_children
        and ir.num_regs == 0
        and not ir.memories
        and not ir.seq_blocks
    )


class ElaborateFactsPass(Pass):
    name = "elab_facts"

    def run(self, data: PassData) -> None:
        netlist = data.netlist
        pure: Set[str] = set()
        for key in netlist.children_first():
            ir = netlist.modules[key]
            if module_is_pure(ir, all(inst.child_key in pure for inst in ir.instances)):
                pure.add(key)
        data.pure = frozenset(pure)
