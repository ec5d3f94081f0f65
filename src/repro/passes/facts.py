"""Elaboration facts: the cheap whole-netlist summary later passes key on.

Produces ``elab.facts``: per specialization, derived bottom-up from the
elaborated IR, ``pure`` — True when the whole *subtree* is stateless (no
registers, memories, sequential blocks, or fixpoint iteration anywhere
below): its ``cycle`` call is a no-op a parent may elide.

This pass recomputes every run (it is a dict walk, far cheaper than a
cache probe per module would be worth); the expensive passes downstream
cache per fingerprint key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..ir.netlist import ModuleIR
from .base import Pass, PassData


@dataclass(frozen=True)
class ElabFacts:
    pure: bool


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
    produces = ("elab.facts",)

    def run(self, data: PassData) -> None:
        netlist = data.netlist
        facts: Dict[str, ElabFacts] = {}

        def visit(key: str) -> ElabFacts:
            if key in facts:
                return facts[key]
            ir = netlist.modules[key]
            pure_children = all(
                visit(inst.child_key).pure for inst in ir.instances
            )
            facts[key] = ElabFacts(pure=module_is_pure(ir, pure_children))
            return facts[key]

        for key in netlist.modules:
            visit(key)
        data.facts["elab.facts"] = facts
