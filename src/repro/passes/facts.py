"""Elaboration facts: the cheap whole-netlist summary later passes key on.

Writes ``PassData.pure``: the specializations whose whole *subtree* is
stateless (no registers, memories or sequential blocks anywhere
below), derived bottom-up from the elaborated IR
(:meth:`~repro.ir.netlist.Netlist.pure_keys`) —
a pure child's ``cycle`` call is a no-op a parent may elide.  Reads
only the netlist.

This pass recomputes every run (it is a dict walk, far cheaper than a
cache probe per module would be worth); the expensive passes downstream
cache per fingerprint key.
"""

from __future__ import annotations

from .base import Pass, PassData


class ElaborateFactsPass(Pass):
    name = "elab_facts"

    def run(self, data: PassData) -> None:
        data.pure = data.netlist.pure_keys()
