"""Input->signal combinational dependency analysis.

For each module we compute ``signal_deps``: for every signal, the set
of input ports it combinationally depends on.  Registers, memories and
state-sourced paths contribute nothing.  The outputs' rows are
``output_deps``, what a parent sees of the module; the other rows are
what code generation partitions the module's own cycle on (a signal
that needs an input ``eval_out`` does not receive is computed in
``cycle`` — see :mod:`repro.codegen.pygen`).

This is what lets the scheduler order instances correctly *without*
false cycles: a CPU's fetch stage reads the branch redirect only into
its sequential logic, so its outputs depend on no inputs at all and it
can evaluate first, even though the redirect producer evaluates later.
The redirect still reaches the fetch stage's flops because sequential
evaluation happens in a second phase with fully settled values (see
:mod:`repro.codegen.pygen`).

Per-output precision matters: a memory unit's read-data output depends
on the address input but *not* on the write-data input; collapsing all
outputs to one dependency set manufactures cycles in any design where
a unit both feeds and consumes a neighbour (CPU <-> memory, router <->
router).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Set

from ..hdl.consteval import expr_reads
from .netlist import ModuleIR


def compute_signal_deps(
    ir: ModuleIR, child_lookup: Callable[[str], ModuleIR]
) -> Dict[str, Set[str]]:
    """Per-signal input dependencies for ``ir``.

    Children must already carry their own ``output_deps`` (elaboration
    is bottom-up).  Iterates to a fixed point so intra-module comb
    cycles (if any) resolve conservatively.
    """
    deps: Dict[str, Set[str]] = {}
    for name in ir.inputs:
        deps[name] = {name}
    for name, sig in ir.signals.items():
        if sig.state_index is not None:
            deps[name] = set()
    for name in ir.memories:
        deps[name] = set()

    def deps_of_reads(reads) -> Set[str]:
        result: Set[str] = set()
        for read in reads:
            result |= deps.get(read, set())
        return result

    max_rounds = len(ir.schedule) + 2
    for _ in range(max_rounds):
        changed = False
        for unit_kind, index in ir.schedule:
            if unit_kind == "assign":
                assign = ir.comb_assigns[index]
                merged = deps_of_reads(assign.reads) | deps.get(
                    assign.defines, set()
                )
                if merged != deps.get(assign.defines, set()):
                    deps[assign.defines] = merged
                    changed = True
            elif unit_kind == "block":
                block = ir.comb_blocks[index]
                new = deps_of_reads(block.reads)
                for name in block.defines:
                    merged = new | deps.get(name, set())
                    if merged != deps.get(name, set()):
                        deps[name] = merged
                        changed = True
            else:
                inst = ir.instances[index]
                child = child_lookup(inst.child_key)
                registered = set(inst.registered_ports)
                for port, target in inst.output_conns.items():
                    if port in registered:
                        deps.setdefault(target, set())
                        continue
                    relevant: Set[str] = set()
                    for child_input in child.output_deps.get(port, set()):
                        expr = inst.input_conns.get(child_input)
                        if expr is not None:
                            relevant |= deps_of_reads(expr_reads(expr))
                    merged = relevant | deps.get(target, set())
                    if merged != deps.get(target, set()):
                        deps[target] = merged
                        changed = True
        if not changed:
            break

    return deps


def compute_output_deps(
    signal_deps: Dict[str, Set[str]], outputs: Iterable[str]
) -> Dict[str, Set[str]]:
    """The outputs' rows of :func:`compute_signal_deps`."""
    return {name: signal_deps.get(name, set()) for name in outputs}
