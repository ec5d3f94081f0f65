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
:mod:`repro.codegen.module`).

Per-output precision matters: a memory unit's read-data output depends
on the address input but *not* on the write-data input; collapsing all
outputs to one dependency set manufactures cycles in any design where
a unit both feeds and consumes a neighbour (CPU <-> memory, router <->
router).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Set, Tuple

from ..hdl.consteval import expr_reads
from .netlist import ModuleIR, UnitId


def signal_reads(
    ir: ModuleIR, unit: UnitId, child_lookup: Callable[[str], ModuleIR]
) -> List[Tuple[str, Iterable[str]]]:
    """(signal, the names it reads) for each signal schedule ``unit``
    drives.  A child output reads what the connections of its
    ``output_deps`` inputs read, so a registered or dependency-free
    output reads nothing."""
    kind, index = unit
    if kind == "assign":
        assign = ir.comb_assigns[index]
        return [(assign.defines, assign.reads)]
    if kind == "block":
        block = ir.comb_blocks[index]
        return [(name, block.reads) for name in block.defines]
    inst = ir.instances[index]
    child = child_lookup(inst.child_key)
    return [
        (target, {
            name
            for child_input in child.output_deps.get(port, set())
            if child_input in inst.input_conns
            for name in expr_reads(inst.input_conns[child_input])
        })
        for port, target in inst.output_conns.items()
    ]


def compute_signal_deps(
    ir: ModuleIR, child_lookup: Callable[[str], ModuleIR]
) -> Dict[str, Set[str]]:
    """Per-signal input dependencies for ``ir``.

    Children must already carry their own ``output_deps`` (elaboration
    is bottom-up).  One walk of the schedule: a unit's reads are final
    when it comes, except on a comb loop, whose step repeats until its
    units' dependencies stop growing.
    """
    deps: Dict[str, Set[str]] = {}
    for name in ir.inputs:
        deps[name] = {name}
    for name, sig in ir.signals.items():
        if sig.state_index is not None:
            deps[name] = set()
    for name in ir.memories:
        deps[name] = set()

    for units, is_loop in ir.steps:
        moved = True
        while moved:
            moved = False
            for unit in units:
                for name, reads in signal_reads(ir, unit, child_lookup):
                    new: Set[str] = set()
                    for read in reads:
                        new |= deps.get(read, set())
                    known = deps.setdefault(name, set())
                    moved |= is_loop and not new <= known
                    known |= new
    return deps


def compute_output_deps(
    signal_deps: Dict[str, Set[str]], outputs: Iterable[str]
) -> Dict[str, Set[str]]:
    """The outputs' rows of :func:`compute_signal_deps`."""
    return {name: signal_deps.get(name, set()) for name in outputs}
