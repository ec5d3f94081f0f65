"""Combinational scheduling: the one topological sort of the package.

Orders a module's evaluation units — continuous assigns, comb always
blocks, and child instances — so that a single evaluation pass computes
every combinational value once, apart from the loops below, which
repeat until they settle.

Three mechanisms keep real designs acyclic at this granularity:

* instances are ordered only by reads feeding the child's
  *comb-relevant* inputs (sequential-only inputs arrive in ``cycle``);
* only *combinationally driven* child outputs constrain consumers
  (registered outputs are state, pre-bound up front);
* when the remaining graph still has cycles (a ring of stops each
  reading its neighbour's register-sourced output), instances inside
  the cycles get their *dependency-free* outputs early-bound via a
  zero-argument prepass call, and the affected edges dissolve.

What cycles survive all three are the scheduler's loops.  Every
genuine combinational loop lies in one, but a loop need not hold one:
an instance joins it through any input that reaches some output, even
when the output that closes the cycle reads another input
(:class:`repro.analyze.checks.CombLoopCheck` searches each loop's
signals, with :func:`components`, for the real cycles).
:func:`toposort` orders the condensation of the unit graph, so each
loop (a strongly connected component, or a unit that reads its own
define) is one step of the order (``ModuleIR.steps``), which the
generated code repeats alone until it settles
(:func:`repro.codegen.module.settle_loop`).  The flattening compiler
(:mod:`repro.codegen.flatgen`) sorts its flattened units with the same
function.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Set, Tuple, TypeVar

from .netlist import ModuleIR, UnitId

U = TypeVar("U", bound=Hashable)


def components(
    units: Sequence[U], deps: Mapping[U, Iterable[U]]
) -> Dict[U, U]:
    """Tarjan's strongly connected components, iteratively: unit -> the
    unit its component was found from."""
    index: Dict[U, int] = {}
    low: Dict[U, int] = {}
    component: Dict[U, U] = {}
    stack: List[U] = []
    for root in units:
        work = [] if root in index else [(root, None)]
        while work:
            unit, pending = work.pop()
            if pending is None:  # first visit
                index[unit] = low[unit] = len(index)
                stack.append(unit)
                pending = iter(deps[unit])
            for dep in pending:
                if dep not in index:
                    work += [(unit, pending), (dep, None)]
                    break
                if dep not in component:  # on the stack
                    low[unit] = min(low[unit], low[dep])
            else:
                if low[unit] == index[unit]:
                    while unit not in component:
                        component[stack.pop()] = unit
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[unit])
    return component


def toposort(
    units: Sequence[U],
    reads: Mapping[U, Iterable[str]],
    producer: Mapping[str, U],
) -> List[Tuple[Tuple[U, ...], bool]]:
    """Kahn's algorithm, FIFO, over the condensation of the graph in
    which a unit depends on the producer of every name it reads.

    Returns the order as steps ``(units, is_loop)``: each loop's units
    in ``units`` order, every other unit alone.  Ties go to the earlier
    unit of ``units`` (a loop stands at its first unit), so on a graph
    without a loop this is plain Kahn's algorithm."""
    deps: Dict[U, Set[U]] = {
        u: {producer[n] for n in reads[u] if n in producer} for u in units
    }
    component = components(units, deps)
    groups: Dict[U, List[U]] = {}
    for unit in units:
        groups.setdefault(component[unit], []).append(unit)
    position = {c: i for i, c in enumerate(groups)}  # first-unit order
    dependents: Dict[U, Set[U]] = {c: set() for c in groups}
    in_degree = dict.fromkeys(groups, 0)
    for c, members in groups.items():
        for d in {component[dep] for u in members for dep in deps[u]} - {c}:
            dependents[d].add(c)
            in_degree[c] += 1
    ready = deque(c for c in groups if in_degree[c] == 0)
    steps: List[Tuple[Tuple[U, ...], bool]] = []
    while ready:
        c = ready.popleft()
        members = groups[c]
        steps.append((tuple(members),
                      len(members) > 1 or members[0] in deps[members[0]]))
        for follower in sorted(dependents[c], key=position.__getitem__):
            in_degree[follower] -= 1
            if in_degree[follower] == 0:
                ready.append(follower)
    return steps


def schedule_module(ir: ModuleIR) -> None:
    """Compute ``ir.steps`` and ``ir.early_bind`` in place."""
    units: List[UnitId] = []
    reads: Dict[UnitId, Set[str]] = {}
    producer: Dict[str, UnitId] = {}
    registered = {
        name
        for name, sig in ir.signals.items()
        if sig.state_index is not None or sig.kind == "input"
    }

    def effective_reads(raw: Set[str]) -> Set[str]:
        return {
            name
            for name in raw
            if name not in registered and name not in ir.memories
        }

    for i, assign in enumerate(ir.comb_assigns):
        unit: UnitId = ("assign", i)
        units.append(unit)
        reads[unit] = effective_reads(set(assign.reads))
        producer[assign.defines] = unit
    for i, block in enumerate(ir.comb_blocks):
        unit = ("block", i)
        units.append(unit)
        reads[unit] = effective_reads(set(block.reads))
        for name in block.defines:
            producer[name] = unit
    for i, inst in enumerate(ir.instances):
        unit = ("inst", i)
        units.append(unit)
        reads[unit] = effective_reads(set(inst.comb_reads))
        for name in inst.comb_defines:
            producer[name] = unit

    steps = toposort(units, reads, producer)
    ir.early_bind = []
    # Break cycles by early-binding dependency-free outputs of the
    # instances on a loop, then sort again.
    looped = {unit for step, is_loop in steps if is_loop for unit in step}
    for unit in units:
        kind, index = unit
        if kind == "inst" and unit in looped:
            inst = ir.instances[index]
            for port in inst.dep_free_ports:
                target = inst.output_conns[port]
                if producer.get(target) == unit:
                    del producer[target]
                    ir.early_bind.append((index, port, target))
    if ir.early_bind:
        early_targets = {t for _, _, t in ir.early_bind}
        for unit in units:
            reads[unit] = reads[unit] - early_targets
        steps = toposort(units, reads, producer)
    ir.steps = steps
