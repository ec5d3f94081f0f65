"""Combinational scheduling of a ModuleIR.

Orders the module's evaluation units — continuous assigns, comb always
blocks, and child instances — so that a single evaluation pass computes
every combinational value exactly once.

Three mechanisms keep real designs acyclic at this granularity:

* instances are ordered only by reads feeding the child's
  *comb-relevant* inputs (sequential-only inputs arrive in ``cycle``);
* only *combinationally driven* child outputs constrain consumers
  (registered outputs are state, pre-bound up front);
* when the remaining graph still has cycles (a ring of stops each
  reading its neighbour's register-sourced output), instances inside
  the cycles get their *dependency-free* outputs early-bound via a
  zero-argument prepass call, and the affected edges dissolve.

Only if cycles survive all three (a genuine combinational loop) is the
module marked ``needs_fixpoint``; its generated ``eval_out`` then runs
the body to a fixed point (:func:`repro.codegen.pygen.settle_loop`).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from .netlist import ModuleIR

UnitId = Tuple[str, int]  # ("assign" | "block" | "inst", index)


def _try_toposort(
    units: List[UnitId],
    reads: Dict[UnitId, Set[str]],
    producer: Dict[str, UnitId],
) -> Tuple[List[UnitId], Set[UnitId]]:
    """Kahn's algorithm; returns (ordered prefix, units stuck in cycles)."""
    dependencies: Dict[UnitId, Set[UnitId]] = {u: set() for u in units}
    dependents: Dict[UnitId, Set[UnitId]] = {u: set() for u in units}
    for unit in units:
        for name in reads[unit]:
            dep = producer.get(name)
            if dep is not None and dep != unit:
                dependencies[unit].add(dep)
                dependents[dep].add(unit)
        # A self-read of an own define is a cycle of length one.
        for name in reads[unit]:
            if producer.get(name) == unit:
                dependencies[unit].add(unit)

    in_degree = {u: len(dependencies[u]) for u in units}
    ready = [u for u in units if in_degree[u] == 0]
    order: List[UnitId] = []
    position = {u: i for i, u in enumerate(units)}
    while ready:
        unit = ready.pop(0)
        order.append(unit)
        for follower in sorted(dependents[unit], key=position.__getitem__):
            if follower == unit:
                continue
            in_degree[follower] -= 1
            if in_degree[follower] == 0:
                ready.append(follower)
    stuck = {u for u in units if u not in set(order)}
    return order, stuck


def schedule_module(ir: ModuleIR) -> None:
    """Compute ``ir.schedule``, ``ir.early_bind`` and
    ``ir.needs_fixpoint`` in place."""
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

    order, stuck = _try_toposort(units, reads, producer)
    ir.early_bind = []
    if stuck:
        # Break cycles by early-binding dependency-free outputs of the
        # instances involved, then retry.
        for unit in sorted(stuck, key=units.index):
            kind, index = unit
            if kind != "inst":
                continue
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
            order, stuck = _try_toposort(units, reads, producer)

    if not stuck:
        ir.schedule = order
        ir.needs_fixpoint = False
    else:
        # Genuine combinational loop: keep declaration order; the
        # generated eval_out repeats it until it settles.
        ir.schedule = list(units)
        ir.needs_fixpoint = True
