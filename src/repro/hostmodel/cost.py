"""What a compiled design costs its host per simulated cycle, read off
the code that ran (the input of Table VII).

A :class:`~repro.obs.census.Census` counts what each generated function
executed over some cycles; :func:`design_cost` sums it per library key
and adds the state each instance of the key holds:

* instructions are the executed opcodes;
* branches are the conditional jumps, and branch sites the distinct
  jumps that ran;
* loads and stores are the subscripts (state-list reads and writes);
* the code footprint is the instruction bytes of the code entered;
* the data footprint is each instance's state list
  (:class:`~repro.codegen.module.StateLayout`) and memories, a word a
  slot.

Nothing here knows a compilation style.  The shared compiler's library
has one key per module specialization, instanced many times; the
replicated baseline's has one key per instance.  Code and branch sites
belong to a key either way, so sharing falls out of the library.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Mapping

from ..codegen.module import CompiledModule
from ..obs.census import Census, FunctionCensus

WORD_BYTES = 8  # one state slot or memory word


@dataclass
class ModuleCost:
    """What one instance of one library key costs per cycle."""

    key: str
    instances: int
    instructions: float
    branches: float
    loads: float
    stores: float
    branch_sites: int  # the key's, shared by its instances
    code_bytes: int  # the key's, shared by its instances
    state_bytes: int


@dataclass
class DesignCost:
    """What the whole design costs per simulated cycle."""

    instructions: float
    branches: float
    loads: float
    stores: float
    code_bytes: int  # the I$ working set: every key's code once
    data_bytes: int  # the D$ working set: every instance's state
    module_costs: Dict[str, ModuleCost] = field(default_factory=dict)


def instance_counts(library: Mapping[str, CompiledModule], top: str) -> Counter:
    """How many instances of each key the tree under ``top`` holds."""
    counts: Counter = Counter()
    pending = [top]
    while pending:
        key = pending.pop()
        counts[key] += 1
        pending.extend(child for _, child in library[key].child_insts)
    return counts


def state_bytes(code: CompiledModule) -> int:
    """One instance's state: its state list and its memories' words."""
    words = code.layout.state_size + sum(spec.depth for spec in code.mem_specs.values())
    return WORD_BYTES * words


def design_cost(library: Mapping[str, CompiledModule], top: str,
                census: Census) -> DesignCost:
    """The per-cycle cost of the design under ``top`` in ``library``,
    from a census of it running."""
    ran = census.by_spec()
    modules: Dict[str, ModuleCost] = {}
    for key, instances in sorted(instance_counts(library, top).items()):
        counts = ran.get(key, FunctionCensus())
        per_instance = census.cycles * instances
        modules[key] = ModuleCost(
            key=key,
            instances=instances,
            instructions=counts.opcodes / per_instance,
            branches=counts.jumps / per_instance,
            loads=counts.loads / per_instance,
            stores=counts.stores / per_instance,
            branch_sites=counts.jump_sites,
            code_bytes=counts.code_bytes,
            state_bytes=state_bytes(library[key]),
        )
    costs = modules.values()
    return DesignCost(
        instructions=sum(m.instances * m.instructions for m in costs),
        branches=sum(m.instances * m.branches for m in costs),
        loads=sum(m.instances * m.loads for m in costs),
        stores=sum(m.instances * m.stores for m in costs),
        code_bytes=sum(m.code_bytes for m in costs),
        data_bytes=sum(m.instances * m.state_bytes for m in costs),
        module_costs=modules,
    )
