"""Elaborated netlist IR.

One :class:`ModuleIR` exists per *specialization* — a ``(module name,
resolved parameter set)`` pair.  This is the unit the paper compiles
once and shares across every instance (Fig. 4d): all 256 cores of the
16x16 PGAS point at the same six ModuleIRs and, downstream, the same
six compiled code objects.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..hdl import ast_nodes as ast

UnitId = Tuple[str, int]  # ("assign" | "block" | "inst", index)


def spec_key(module_name: str, params: Dict[str, int]) -> str:
    """Stable identity of a module specialization."""
    if not params:
        return module_name
    inner = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{module_name}#({inner})"


def module_of(key: str) -> str:
    """The module name a :func:`spec_key` was made from."""
    return key.split("#", 1)[0]


@dataclass
class SignalIR:
    """A scalar or vector signal (port, wire, or register)."""

    name: str
    width: int
    kind: str  # "input" | "output" | "wire" | "reg"
    line: int = 0
    # For kind == "reg": slot in the instance state array.
    state_index: Optional[int] = None
    # True when an output port is driven directly by a register.
    is_registered_output: bool = False

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1


@dataclass
class MemoryIR:
    """A word-addressed memory (``reg [W-1:0] mem [0:D-1]``)."""

    name: str
    width: int
    depth: int
    mem_index: int = 0  # slot in the instance memory array
    line: int = 0

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1


@dataclass
class CombAssignIR:
    """A continuous assignment, parameters already folded."""

    target: ast.LValue
    value: ast.Expr
    line: int = 0
    # Names read / defined, filled by the scheduler.
    reads: Tuple[str, ...] = ()
    defines: str = ""
    shape: str = ""  # see ``repro.hdl.elaborate.item_shape``


@dataclass
class CombBlockIR:
    """An ``always @(*)`` block: procedural combinational logic."""

    body: List[ast.Stmt]
    line: int = 0
    reads: Tuple[str, ...] = ()
    defines: Tuple[str, ...] = ()
    shape: str = ""


@dataclass
class SeqBlockIR:
    """An ``always @(posedge clock)`` block."""

    clock: str
    body: List[ast.Stmt]
    line: int = 0
    # The names the body reads and the names it writes.
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()
    shape: str = ""


@dataclass
class InstanceIR:
    """A child instantiation, bound to a child specialization key."""

    name: str
    child_key: str
    # port name -> expression for inputs; port name -> signal name for outputs.
    input_conns: Dict[str, ast.Expr] = field(default_factory=dict)
    output_conns: Dict[str, str] = field(default_factory=dict)
    line: int = 0
    reads: Tuple[str, ...] = ()  # everything the input connections read
    # Subset of ``reads`` feeding child inputs that combinationally
    # affect child outputs — the only reads that constrain scheduling.
    comb_reads: Tuple[str, ...] = ()
    defines: Tuple[str, ...] = ()
    # Child output ports that are *registered* in the child.  Their
    # values are plain state reads, available before the child
    # evaluates, so they impose no scheduling constraint and are
    # pre-bound at the top of the parent's eval.
    registered_ports: Tuple[str, ...] = ()
    # Targets of ``output_conns`` driven combinationally (the only
    # defines that constrain scheduling).
    comb_defines: Tuple[str, ...] = ()
    # Comb-driven output ports whose value depends on NO child input
    # (e.g. ``assign pc = pc_q``): correct under any argument values,
    # so the scheduler may pre-bind them with a zero-args prepass call
    # to break wiring cycles (rings, mutual feedback).
    dep_free_ports: Tuple[str, ...] = ()


@dataclass
class ModuleIR:
    """One elaborated module specialization."""

    name: str
    key: str
    params: Dict[str, int] = field(default_factory=dict)
    # The file line of the ``module`` header in the parse this IR was
    # built from: every line below it is in those coordinates.
    line: int = 0
    signals: Dict[str, SignalIR] = field(default_factory=dict)
    memories: Dict[str, MemoryIR] = field(default_factory=dict)
    inputs: List[str] = field(default_factory=list)  # declared order
    outputs: List[str] = field(default_factory=list)  # declared order
    comb_assigns: List[CombAssignIR] = field(default_factory=list)
    comb_blocks: List[CombBlockIR] = field(default_factory=list)
    seq_blocks: List[SeqBlockIR] = field(default_factory=list)
    instances: List[InstanceIR] = field(default_factory=list)
    # The evaluation order over ("assign", i) / ("block", i) / ("inst", i)
    # units, set by the scheduler (repro.ir.schedule), as steps
    # ``(units, is_loop)``: each genuine combinational loop's units
    # together, which the generated code repeats until no local the loop
    # defines moves, and every other unit alone.
    steps: List[Tuple[Tuple[UnitId, ...], bool]] = field(default_factory=list)
    # Instances whose dep-free outputs must be bound by a zero-args
    # prepass before the scheduled body: list of (instance index,
    # output port, target signal).  Filled by the scheduler when it
    # needs them to break wiring cycles.
    early_bind: List[Tuple[int, str, str]] = field(default_factory=list)
    num_regs: int = 0
    clock_names: Tuple[str, ...] = ()
    # Combinational input dependencies (repro.ir.dataflow): signal ->
    # set of input ports it combinationally depends on, for every
    # signal, and the outputs' rows of the same map.
    signal_deps: Dict[str, "set"] = field(default_factory=dict)
    output_deps: Dict[str, "set"] = field(default_factory=dict)
    # The parsed module the items were lowered from: its ``assigns`` line
    # up with ``comb_assigns`` and its ``always_blocks`` with the comb
    # and seq blocks, which is what lets the next elaboration of this
    # specialization reuse a lowered item (repro.hdl.elaborate).  Not
    # part of the IR's value, and not pickled.
    source: Optional[ast.Module] = field(default=None, compare=False,
                                         repr=False)

    def __getstate__(self) -> Dict[str, object]:
        return {**self.__dict__, "source": None}

    @property
    def schedule(self) -> List[UnitId]:
        """Every unit, in evaluation order."""
        return [unit for units, _ in self.steps for unit in units]

    @property
    def loops(self) -> List[Tuple[UnitId, ...]]:
        """The units of each comb loop, in evaluation order."""
        return [units for units, is_loop in self.steps if is_loop]

    def unit_defines(self, unit: UnitId) -> Tuple[str, ...]:
        """The comb signals schedule ``unit`` defines."""
        kind, index = unit
        if kind == "assign":
            return (self.comb_assigns[index].defines,)
        if kind == "block":
            return self.comb_blocks[index].defines
        return self.instances[index].comb_defines

    def unit_reads(self, unit: UnitId) -> Tuple[str, ...]:
        """The names schedule ``unit`` reads (an instance: everything
        its input connections read)."""
        kind, index = unit
        if kind == "assign":
            return self.comb_assigns[index].reads
        if kind == "block":
            return self.comb_blocks[index].reads
        return self.instances[index].reads

    @property
    def comb_inputs(self) -> "set":
        """Inputs that combinationally affect at least one output.

        These — and only these — are arguments of the compiled
        ``eval_out``; everything else is delivered to ``cycle``.
        """
        result: set = set()
        for deps in self.output_deps.values():
            result |= deps
        return result

    @cached_property
    def comb_input_ports(self) -> Tuple[str, ...]:
        """comb_inputs in declared input order (the eval_out ABI),
        worked out once per ``ModuleIR`` like :attr:`comb_signature`."""
        comb = self.comb_inputs
        return tuple(name for name in self.inputs if name in comb)

    def signal_width(self, name: str) -> Optional[int]:
        sig = self.signals.get(name)
        return sig.width if sig is not None else None

    def memory_width(self, name: str) -> Optional[int]:
        mem = self.memories.get(name)
        return mem.width if mem is not None else None

    def interface_fingerprint(self) -> str:
        """Hash of the port interface.

        When this changes between module versions, every parent module
        must be recompiled too (the swap is no longer interface
        compatible) — mirroring the paper's observation that interface
        edits widen the recompilation set.
        """
        digest = hashlib.sha256()
        for name in self.inputs:
            digest.update(f"i:{name}:{self.signals[name].width};".encode())
        for name in self.outputs:
            sig = self.signals[name]
            # Registered-ness and the state slot are part of the
            # interface: parents read registered outputs straight out
            # of the child's state array.
            digest.update(
                f"o:{name}:{sig.width}:{sig.state_index};".encode()
            )
        # The eval_out calling convention (which inputs are
        # comb-relevant) is part of the interface too.
        digest.update(("c:" + ",".join(self.comb_input_ports)).encode())
        return digest.hexdigest()

    @cached_property
    def comb_signature(self) -> str:
        """Hash of what a parent can observe of this module: the
        interface plus each output's input dependencies.

        The child component of every parent-side identity (elaboration,
        compile and analyze caches, ``swapStage``'s compatibility
        test).  Hashed once per ``ModuleIR``, on first use: the IR does
        not change after elaboration.
        """
        digest = hashlib.sha256(self.interface_fingerprint().encode())
        for port in sorted(self.output_deps):
            deps = ",".join(sorted(self.output_deps[port]))
            digest.update(f";{port}<-{deps}".encode())
        return digest.hexdigest()


@dataclass
class Netlist:
    """A fully elaborated design: every specialization plus the top key."""

    top: str  # key of the top specialization
    modules: Dict[str, ModuleIR] = field(default_factory=dict)

    @property
    def top_module(self) -> ModuleIR:
        return self.modules[self.top]

    def children_first(self, root: Optional[str] = None) -> List[str]:
        """Module keys, each after all its children: a depth-first walk
        from ``root``, or by default from each key in ``modules`` order
        in turn (every key)."""
        order: List[str] = []
        seen: Set[str] = set()
        for key in self.modules if root is None else (root,):
            self._visit(key, seen, order)
        return order

    def _visit(self, key: str, seen: Set[str], order: List[str]) -> None:
        # A method, not a closure: a closure that calls itself holds the
        # netlist in a reference cycle until the cyclic collector runs.
        if key not in seen:
            seen.add(key)
            for inst in self.modules[key].instances:
                self._visit(inst.child_key, seen, order)
            order.append(key)

    def pure_keys(self) -> FrozenSet[str]:
        """The specializations whose whole subtree is stateless: no
        registers, memories or sequential blocks anywhere below (a comb
        loop settles inside ``eval_out``, so it carries nothing either).
        A pure child's ``cycle`` call is a no-op a parent may elide."""
        pure: Set[str] = set()
        for key in self.children_first():
            ir = self.modules[key]
            if (not ir.num_regs and not ir.memories and not ir.seq_blocks
                    and all(inst.child_key in pure for inst in ir.instances)):
                pure.add(key)
        return frozenset(pure)

    def instance_count(self, key: Optional[str] = None) -> Dict[str, int]:
        """Total instance count per specialization under the top.

        This is the number the baseline compiler pays per instance and
        LiveSim pays once (the heart of Fig. 4 / Table VIII).
        """
        counts: Dict[str, int] = {}

        def visit(mod_key: str, multiplier: int) -> None:
            counts[mod_key] = counts.get(mod_key, 0) + multiplier
            for inst in self.modules[mod_key].instances:
                visit(inst.child_key, multiplier)

        visit(key or self.top, 1)
        return counts
