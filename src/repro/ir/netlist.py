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
from typing import Dict, List, Optional, Tuple

from ..hdl import ast_nodes as ast


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
    # Evaluation order over ("assign", i) / ("block", i) / ("inst", i)
    # units; set by the scheduler.  ``needs_fixpoint`` is True when the
    # unit graph has cycles and a single pass may not settle.
    schedule: List[Tuple[str, int]] = field(default_factory=list)
    # Instances whose dep-free outputs must be bound by a zero-args
    # prepass before the scheduled body: list of (instance index,
    # output port, target signal).  Filled by the scheduler when it
    # needs them to break wiring cycles.
    early_bind: List[Tuple[int, str, str]] = field(default_factory=list)
    needs_fixpoint: bool = False
    num_regs: int = 0
    clock_names: Tuple[str, ...] = ()
    # Combinational input dependencies (repro.ir.dataflow): signal ->
    # set of input ports it combinationally depends on, for every
    # signal, and the outputs' rows of the same map.
    signal_deps: Dict[str, "set"] = field(default_factory=dict)
    output_deps: Dict[str, "set"] = field(default_factory=dict)

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

    @property
    def comb_input_ports(self) -> List[str]:
        """comb_inputs in declared input order (the eval_out ABI)."""
        comb = self.comb_inputs
        return [name for name in self.inputs if name in comb]

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
