"""The baseline compiler: Verilator-style per-instance code replication.

Two modes, matching Fig. 4's taxonomy:

* ``"replicate"`` (Fig. 4c) — every *instance* compiles to its own
  code object, even when instances share a module.  Compile time and
  code footprint grow with the instance count.
* ``"inline"`` (Fig. 4b) — the whole design flattens into a single
  eval/tick pair (see :mod:`repro.codegen.flatgen`), maximizing
  cross-module optimization and code footprint alike.

Both use the ``select`` mux lowering (evaluate-both-arms, branch-free)
that the paper attributes to Verilator's generated code.

A wall-clock ``budget_seconds`` mirrors the paper's 24-hour Verilator
timeout: the 16x16 PGAS never finished compiling, reported "NA".
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from .. import obs
from ..codegen.build import BuildConfig
from ..codegen.callplan import part_demand
from ..codegen.flatgen import compile_flat
from ..codegen.module import CompiledModule
from ..codegen.pygen import compile_module
from ..hdl.errors import CompileBudgetExceeded
from ..ir.netlist import Netlist
from ..sim.pipeline import Pipe

REPLICATE = "replicate"
INLINE = "inline"


@dataclass
class BaselineResult:
    """Outcome of a baseline compile."""

    mode: str
    top_key: Optional[str]
    library: Dict[str, CompiledModule] = field(default_factory=dict)
    compile_seconds: float = 0.0
    timed_out: bool = False
    budget_seconds: Optional[float] = None
    instances_compiled: int = 0

    @property
    def succeeded(self) -> bool:
        return not self.timed_out and self.top_key is not None

    def make_pipe(self, name: str = "baseline") -> Pipe:
        if not self.succeeded:
            raise CompileBudgetExceeded(
                "baseline compile did not finish within its budget",
                elapsed=self.compile_seconds,
                budget=self.budget_seconds or 0.0,
            )
        return Pipe(self.top_key, self.library, name=name)  # type: ignore[arg-type]

    def total_code_bytes(self) -> int:
        """Generated-source size as a footprint proxy."""
        return sum(len(m.source) for m in self.library.values())


class BaselineCompiler:
    """Compiles a netlist the way Verilator would."""

    def __init__(
        self,
        mode: str = REPLICATE,
        mux_style: str = "select",
        budget_seconds: Optional[float] = None,
    ):
        if mode not in (REPLICATE, INLINE):
            raise ValueError(f"unknown baseline mode {mode!r}")
        self.mode = mode
        self.mux_style = mux_style
        self.budget_seconds = budget_seconds

    def compile(self, netlist: Netlist) -> BaselineResult:
        """Compile; on budget exhaustion returns ``timed_out=True``
        (the paper's "NA") instead of raising."""
        started = time.perf_counter()
        result = BaselineResult(
            mode=self.mode, top_key=None, budget_seconds=self.budget_seconds
        )
        with obs.span("baseline.compile", mode=self.mode):
            self._compile_into(netlist, result, started)
        result.compile_seconds = time.perf_counter() - started
        obs.incr("baseline.instances_compiled", result.instances_compiled)
        if result.timed_out:
            obs.incr("baseline.timeouts")
        return result

    def _compile_into(
        self, netlist: Netlist, result: BaselineResult, started: float
    ) -> None:
        try:
            if self.mode == INLINE:
                flat = compile_flat(
                    netlist,
                    mux_style=self.mux_style,
                    budget_seconds=self.budget_seconds,
                )
                result.library = {flat.key: flat}
                result.top_key = flat.key
                result.instances_compiled = sum(
                    netlist.instance_count().values()
                )
            else:
                result.top_key = self._compile_replicated(netlist, result, started)
        except CompileBudgetExceeded:
            result.timed_out = True
            result.top_key = None
            result.library = {}

    # -- replicate mode -----------------------------------------------------------

    def _compile_replicated(
        self, netlist: Netlist, result: BaselineResult, started: float
    ) -> str:
        """One compiled code object per *instance* (Fig. 4c).

        Builds a synthetic netlist in which every instance path has its
        own specialization key, then compiles each exactly once — i.e.
        once per instance of the original design.
        """
        synthetic = Netlist(top="", modules={})

        def clone(key: str, path: str) -> str:
            self._check_budget(started)
            ir = netlist.modules[key]
            new_key = f"{key}@{path}" if path else f"{key}@top"
            cloned = copy.copy(ir)
            cloned.key = new_key
            cloned.instances = []
            for inst in ir.instances:
                child_path = f"{path}.{inst.name}" if path else inst.name
                child_key = clone(inst.child_key, child_path)
                cloned_inst = copy.copy(inst)
                cloned_inst.child_key = child_key
                cloned.instances.append(cloned_inst)
            synthetic.modules[new_key] = cloned
            return new_key

        top_key = clone(netlist.top, "")
        synthetic.top = top_key

        library: Dict[str, CompiledModule] = {}
        build = BuildConfig(mux_style=self.mux_style)
        wirings = part_demand(synthetic)
        for key in synthetic.children_first(top_key):
            self._check_budget(started)
            library[key] = compile_module(wirings[key], build)
            result.instances_compiled += 1
        result.library = library
        return top_key

    def _check_budget(self, started: float) -> None:
        if self.budget_seconds is None:
            return
        elapsed = time.perf_counter() - started
        if elapsed > self.budget_seconds:
            raise CompileBudgetExceeded(
                "baseline compile exceeded budget "
                f"({elapsed:.1f}s > {self.budget_seconds:.1f}s)",
                elapsed=elapsed,
                budget=self.budget_seconds,
            )
