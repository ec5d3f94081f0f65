"""LiveSim reproduction: a fast hot-reload simulator for HDLs.

A from-scratch Python implementation of the system described in
*LiveSim: A Fast Hot Reload Simulator for HDLs* (ISPASS 2020):

* :mod:`repro.hdl` — LHDL, a Verilog-subset frontend (lexer,
  preprocessor, parser, elaborator).
* :mod:`repro.codegen` — the LiveSim compiler (one shared code object
  per module specialization) and the static cost model.
* :mod:`repro.sim` — the simulation kernel (stages, pipes,
  testbenches).
* :mod:`repro.live` — the live flow: LiveParser, LiveCompiler, hot
  reload, checkpointing, consistency verification, sessions.
* :mod:`repro.baseline` — a Verilator-like flattening/replicating
  compiler used as the evaluation baseline.
* :mod:`repro.hostmodel` — host cache/branch-predictor model behind the
  Table VII numbers.
* :mod:`repro.riscv` — the RV64I PGAS multicore workload.

Quick start::

    from repro import LiveSession
    from repro.sim.testbench import hold_inputs

    session = LiveSession(MY_VERILOG_SOURCE)
    pipe = session.inst_pipe("p0", session.stage_handle_for("top"))
    tb = session.load_testbench(hold_inputs(rst=0))
    session.run(tb, "p0", 100_000)
    report = session.apply_change(EDITED_SOURCE)   # < 2 s hot reload
    print(report.total_seconds, pipe.outputs())
"""

from __future__ import annotations

import importlib
import sys
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from .codegen import CompiledModule
    from .ir.netlist import Netlist


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Callable[[str], object]:
    """A PEP 562 module ``__getattr__`` for ``package``: each name in
    ``exports[module]`` is imported from ``module`` (relative to
    ``package``) the first time it is read, then kept on the package.

    Package roots resolve their public names this way, so that a process
    imports a subsystem when it first uses one: opening a session,
    running and editing never load verification, the baseline compiler,
    the cost model, regression, cosimulation or trace reports.
    """
    where = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


_EXPORTS = {
    ".baseline": ("BaselineCompiler", "BaselineResult"),
    ".codegen": ("BuildConfig", "CompiledModule", "design_cost"),
    ".hdl": (
        "CompileBudgetExceeded", "ElaborationError", "HDLError",
        "ParseError", "SimulationError", "elaborate", "parse",
    ),
    ".live": (
        "Checkpoint", "CheckpointStore", "CompileReport", "ConsistencyReport",
        "ERDReport", "GCPolicy", "HotReloader", "LiveCompiler", "LiveParser",
        "LiveSession", "RegisterTransform", "RegisterTransformHistory",
        "TransformOp",
    ),
    ".passes": ("compile_netlist",),
    ".sim": ("Pipe", "StageInst", "Testbench"),
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__version__ = "1.0.0"

__all__ = [
    name for names in _EXPORTS.values() for name in names
] + ["compile_design", "__version__"]


def compile_design(
    source: str,
    top: str,
    params: Optional[Dict[str, int]] = None,
    mux_style: str = "branch",
    opt: str = "none",
) -> Tuple[Netlist, Dict[str, CompiledModule]]:
    """One-call convenience: parse + elaborate + compile ``source``.

    Returns ``(netlist, library)``; build a runnable UUT with
    ``Pipe(netlist.top, library)``.  Compilation is the
    :mod:`repro.passes` pipeline; ``opt="full"`` turns on constant
    propagation and dead-logic elimination — bit-identical to the
    plain build by construction.  At every level a pure subtree's
    ``cycle`` is not called and an assign nothing reads is not emitted.
    """
    from .codegen import BuildConfig
    from .hdl import elaborate, parse
    from .passes import compile_netlist

    netlist = elaborate(parse(source), top, params)
    return netlist, compile_netlist(
        netlist, BuildConfig(mux_style=mux_style, opt=opt)
    )
