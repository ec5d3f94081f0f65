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

from typing import Dict, Optional, Tuple

from .baseline import BaselineCompiler, BaselineResult
from .codegen import BuildConfig, CompiledModule, design_cost
from .hdl import (
    CompileBudgetExceeded,
    ElaborationError,
    HDLError,
    ParseError,
    SimulationError,
    elaborate,
    parse,
)
from .ir.netlist import Netlist
from .live import (
    Checkpoint,
    CheckpointStore,
    CompileReport,
    ConsistencyReport,
    ERDReport,
    GCPolicy,
    HotReloader,
    LiveCompiler,
    LiveParser,
    LiveSession,
    RegisterTransform,
    RegisterTransformHistory,
    TransformOp,
)
from .passes import compile_netlist
from .sim import Pipe, StageInst, Testbench

__version__ = "1.0.0"

__all__ = [
    "LiveSession",
    "LiveParser",
    "LiveCompiler",
    "HotReloader",
    "Checkpoint",
    "CheckpointStore",
    "GCPolicy",
    "RegisterTransform",
    "RegisterTransformHistory",
    "TransformOp",
    "ERDReport",
    "CompileReport",
    "ConsistencyReport",
    "Pipe",
    "StageInst",
    "Testbench",
    "BaselineCompiler",
    "BaselineResult",
    "BuildConfig",
    "CompiledModule",
    "compile_netlist",
    "design_cost",
    "compile_design",
    "parse",
    "elaborate",
    "HDLError",
    "ParseError",
    "ElaborationError",
    "SimulationError",
    "CompileBudgetExceeded",
    "__version__",
]


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
    :mod:`repro.passes` pipeline; ``opt`` above ``"none"`` turns on
    constant propagation and dead-logic elimination (``"full"`` adds
    pure-subtree skips) — bit-identical to the plain build by
    construction.
    """
    netlist = elaborate(parse(source), top, params)
    return netlist, compile_netlist(
        netlist, BuildConfig(mux_style=mux_style, opt=opt)
    )
