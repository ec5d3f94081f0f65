"""repro.passes — the composable netlist pass framework.

Compilation stages (elaboration facts, value facts, optimization,
sanitizer planning, code generation) are :class:`Pass` objects that
declare the facts they require and produce; :class:`PassManager`
topo-orders and validates a pipeline at build time, and
:class:`PassData` is the shared carrier one compile threads through it.

``build_compile_pipeline()`` is the compiler's default pipeline
(:class:`~repro.live.compiler_live.LiveCompiler` runs it with its one
:class:`~repro.codegen.build.DerivedCache` on the carrier, so per-pass
results persist across hot reloads); ``run_opt_pipeline`` is the
one-shot convenience ``repro.compile_design(opt=...)`` uses.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..codegen.build import OPT_LEVELS, BuildConfig
from ..codegen.pygen import CompiledModule
from ..ir.netlist import Netlist
from .base import Pass, PassData, PassManager, PassPipeline, PipelineError
from .codegen import CodegenPass, SanitizePlanPass
from .dataflow import (
    ModuleValueFacts,
    ValueFact,
    ValueFactsPass,
    compute_netlist_facts,
)
from .facts import ElaborateFactsPass
from .optimize import ConstPropPass, DeadLogicPass, SensitivityPrunePass

__all__ = [
    "OPT_LEVELS",
    "CodegenPass",
    "ConstPropPass",
    "DeadLogicPass",
    "ElaborateFactsPass",
    "ModuleValueFacts",
    "Pass",
    "PassData",
    "PassManager",
    "PassPipeline",
    "PipelineError",
    "SanitizePlanPass",
    "SensitivityPrunePass",
    "ValueFact",
    "ValueFactsPass",
    "build_compile_pipeline",
    "compute_netlist_facts",
    "run_opt_pipeline",
]


def build_compile_pipeline() -> PassPipeline:
    """The default compile pipeline, validated and topo-ordered.

    Passes are registered deliberately out of dependency order — the
    manager's topological sort is what sequences them.
    """
    manager = PassManager([
        CodegenPass(),
        DeadLogicPass(),
        SensitivityPrunePass(),
        ConstPropPass(),
        SanitizePlanPass(),
        ValueFactsPass(),
        ElaborateFactsPass(),
    ])
    return manager.build()


def run_opt_pipeline(
    netlist: Netlist,
    build: BuildConfig,
    sanitize_runtime=None,
    fps: Optional[Dict[str, str]] = None,
) -> Dict[str, CompiledModule]:
    """One-shot compile of ``netlist`` through the pass pipeline.

    Returns key -> CompiledModule for every specialization under the
    top.  A fresh cache each call: no cross-call caching.
    """
    data = PassData(
        netlist=netlist,
        fps=fps or {},
        build=build,
        sanitize_runtime=sanitize_runtime,
    )
    build_compile_pipeline().run(data)
    return data.facts["codegen.library"]
