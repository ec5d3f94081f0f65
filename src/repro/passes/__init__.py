"""repro.passes — the compile pipeline over one netlist.

Compilation is seven passes in one written order, each a
:class:`Pass` that writes one or two typed fields of the
:class:`PassData` carrier and reads fields only earlier passes wrote:
``elab_facts`` (``pure``), ``dataflow`` (``value_facts``), ``constprop``
(starts ``plans``, one :class:`~repro.codegen.optplan.OptPlan` per
module), ``sanitize_plan`` (``elide``, ``san_free``), ``deadlogic`` and
``sensitivity`` (refine ``plans``), ``codegen`` (``library``).
:mod:`repro.passes.base` tabulates who reads what.

``build_compile_pipeline()`` is that sequence
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
from .base import Pass, PassData, PassPipeline
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
    "PassPipeline",
    "SanitizePlanPass",
    "SensitivityPrunePass",
    "ValueFact",
    "ValueFactsPass",
    "build_compile_pipeline",
    "compute_netlist_facts",
    "run_opt_pipeline",
]


def build_compile_pipeline() -> PassPipeline:
    """The compile pipeline: the seven passes, in the order they run."""
    return PassPipeline([
        ElaborateFactsPass(),
        ValueFactsPass(),
        ConstPropPass(),
        SanitizePlanPass(),
        DeadLogicPass(),
        SensitivityPrunePass(),
        CodegenPass(),
    ])


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
    return build_compile_pipeline().run(data).library
