"""repro.passes — the compile pipeline over one netlist.

Compilation is seven passes in one written order, each a
:class:`Pass` that writes one typed field of the
:class:`PassData` carrier and reads fields only earlier passes wrote:
``elab_facts`` (``pure``), ``dataflow`` (``value_facts``), ``constprop``
(starts ``plans``, one :class:`~repro.codegen.optplan.OptPlan` per
module), ``sanitize_plan`` (``san_free``), ``deadlogic`` and
``sensitivity`` (refine ``plans``), ``codegen`` (``library``).
:mod:`repro.passes.base` tabulates who reads what.

``build_compile_pipeline()`` is that sequence
(:class:`~repro.live.compiler_live.LiveCompiler` runs it with its one
:class:`~repro.codegen.build.DerivedCache` on the carrier, so per-pass
results persist across hot reloads); :func:`compile_netlist` is the
one-shot compile ``repro.compile_design`` uses.
"""

from __future__ import annotations

from typing import Dict

from .. import lazy_exports
from ..codegen.build import OPT_LEVELS, BuildConfig
from ..codegen.module import CompiledModule
from ..ir.netlist import Netlist
from .base import Pass, PassData, PassPipeline
from .codegen import CodegenPass, SanitizePlanPass, SensitivityPrunePass
from .dataflow import (
    ModuleValueFacts,
    ValueFact,
    ValueFactsPass,
    compute_netlist_facts,
)
from .facts import ElaborateFactsPass

__getattr__ = lazy_exports(__name__, {
    ".optimize": ("ConstPropPass", "DeadLogicPass"),
})

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
    "compile_netlist",
    "compute_netlist_facts",
]


class _Optimizing(Pass):
    """A pass of :mod:`repro.passes.optimize`, which the first build at
    ``opt=full`` loads; at ``none`` each leaves the plans empty."""

    def __init__(self, name: str, pass_class: str):
        self.name, self._pass_class = name, pass_class

    def run(self, data: PassData) -> None:
        if data.build.opt == "none":
            data.plans = {}
            return
        from . import optimize

        getattr(optimize, self._pass_class)().run(data)


def build_compile_pipeline() -> PassPipeline:
    """The compile pipeline: the seven passes, in the order they run."""
    return PassPipeline([
        ElaborateFactsPass(),
        ValueFactsPass(),
        _Optimizing("constprop", "ConstPropPass"),
        SanitizePlanPass(),
        _Optimizing("deadlogic", "DeadLogicPass"),
        SensitivityPrunePass(),
        CodegenPass(),
    ])


def compile_netlist(
    netlist: Netlist,
    build: BuildConfig = BuildConfig(),
    sanitize_runtime=None,
) -> Dict[str, CompiledModule]:
    """One-shot compile of ``netlist`` through the pass pipeline.

    Returns key -> CompiledModule for every specialization under the
    top, each compiled once however many instances share it.  A fresh
    cache each call: no cross-call caching.
    """
    data = PassData(
        netlist=netlist, build=build, sanitize_runtime=sanitize_runtime
    )
    return build_compile_pipeline().run(data).library
