"""Code generation: netlist IR -> executable Python.

Two generators implement the two compilation philosophies the paper
contrasts (Fig. 4):

* :mod:`repro.codegen.pygen` — the LiveSim style.  Each module
  specialization compiles to one shared, hot-swappable code object;
  every instance reuses it.
* :mod:`repro.codegen.flatgen` — the Verilator style.  The whole
  hierarchy is flattened and code is replicated per instance (optionally
  fully inlined into one function), trading compile time and code
  footprint for intra-instance optimization.

:mod:`repro.codegen.cost` derives static instruction/branch/memory
costs from the IR for the host performance model (Table VII).
"""

from .. import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".build": ("BuildConfig", "ModuleKey"),
    ".cost": ("DesignCost", "ModuleCost", "design_cost", "module_cost"),
    ".pygen": ("CompiledModule", "compile_module"),
})

__all__ = [
    "BuildConfig",
    "ModuleKey",
    "CompiledModule",
    "compile_module",
    "ModuleCost",
    "module_cost",
    "DesignCost",
    "design_cost",
]
