"""Code generation: netlist IR -> executable Python.

Two generators implement the two compilation philosophies the paper
contrasts (Fig. 4):

* :mod:`repro.codegen.pygen` — the LiveSim style.  Each module
  specialization compiles to one shared, hot-swappable code object;
  every instance reuses it.  :mod:`repro.codegen.callplan` plans its calls.
* :mod:`repro.codegen.flatgen` — the Verilator style.  The whole
  hierarchy is flattened and code is replicated per instance (optionally
  fully inlined into one function), trading compile time and code
  footprint for intra-instance optimization.

Both write to the runtime contract, :mod:`repro.codegen.module`: all of
codegen the simulator imports, with ``build``, and all the host model
(:mod:`repro.hostmodel`) imports; it reads the rest off the code running.
"""

from .. import lazy_exports

_EXPORTS = {
    ".build": ("BuildConfig", "ModuleKey"),
    ".module": ("CompiledModule",),
    ".pygen": ("compile_module",),
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]
