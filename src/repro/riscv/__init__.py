"""RISC-V PGAS workload (the paper's benchmark substrate, §IV).

A 5-stage RV64I core written in LHDL, replicated into an NxN
partitioned-global-address-space mesh (each node: one core + 32 KB of
local memory, remote stores routed over an XY mesh).  Plus everything
needed to drive it: an assembler, test programs, a golden-model ISS for
differential testing, and the curated bug/fix patch library used by the
Fig. 8 hot-reload bench.
"""

from .. import lazy_exports

_EXPORTS = {
    ".assembler": ("AsmError", "assemble"),
    ".cosim": ("Cosim", "CosimResult", "Divergence", "cosim_program"),
    ".golden": ("GoldenCore",),
    ".isa": ("Reg",),
    ".pgas": (
        "LOCAL_MEM_BYTES", "build_pgas_source", "global_address",
        "mesh_top_name",
    ),
    ".rtl": ("CORE_MODULES_SOURCE", "core_source"),
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]
