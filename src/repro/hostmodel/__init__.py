"""Host CPU performance model.

The paper explains LiveSim's speed advantage on large designs with
host-machine microarchitecture effects (Table VII): Verilator's
replicated/inlined code overflows the instruction cache once the design
has enough instances, while LiveSim's shared-module code keeps a tiny
I-footprint at the cost of call glue and extra branches.

Pure-Python wall-clock timing cannot exhibit those effects (the
interpreter's own footprint dominates), so this package *simulates* the
mechanism: a set-associative cache model and a 2-bit branch predictor
replay synthetic traces sized by what each compiler's generated code
executed and occupied (a :mod:`repro.obs.census` of it running, read by
:mod:`repro.hostmodel.cost`), and an in-order IPC model turns miss
rates into simulated-KHz.  Absolute numbers are calibrated against the
paper's 1x1 column; the *shape* across design sizes is the
reproduction target.
"""

from .branch import BranchPredictor
from .cache import CacheConfig, CacheSim, CacheStats
from .cost import DesignCost, ModuleCost, design_cost
from .perf import HostMachine, PerfModel, PerfResult
from .trace import HostTraceStats, TraceSynthesizer

__all__ = [
    "CacheConfig",
    "CacheSim",
    "CacheStats",
    "BranchPredictor",
    "DesignCost",
    "ModuleCost",
    "design_cost",
    "TraceSynthesizer",
    "HostTraceStats",
    "HostMachine",
    "PerfModel",
    "PerfResult",
]
