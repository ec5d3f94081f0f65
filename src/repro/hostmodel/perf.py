"""IPC / simulation-speed estimation (the Table VII columns).

A simple in-order pipeline model: every host instruction costs
``1/base_ipc`` cycles, plus fixed penalties per I$ miss, D$ miss, and
branch mispredict.  Simulated-design KHz follows directly::

    KHz = host_frequency * IPC / host_instructions_per_design_cycle / 1000

``khz_scale`` lets a bench calibrate the absolute level against the
paper's measured 1x1 anchor (LiveSim 1974 KHz / IPC 2.50) so that the
reported numbers land in the paper's units; the *relative* behaviour
across sizes and styles comes entirely from the model.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cache import CacheConfig
from .cost import DesignCost
from .trace import HostTraceStats, TraceSynthesizer


@dataclass(frozen=True)
class HostMachine:
    """Microarchitectural parameters of the modeled host.

    Defaults approximate the paper's i7-6700K (Skylake @ 4.2 GHz):
    L1 miss penalties in the low teens of cycles, ~15-cycle mispredict.
    """

    frequency_ghz: float = 4.2
    base_ipc: float = 3.2
    icache_miss_penalty: float = 14.0
    dcache_miss_penalty: float = 12.0
    branch_miss_penalty: float = 15.0
    icache: CacheConfig = CacheConfig()
    dcache: CacheConfig = CacheConfig()


@dataclass
class PerfResult:
    """One Table VII column."""

    khz: float
    ipc: float
    i_mpki: float
    d_mpki: float
    br_mpki: float
    instructions_per_cycle: float
    code_bytes: float
    data_bytes: float

    def row(self) -> dict:
        return {
            "KHz": round(self.khz, 1),
            "IPC": round(self.ipc, 2),
            "I$ MPKI": round(self.i_mpki, 2),
            "D$ MPKI": round(self.d_mpki, 2),
            "BR MPKI": round(self.br_mpki, 2),
        }


class PerfModel:
    """Turns a design cost and trace statistics into Table VII numbers."""

    def __init__(self, machine: HostMachine = HostMachine(),
                 khz_scale: float = 1.0):
        self.machine = machine
        self.khz_scale = khz_scale

    def evaluate(
        self,
        cost: DesignCost,
        trace_cycles: int = 8,
        warmup: int = 2,
        seed: int = 1,
        cores: int = 1,
    ) -> PerfResult:
        """``cores`` scales the reported KHz to the paper's unit:
        aggregate simulated core-kilocycles per second ("global
        speed"), i.e. design-cycle rate times the core count."""
        synth = TraceSynthesizer(
            cost,
            icache_config=self.machine.icache,
            dcache_config=self.machine.dcache,
            seed=seed,
        )
        stats = synth.run(cycles=trace_cycles, warmup=warmup)
        return self.from_stats(cost, stats, cores=cores)

    def from_stats(self, cost: DesignCost, stats: HostTraceStats,
                   cores: int = 1) -> PerfResult:
        machine = self.machine
        instructions = max(stats.instructions, 1.0)
        host_cycles = (
            instructions / machine.base_ipc
            + stats.icache.misses * machine.icache_miss_penalty
            + stats.dcache.misses * machine.dcache_miss_penalty
            + stats.branches.mispredicts * machine.branch_miss_penalty
        )
        ipc = instructions / host_cycles
        instr_per_design_cycle = instructions / max(stats.cycles, 1)
        khz = (
            machine.frequency_ghz
            * 1e9
            * ipc
            / instr_per_design_cycle
            / 1e3
            * self.khz_scale
            * cores
        )
        return PerfResult(
            khz=khz,
            ipc=ipc,
            i_mpki=stats.i_mpki,
            d_mpki=stats.d_mpki,
            br_mpki=stats.br_mpki,
            instructions_per_cycle=instr_per_design_cycle,
            code_bytes=cost.code_bytes,
            data_bytes=cost.data_bytes,
        )

    def calibrated(
        self,
        anchor_cost: DesignCost,
        target_khz: float,
        trace_cycles: int = 8,
    ) -> "PerfModel":
        """A copy whose ``khz_scale`` pins ``anchor_cost`` to
        ``target_khz`` (anchoring to the paper's 1x1 measurement)."""
        raw = self.evaluate(anchor_cost, trace_cycles=trace_cycles)
        if raw.khz <= 0:
            return PerfModel(self.machine, 1.0)
        return PerfModel(self.machine, target_khz / (raw.khz / self.khz_scale))
