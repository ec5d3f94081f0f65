"""Synthetic host-trace generation from a design's census-read cost.

One simulated design cycle produces, per instance, the host-level
activity of evaluating that instance:

* an instruction-fetch sweep over its library key's *code block* — one
  block per key, so the instances of a shared module fetch the same
  lines and a replicated library's instances each their own (this
  single difference produces the paper's I$ cliff);
* data traffic over the instance's private state array (plus sparse
  touches into its big memories);
* its share of the key's conditional jumps, spread over the key's
  branch sites — sites shared by the key's instances (which is why
  shared code predicts *worse*: one 2-bit counter sees many instances'
  disagreeing outcomes).

All pseudo-randomness is a deterministic splitmix-style hash, so runs
are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .branch import BranchPredictor, BranchStats
from .cache import CacheConfig, CacheSim, CacheStats
from .cost import DesignCost

_CODE_REGION_GAP = 4096  # pad between code blocks (alignment, literals)
_DATA_REGION_GAP = 256


def _mix(value: int) -> int:
    """Deterministic 64-bit hash (splitmix64 finalizer)."""
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


@dataclass
class _InstanceRecord:
    """Where one instance's code and state sit in the modelled address space."""
    code_base: int
    code_bytes: int
    data_base: int
    state_bytes: int
    touched_bytes: int
    has_big_memory: bool
    branch_sites: Tuple[int, ...]
    branches: int  # jumps per cycle, over ``branch_sites`` in turn
    instance_id: int


@dataclass
class HostTraceStats:
    """Aggregate statistics of a synthesized trace run."""

    cycles: int
    instructions: float
    icache: CacheStats
    dcache: CacheStats
    branches: BranchStats

    @property
    def i_mpki(self) -> float:
        return self.icache.mpki(self.instructions)

    @property
    def d_mpki(self) -> float:
        return self.dcache.mpki(self.instructions)

    @property
    def br_mpki(self) -> float:
        return self.branches.mpki(self.instructions)


class TraceSynthesizer:
    """Builds and replays the synthetic trace of one design cost."""

    def __init__(
        self,
        cost: DesignCost,
        icache_config: CacheConfig = CacheConfig(),
        dcache_config: CacheConfig = CacheConfig(),
        predictor_size: int = 4096,
        taken_bias_percent: int = 85,
        flip_percent: int = 8,
        seed: int = 1,
    ):
        self._cost = cost
        self._icache = CacheSim(icache_config)
        self._dcache = CacheSim(dcache_config)
        self._predictor = BranchPredictor(predictor_size)
        self._taken_bias = taken_bias_percent
        self._flip = flip_percent
        self._seed = seed
        self._instances = self._layout()

    # -- address-space layout -----------------------------------------------------

    def _layout(self) -> List[_InstanceRecord]:
        records: List[_InstanceRecord] = []
        code_cursor = 0
        data_cursor = 0
        site_cursor = 0
        for module in self._cost.module_costs.values():
            sites = tuple(range(site_cursor, site_cursor + module.branch_sites))
            site_cursor += module.branch_sites
            state_bytes = max(module.state_bytes, 16)
            touched = int(min(state_bytes, 8 * (module.loads + module.stores) + 16))
            for _ in range(module.instances):
                records.append(
                    _InstanceRecord(
                        code_base=code_cursor,
                        code_bytes=module.code_bytes,
                        data_base=data_cursor,
                        state_bytes=state_bytes,
                        touched_bytes=touched,
                        has_big_memory=state_bytes > 4096,
                        branch_sites=sites,
                        branches=round(module.branches),
                        instance_id=len(records),
                    )
                )
                data_cursor += state_bytes + _DATA_REGION_GAP
            code_cursor += module.code_bytes + _CODE_REGION_GAP
        return records

    # -- trace replay ---------------------------------------------------------------

    def run(self, cycles: int = 8, warmup: int = 2) -> HostTraceStats:
        """Replay ``warmup + cycles`` design cycles; stats cover the
        post-warmup portion."""
        for cycle in range(warmup):
            self._one_cycle(cycle)
        self._icache.stats = CacheStats()
        self._dcache.stats = CacheStats()
        self._predictor.stats = BranchStats()
        for cycle in range(warmup, warmup + cycles):
            self._one_cycle(cycle)
        instructions = self._cost.instructions * cycles
        return HostTraceStats(
            cycles=cycles,
            instructions=instructions,
            icache=self._icache.stats,
            dcache=self._dcache.stats,
            branches=self._predictor.stats,
        )

    def _one_cycle(self, cycle: int) -> None:
        icache = self._icache
        dcache = self._dcache
        predictor = self._predictor
        taken_bias = self._taken_bias
        flip = self._flip
        seed = self._seed
        for rec in self._instances:
            icache.access_range(rec.code_base, rec.code_bytes)
            dcache.access_range(rec.data_base, rec.touched_bytes)
            if rec.has_big_memory:
                # Sparse touches into the instance's large memories
                # (instruction fetch + load/store of the simulated
                # core): a few pseudo-random lines per cycle.
                for i in range(4):
                    offset = _mix(seed ^ (rec.instance_id << 20) ^ (cycle << 4)
                                  ^ i) % rec.state_bytes
                    dcache.access(rec.data_base + offset)
            sites = rec.branch_sites
            for j in range(rec.branches):
                site = sites[j % len(sites)]
                base = _mix(seed ^ (site << 24) ^ (rec.instance_id + 1))
                taken = (base % 100) < taken_bias
                if (_mix(base ^ cycle) % 100) < flip:
                    taken = not taken
                predictor.predict_and_update(site, taken)
