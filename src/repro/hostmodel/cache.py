"""Set-associative cache simulator (LRU), line-granular.

Sized by default like the paper's evaluation machine (an Intel
i7-6700K / Skylake): 32 KB 8-way L1I, 32 KB 8-way L1D, 64-byte lines.
The model is deliberately single-level — the paper's argument only
needs "fits in L1" vs "thrashes L1", and MPKI is reported against the
same instruction counts the IPC model uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one modelled cache."""
    size_bytes: int = 32 * 1024
    ways: int = 8
    line_bytes: int = 64

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.ways * self.line_bytes)
        if sets <= 0 or sets & (sets - 1):
            raise ValueError("cache geometry must give a power-of-two set count")
        return sets


@dataclass
class CacheStats:
    """Access and miss counts of one modelled cache."""
    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def mpki(self, instructions: float) -> float:
        """Misses per thousand instructions."""
        return 1000.0 * self.misses / instructions if instructions else 0.0


class CacheSim:
    """LRU set-associative cache over abstract byte addresses."""

    def __init__(self, config: CacheConfig = CacheConfig()):
        self.config = config
        self._num_sets = config.num_sets
        self._set_mask = self._num_sets - 1
        self._line_shift = config.line_bytes.bit_length() - 1
        # Each set is an ordered list of tags; index 0 is MRU.
        self._sets: List[List[int]] = [[] for _ in range(self._num_sets)]
        self.stats = CacheStats()

    def reset(self) -> None:
        self._sets = [[] for _ in range(self._num_sets)]
        self.stats = CacheStats()

    def access(self, addr: int) -> bool:
        """Touch the line holding ``addr``; True on hit."""
        line = addr >> self._line_shift
        index = line & self._set_mask
        tag = line >> (self._num_sets.bit_length() - 1)
        ways = self._sets[index]
        self.stats.accesses += 1
        try:
            pos = ways.index(tag)
        except ValueError:
            self.stats.misses += 1
            ways.insert(0, tag)
            if len(ways) > self.config.ways:
                ways.pop()
            return False
        if pos:
            del ways[pos]
            ways.insert(0, tag)
        return True

    def access_range(self, start: int, length: int) -> int:
        """Touch every line in ``[start, start+length)``; returns misses."""
        if length <= 0:
            return 0
        misses_before = self.stats.misses
        line_bytes = self.config.line_bytes
        first = start - (start % line_bytes)
        addr = first
        end = start + length
        while addr < end:
            self.access(addr)
            addr += line_bytes
        return self.stats.misses - misses_before

    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)
