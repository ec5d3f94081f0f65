"""2-bit saturating-counter branch predictor.

Branch sites are abstract integer ids (one per static branch in the
generated code; shared-module code means instances share sites, which
is precisely why the paper's LiveSim shows a *higher* BR MPKI — the
same predictor entry sees different instances' data)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class BranchStats:
    """Branch and misprediction counts of one predictor."""
    branches: int = 0
    mispredicts: int = 0

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0

    def mpki(self, instructions: float) -> float:
        return 1000.0 * self.mispredicts / instructions if instructions else 0.0


class BranchPredictor:
    """Classic 2-bit counters, one per site id (direct-mapped table)."""

    def __init__(self, table_size: int = 4096):
        if table_size & (table_size - 1):
            raise ValueError("predictor table size must be a power of two")
        self._mask = table_size - 1
        self._counters: Dict[int, int] = {}
        self.stats = BranchStats()

    def reset(self) -> None:
        self._counters = {}
        self.stats = BranchStats()

    def predict_and_update(self, site: int, taken: bool) -> bool:
        """Returns True when the prediction was correct."""
        index = site & self._mask
        counter = self._counters.get(index, 2)  # weakly taken
        predicted_taken = counter >= 2
        correct = predicted_taken == taken
        self.stats.branches += 1
        if not correct:
            self.stats.mispredicts += 1
        if taken:
            counter = min(counter + 1, 3)
        else:
            counter = max(counter - 1, 0)
        self._counters[index] = counter
        return correct
