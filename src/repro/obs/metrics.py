"""Counters, gauges and histograms for the live loop.

Counters accumulate (cache hits, checkpoints taken, cycles replayed);
gauges hold the latest value of a level (cache size, store bytes);
histograms summarize a distribution of observations (request latency,
compile seconds) into count/sum/min/max plus window percentiles.
The registry is always on — an increment is one dict operation, cheap
enough for every hot path that wants one — and is snapshot into the
JSON report next to the span tree.
"""

from __future__ import annotations

import math
from typing import Dict, List, Union

Number = Union[int, float]

# Percentiles are computed over a bounded window of the most recent
# observations so a long-lived server cannot grow a histogram without
# bound; count/sum/min/max remain exact over the full lifetime.
HISTOGRAM_WINDOW = 2048


class Histogram:
    """Running stats plus a bounded window of recent observations."""

    __slots__ = ("count", "total", "min", "max", "window")

    def __init__(self):
        self.count = 0
        self.total: Number = 0
        self.min: Number = 0
        self.max: Number = 0
        self.window: List[Number] = []

    def observe(self, value: Number) -> None:
        if self.count == 0:
            self.min = value
            self.max = value
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
        self.count += 1
        self.total += value
        self.window.append(value)
        if len(self.window) > HISTOGRAM_WINDOW:
            del self.window[: len(self.window) - HISTOGRAM_WINDOW]

    def percentile(self, q: float) -> Number:
        """Nearest-rank percentile over the retained window (q in 0..100)."""
        if not self.window:
            return 0
        ordered = sorted(self.window)
        rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered) / 100.0) - 1))
        return ordered[rank]

    def as_dict(self) -> Dict[str, Number]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def merge(self, other: "Histogram") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            self.min = other.min
            self.max = other.max
        else:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        self.count += other.count
        self.total += other.total
        self.window.extend(other.window)
        if len(self.window) > HISTOGRAM_WINDOW:
            del self.window[: len(self.window) - HISTOGRAM_WINDOW]


class MetricsRegistry:
    """Flat, dot-named counters, gauges and histograms."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self):
        self.counters: Dict[str, Number] = {}
        self.gauges: Dict[str, Number] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- counters ------------------------------------------------------------

    def incr(self, name: str, amount: Number = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def counter(self, name: str) -> Number:
        return self.counters.get(name, 0)

    # -- gauges --------------------------------------------------------------

    def gauge(self, name: str, value: Number) -> None:
        self.gauges[name] = value

    def gauge_value(self, name: str, default: Number = 0) -> Number:
        return self.gauges.get(name, default)

    # -- histograms ----------------------------------------------------------

    def histogram(self, name: str, value: Number) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def histogram_stats(self, name: str) -> Dict[str, Number]:
        hist = self.histograms.get(name)
        return hist.as_dict() if hist is not None else Histogram().as_dict()

    # -- lifecycle -----------------------------------------------------------

    def as_dict(self) -> Dict[str, Dict]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: hist.as_dict() for name, hist in self.histograms.items()
            },
        }

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (counters add, gauges overwrite,
        histograms merge their running stats and windows)."""
        for name, value in other.counters.items():
            self.incr(name, value)
        self.gauges.update(other.gauges)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram()
            mine.merge(hist)

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
