"""Generators for the paper's figures (6, 7 and 8) and the §V-B
measurement."""

from __future__ import annotations

import gc
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..riscv.patches import single_stage_patches
from .tables import Table7Row, table7
from .workloads import PGASWorkbench, SizeResult

Point = Tuple[int, Optional[float]]


# ---------------------------------------------------------------------------
# Figure 7: compilation + simulation time vs simulated cycles
# ---------------------------------------------------------------------------


@dataclass
class Fig7Series:
    """One line of Fig. 7: seconds to reach N simulated kilocycles per
    core (the paper normalizes the x-axis by the core count)."""

    label: str
    compile_offset_s: Optional[float]
    khz: Optional[float]  # aggregate core-kilocycles per second
    cores: int = 1
    flat_seconds: Optional[float] = None  # for the from-checkpoint line

    def at(self, kilocycles_per_core: float) -> Optional[float]:
        if self.flat_seconds is not None:
            return self.flat_seconds
        if self.compile_offset_s is None or not self.khz:
            return None
        return self.compile_offset_s + kilocycles_per_core * self.cores / self.khz

    def points(self, kilocycle_marks: Sequence[float]) -> List[Point]:
        return [(int(kc), self.at(kc)) for kc in kilocycle_marks]


def fig7_series(
    results: Sequence[SizeResult],
    table7_rows: Optional[Sequence[Table7Row]] = None,
) -> List[Fig7Series]:
    """Build Fig. 7's lines: measured compile offsets + host-model
    simulation slopes, plus the flat LiveSim-from-checkpoint line."""
    rows = {r.n: r for r in (table7_rows or table7([r.n for r in results]))}
    series: List[Fig7Series] = []
    for result in results:
        perf = rows[result.n]
        series.append(
            Fig7Series(
                label=f"LiveSim {result.n}x{result.n} (full simulation)",
                compile_offset_s=result.livesim_full_compile_s,
                khz=perf.livesim.khz,
                cores=result.cores,
            )
        )
        series.append(
            Fig7Series(
                label=f"Verilator {result.n}x{result.n}",
                compile_offset_s=result.baseline_compile_s,
                khz=perf.verilator.khz if perf.verilator else None,
                cores=result.cores,
            )
        )
        series.append(
            Fig7Series(
                label=f"LiveSim {result.n}x{result.n} (from checkpoint)",
                compile_offset_s=None,
                khz=None,
                cores=result.cores,
                flat_seconds=result.livesim_hot_reload_s,
            )
        )
    return series


def fig7_crossover_kilocycles(
    livesim: Fig7Series, verilator: Fig7Series
) -> Optional[float]:
    """Cycle count where LiveSim's line crosses the baseline's.

    Paper: "For the 1x1 PGAS, Verilator only passes LiveSim after
    running 76 million cycles."  Returns None when the lines never
    cross (one dominates).
    """
    if (
        livesim.compile_offset_s is None
        or verilator.compile_offset_s is None
        or not livesim.khz
        or not verilator.khz
    ):
        return None
    # compile_l + c*s_l = compile_v + c*s_v  =>  c = dCompile / dSlope
    slope_delta = (
        livesim.cores / livesim.khz - verilator.cores / verilator.khz
    )
    compile_delta = verilator.compile_offset_s - livesim.compile_offset_s
    if slope_delta == 0:
        return None
    crossing = compile_delta / slope_delta
    return crossing if crossing > 0 else None


# ---------------------------------------------------------------------------
# Figure 8: hot-reload ERD latency per mesh size
# ---------------------------------------------------------------------------


@dataclass
class Fig8Bar:
    """One Fig. 8 bar: a mesh size's edit-run-debug phases, in seconds."""
    n: int
    cores: int
    parse_s: float
    compile_s: float
    analyze_s: float
    swap_s: float
    reload_s: float
    replay_s: float
    total_s: float
    swapped_instances: int
    under_two_seconds: bool


def fig8_bars(results: Sequence[SizeResult]) -> List[Fig8Bar]:
    bars = []
    for result in results:
        report = result.erd_report
        if report is None:
            continue
        bars.append(
            Fig8Bar(
                n=result.n,
                cores=result.cores,
                parse_s=report.parse_seconds,
                compile_s=report.compile_seconds,
                analyze_s=report.analyze_seconds,
                swap_s=report.swap_seconds,
                reload_s=report.reload_seconds,
                replay_s=report.replay_seconds,
                total_s=report.total_seconds,
                swapped_instances=report.swapped_instances,
                under_two_seconds=report.within_two_seconds,
            )
        )
    return bars


# ---------------------------------------------------------------------------
# §V-B: checkpointing overhead
# ---------------------------------------------------------------------------


@dataclass
class CheckpointOverheadResult:
    """Simulation speed with and without checkpoints, and what they cost."""
    n: int
    hz_without: float
    hz_with: float
    interval: int
    checkpoints_taken: int
    checkpoint_bytes: int  # logical payload per checkpoint
    resident_bytes: int  # what a checkpoint keeps resident, on average
    # Python heap one take adds and keeps (tracemalloc), on average:
    # objects and tuples too, which the 8 B/word columns do not count.
    heap_bytes: int

    @property
    def overhead_percent(self) -> float:
        if self.hz_with <= 0:
            return float("inf")
        return 100.0 * (self.hz_without / self.hz_with - 1.0)


# Takes whose kept Python heap ``checkpoint_overhead`` averages.
_HEAP_TAKES = 8


def checkpoint_overhead(
    n: int = 1, cycles: int = 400, interval: int = 25
) -> CheckpointOverheadResult:
    """Measure simulation speed with and without checkpointing
    (paper §V-B: 'varied from 10 to 20%'), then the Python heap each
    of :data:`_HEAP_TAKES` more takes, one interval apart, keeps:
    traced by ``tracemalloc`` around the take alone, so the cycles
    between are not counted and the timed runs are not slowed."""
    bench = PGASWorkbench(n, checkpoint_interval=interval)
    session = bench.build_session()
    tb = bench.tb_handle
    assert tb is not None
    store = session.store("uut")

    # Without checkpoints.  Each timed run starts from a collected heap:
    # a run is a few milliseconds, and a collection that the allocations
    # since start-up happen to trigger in one of them would outweigh
    # every take in it.
    store.enabled = False
    session.run(tb, "uut", 50)  # warmup past reset
    gc.collect()
    started = time.perf_counter()
    session.run(tb, "uut", cycles)
    hz_without = cycles / (time.perf_counter() - started)

    # With checkpoints.
    store.enabled = True
    gc.collect()
    started = time.perf_counter()
    session.run(tb, "uut", cycles)
    hz_with = cycles / (time.perf_counter() - started)

    taken = len(store)
    checkpoint_bytes = store.total_bytes() // max(taken, 1)
    resident_bytes = store.resident_bytes() // max(taken, 1)

    store.enabled = False
    kept = 0
    for _ in range(_HEAP_TAKES):
        session.run(tb, "uut", interval)
        tracemalloc.start()
        try:
            session.chkp("uut")
            kept += tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    return CheckpointOverheadResult(
        n=n,
        hz_without=hz_without,
        hz_with=hz_with,
        interval=interval,
        checkpoints_taken=taken,
        checkpoint_bytes=checkpoint_bytes,
        resident_bytes=resident_bytes,
        heap_bytes=kept // _HEAP_TAKES,
    )


# ---------------------------------------------------------------------------
# Fig. 6: consistency verification on the persistent pool
# ---------------------------------------------------------------------------


@dataclass
class VerifyPoolScalingResult:
    """Serial vs pooled verification per worker count: cold (workers
    compile the design), warm (nothing to compile) and after one
    single-stage edit on the warm pool (the edited module to compile).

    ``*_modules`` count module specialisations compiled, which repeat
    exactly: ``warm_modules`` by all workers together,
    ``after_edit_worker_modules`` by the worker that compiled most,
    ``edit_modules`` by the session's own compile of the same edit.
    """

    n: int
    checkpoints: int
    segments: int
    serial_wall_s: float
    cold_wall_s: Dict[int, float] = field(default_factory=dict)
    warm_wall_s: Dict[int, float] = field(default_factory=dict)
    after_edit_wall_s: Dict[int, float] = field(default_factory=dict)
    warm_modules: Dict[int, int] = field(default_factory=dict)
    after_edit_worker_modules: Dict[int, int] = field(default_factory=dict)
    edit_modules: Dict[int, int] = field(default_factory=dict)
    all_consistent: bool = True

    def speedup(self, workers: int) -> Optional[float]:
        wall = self.warm_wall_s.get(workers)
        if not wall:
            return None
        return self.serial_wall_s / wall


def verify_pool_scaling(
    n: int = 1,
    run_cycles: int = 320,
    interval: int = 40,
    worker_counts: Sequence[int] = (2, 4),
) -> VerifyPoolScalingResult:
    """Fig.-6-style speedup-vs-workers using the persistent pool.

    For each worker count the pool is started cold (first verify pays
    one design compile per worker), reused warm (nothing to compile),
    and reused again after one single-stage edit, the live loop's
    edit-then-verify: each worker's compiler follows the session's and
    recompiles the edited module only.  Every worker count gets a patch
    of its own, so the edit is new to the session's compile cache too.
    The edit is verified and repaired in process first, so the history
    the pool then checks is the edited design's own and every pass must
    come out consistent.
    """
    bench = PGASWorkbench(n, checkpoint_interval=interval)
    session = bench.build_session()
    tb = bench.tb_handle
    assert tb is not None
    session.run(tb, "uut", run_cycles)
    try:
        serial = session.verify_consistency("uut", workers=1)
        result = VerifyPoolScalingResult(
            n=n,
            checkpoints=len(session.store("uut")),
            segments=len(serial.segments),
            serial_wall_s=serial.wall_seconds,
            all_consistent=serial.all_consistent,
        )
        patches = single_stage_patches()
        for index, workers in enumerate(worker_counts):
            session.reset_verifier_pool()  # cold start for this count
            cold = session.verify_consistency("uut", workers=workers)
            warm = session.verify_consistency("uut", workers=workers)
            edit = bench.hot_reload(patches[index % len(patches)].name)
            session.verify_consistency("uut", repair=True)
            after = session.verify_consistency("uut", workers=workers)
            result.cold_wall_s[workers] = cold.wall_seconds
            result.warm_wall_s[workers] = warm.wall_seconds
            result.after_edit_wall_s[workers] = after.wall_seconds
            result.warm_modules[workers] = sum(
                s.modules_compiled for s in warm.segments
            )
            per_worker: Counter = Counter()
            for segment in after.segments:
                per_worker[segment.worker] += segment.modules_compiled
            result.after_edit_worker_modules[workers] = max(
                per_worker.values(), default=0
            )
            result.edit_modules[workers] = len(edit.recompiled_keys)
            result.all_consistent &= (
                cold.all_consistent
                and warm.all_consistent
                and after.all_consistent
            )
    finally:
        session.close()
    return result
