"""The PGAS workbench: one object per mesh size with everything the
figure/table generators need — LiveSim session, baseline compiles,
measured simulation speeds, cost models."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..baseline import BaselineCompiler, BaselineResult
from ..codegen.cost import DesignCost, design_cost
from ..hdl.elaborate import elaborate
from ..hdl.parser import parse
from ..live.session import ERDReport, LiveSession
from ..riscv import programs
from ..riscv.patches import get_patch
from ..riscv.pgas import build_pgas_source, mesh_top_name
from ..sim.pipeline import Pipe

PAPER_SIZES = (1, 2, 4, 8, 16)
DEFAULT_SIZES = (1, 2, 4)


@dataclass
class SizeResult:
    """Everything measured for one mesh size."""

    n: int
    cores: int
    livesim_full_compile_s: float = 0.0
    livesim_hot_reload_s: Optional[float] = None
    baseline_compile_s: Optional[float] = None  # None => NA (budget)
    baseline_instances: int = 0
    livesim_sim_hz: Optional[float] = None  # measured cycles/second
    baseline_sim_hz: Optional[float] = None
    livesim_cost: Optional[DesignCost] = None
    baseline_cost: Optional[DesignCost] = None
    erd_report: Optional[ERDReport] = None


class PGASWorkbench:
    """Builds and drives the paper's PGAS benchmark at one size."""

    def __init__(
        self,
        n: int,
        checkpoint_interval: int = 50,
        baseline_budget_s: Optional[float] = 20.0,
        program: str = "counter",
        sanitize: str = "off",
        opt: str = "none",
        san_elide: bool = True,
    ):
        self.n = n
        self.cores = n * n
        self.top = mesh_top_name(n)
        self.source = build_pgas_source(n)
        self.checkpoint_interval = checkpoint_interval
        self.baseline_budget_s = baseline_budget_s
        self._program = program
        self._sanitize = sanitize
        self._opt = opt
        self._san_elide = san_elide
        self.session: Optional[LiveSession] = None
        self.tb_handle: Optional[str] = None

    # -- LiveSim session -----------------------------------------------------

    def build_session(self) -> LiveSession:
        """Create the session and pipe; measures the full compile."""
        session = LiveSession(
            self.source,
            checkpoint_interval=self.checkpoint_interval,
            sanitize=self._sanitize,
            opt=self._opt,
            san_elide=self._san_elide,
        )
        started = time.perf_counter()
        session.inst_pipe("uut", session.stage_handle_for(self.top))
        self.full_compile_seconds = time.perf_counter() - started
        asm = self._program_asm()
        self.tb_handle = session.load_testbench(
            programs.boot_program(asm, count=self.cores),
            factory=programs.boot_program_spec(asm, count=self.cores),
        )
        self.session = session
        return session

    def _program_asm(self) -> str:
        if self._program == "counter":
            return programs.busy_counter(10_000_000)
        raise ValueError(f"unknown program kind {self._program!r}")

    def _load_programs(self, pipe: Pipe) -> None:
        """Direct load for pipes outside a session (the baseline)."""
        programs.load_same_program(pipe, self.cores, self._program_asm())

    def run(self, cycles: int) -> None:
        assert self.session is not None and self.tb_handle is not None
        self.session.run(self.tb_handle, "uut", cycles)

    # -- measurements -----------------------------------------------------------

    def measure_sim_speed(self, pipe: Pipe, cycles: int = 200) -> float:
        """Wall-clock simulated cycles/second over a bounded run."""
        pipe.set_inputs(rst=0)
        pipe.step(5)  # warm caches / code paths
        started = time.perf_counter()
        ran = pipe.step(cycles)
        elapsed = time.perf_counter() - started
        return ran / elapsed if elapsed > 0 else float("inf")

    def compile_baseline(self, mode: str = "replicate") -> BaselineResult:
        netlist = elaborate(parse(self.source), self.top)
        compiler = BaselineCompiler(
            mode=mode, budget_seconds=self.baseline_budget_s
        )
        return compiler.compile(netlist)

    def costs(self) -> Dict[str, DesignCost]:
        netlist = elaborate(parse(self.source), self.top)
        return {
            "livesim": design_cost(netlist, "branch"),
            "verilator": design_cost(netlist, "select"),
        }

    def hot_reload(self, patch_name: str = "id-imm-sign") -> ERDReport:
        """Apply a realistic single-stage code change through the live
        loop; returns the ERD report (the Fig. 8 measurement).

        If the bug is already present the change is the fix, otherwise
        it is the (equally realistic) injection — either way it is a
        never-before-compiled variant of exactly one pipeline-stage
        module, matching the paper's bug-fix methodology.
        """
        assert self.session is not None
        patch = get_patch(patch_name)
        current = self.session.compiler.source
        if patch.is_injected(current):
            edited = patch.fix(current)
        else:
            edited = patch.inject(current)
        return self.session.apply_change(edited)

    # -- the one-call driver -------------------------------------------------------

    def collect(
        self,
        sim_cycles: int = 200,
        run_cycles: Optional[int] = None,
        measure_baseline: bool = True,
        measure_baseline_speed: bool = True,
        patch_name: str = "id-imm-sign",
        hot_reload_repeats: int = 1,
    ) -> SizeResult:
        result = SizeResult(n=self.n, cores=self.cores)
        self.build_session()
        result.livesim_full_compile_s = self.full_compile_seconds

        self.run(5)  # boot: load the program, come out of reset
        started = time.perf_counter()
        self.run(sim_cycles)  # measured through the session: replayable
        elapsed = time.perf_counter() - started
        result.livesim_sim_hz = sim_cycles / elapsed if elapsed else None

        self.run(run_cycles if run_cycles is not None else 3 * self.checkpoint_interval)
        report = self.hot_reload(patch_name)
        # Repeats alternate the patch (fix/inject) — each is a fresh,
        # never-before-compiled edit.  Keeping the fastest iteration
        # makes the per-edit latency stable enough for CI gating.
        for _ in range(max(hot_reload_repeats - 1, 0)):
            candidate = self.hot_reload(patch_name)
            if candidate.total_seconds < report.total_seconds:
                report = candidate
        result.erd_report = report
        result.livesim_hot_reload_s = report.total_seconds

        costs = self.costs()
        result.livesim_cost = costs["livesim"]
        result.baseline_cost = costs["verilator"]

        if measure_baseline:
            baseline = self.compile_baseline()
            result.baseline_instances = baseline.instances_compiled
            if baseline.succeeded:
                result.baseline_compile_s = baseline.compile_seconds
                if measure_baseline_speed:
                    bpipe = baseline.make_pipe()
                    self._load_programs(bpipe)
                    bpipe.set_inputs(rst=1)
                    bpipe.step(2)
                    result.baseline_sim_hz = self.measure_sim_speed(
                        bpipe, sim_cycles
                    )
            else:
                result.baseline_compile_s = None  # the paper's NA
        return result


def collect_sizes(
    sizes=DEFAULT_SIZES,
    sim_cycles: int = 150,
    baseline_budget_s: Optional[float] = 20.0,
    **kwargs,
) -> List[SizeResult]:
    """Run the workbench across mesh sizes (the paper's 1x1..16x16)."""
    results = []
    for n in sizes:
        bench = PGASWorkbench(n, baseline_budget_s=baseline_budget_s)
        results.append(bench.collect(sim_cycles=sim_cycles, **kwargs))
    return results


@dataclass
class SanitizerOverheadResult:
    """``report``-mode slowdown vs clean codegen on the fig7 workload.

    Two instrumented builds are measured: the shipping default with
    proof-driven check elision active (``sanitized_*``), and the same
    mesh with every site instrumented (``unelided_*``).  ``san_sites``
    / ``san_elided`` count instrumentation sites across the elided
    build's library — the static half of the elision story; the two
    slowdowns are the dynamic half.
    """

    n: int
    cores: int
    clean_sim_hz: float = 0.0
    sanitized_sim_hz: float = 0.0
    unelided_sim_hz: float = 0.0
    clean_compile_s: float = 0.0
    sanitized_compile_s: float = 0.0
    unelided_compile_s: float = 0.0
    san_sites: int = 0
    san_elided: int = 0
    hits: Dict[str, int] = None  # type: ignore[assignment]
    unelided_hits: Dict[str, int] = None  # type: ignore[assignment]
    findings: int = 0

    @property
    def slowdown(self) -> Optional[float]:
        """clean Hz / sanitized Hz (>= 1.0 when instrumentation costs)."""
        if self.sanitized_sim_hz <= 0:
            return None
        return self.clean_sim_hz / self.sanitized_sim_hz

    @property
    def unelided_slowdown(self) -> Optional[float]:
        """clean Hz / unelided Hz — what report mode cost pre-elision."""
        if self.unelided_sim_hz <= 0:
            return None
        return self.clean_sim_hz / self.unelided_sim_hz

    @property
    def elision_delta(self) -> Optional[float]:
        """Overhead removed by elision (unelided − elided slowdown)."""
        if self.slowdown is None or self.unelided_slowdown is None:
            return None
        return self.unelided_slowdown - self.slowdown


@dataclass
class TraceOverheadResult:
    """Live-trace capture slowdown vs tracing off on the fig7 workload."""

    n: int
    cores: int
    probes: int = 0
    plain_sim_hz: float = 0.0
    traced_sim_hz: float = 0.0
    cycles_dropped: int = 0

    @property
    def slowdown(self) -> Optional[float]:
        """plain Hz / traced Hz (>= 1.0 when capture costs)."""
        if self.traced_sim_hz <= 0:
            return None
        return self.plain_sim_hz / self.traced_sim_hz


def trace_overhead(n: int = 1, sim_cycles: int = 150) -> TraceOverheadResult:
    """Measure per-cycle trace-capture overhead on the fig7 workload.

    Runs the same mesh session twice: once untraced, then with probes
    on the mesh-wide outputs (``all_halted``, ``total_retired``) so
    every cycle pays the ring-buffer append.  Report-only — the
    interesting number is the slowdown ratio, not absolute Hz.
    """
    result = TraceOverheadResult(n=n, cores=n * n)

    bench = PGASWorkbench(n, baseline_budget_s=None)
    session = bench.build_session()
    bench.run(5)
    started = time.perf_counter()
    bench.run(sim_cycles)
    elapsed = time.perf_counter() - started
    result.plain_sim_hz = sim_cycles / elapsed if elapsed else 0.0
    session.close()

    bench = PGASWorkbench(n, baseline_budget_s=None)
    session = bench.build_session()
    for signal in ("all_halted", "total_retired"):
        session.watch("uut", signal)
        result.probes += 1
    bench.run(5)
    started = time.perf_counter()
    bench.run(sim_cycles)
    elapsed = time.perf_counter() - started
    result.traced_sim_hz = sim_cycles / elapsed if elapsed else 0.0
    result.cycles_dropped = session.trace_buffer("uut").cycles_dropped
    session.close()
    return result


@dataclass
class OptSpeedupResult:
    """opt=full speedup vs opt=none on the fig7-style PGAS workload."""

    n: int
    cores: int
    plain_sim_hz: float = 0.0
    opt_sim_hz: float = 0.0
    plain_compile_s: float = 0.0
    opt_compile_s: float = 0.0

    @property
    def speedup(self) -> Optional[float]:
        """opt Hz / plain Hz (>= 1.0 when the passes pay off)."""
        if self.plain_sim_hz <= 0:
            return None
        return self.opt_sim_hz / self.plain_sim_hz


def opt_speedup(n: int = 1, sim_cycles: int = 150) -> OptSpeedupResult:
    """Measure the opt=full speedup on the fig7-style PGAS workload.

    Builds the same mesh twice — plain and with the full pass pipeline
    (constant propagation, dead-logic elimination, pure-child skips) —
    and reports simulated cycles/second for each.
    Report-only: the interesting number is the ratio; the differential
    fuzzers are what assert the two builds agree bit for bit.
    """
    result = OptSpeedupResult(n=n, cores=n * n)

    plain = PGASWorkbench(n, baseline_budget_s=None)
    session = plain.build_session()
    result.plain_compile_s = plain.full_compile_seconds
    plain.run(5)
    started = time.perf_counter()
    plain.run(sim_cycles)
    elapsed = time.perf_counter() - started
    result.plain_sim_hz = sim_cycles / elapsed if elapsed else 0.0
    session.close()

    opt = PGASWorkbench(n, baseline_budget_s=None, opt="full")
    session = opt.build_session()
    result.opt_compile_s = opt.full_compile_seconds
    opt.run(5)
    started = time.perf_counter()
    opt.run(sim_cycles)
    elapsed = time.perf_counter() - started
    result.opt_sim_hz = sim_cycles / elapsed if elapsed else 0.0
    session.close()
    return result


def sanitizer_overhead(
    n: int = 1, sim_cycles: int = 150
) -> SanitizerOverheadResult:
    """Measure ``san report`` overhead on the fig7-style PGAS workload.

    Builds the same mesh three ways — clean, sanitize=report with
    proof-driven elision (the default), and sanitize=report with every
    site instrumented — runs each through the session path, and
    reports simulated cycles/second plus the per-check hit counters (a
    clean corpus should show zero findings; nonzero here means real
    signal, not noise).  The elided and unelided counters must match —
    elision is only allowed to remove checks that can never fire.
    """
    result = SanitizerOverheadResult(
        n=n, cores=n * n, hits={}, unelided_hits={}
    )

    clean = PGASWorkbench(n, baseline_budget_s=None)
    session = clean.build_session()
    result.clean_compile_s = clean.full_compile_seconds
    clean.run(5)
    started = time.perf_counter()
    clean.run(sim_cycles)
    elapsed = time.perf_counter() - started
    result.clean_sim_hz = sim_cycles / elapsed if elapsed else 0.0
    session.close()

    sanitized = PGASWorkbench(n, baseline_budget_s=None, sanitize="report")
    session = sanitized.build_session()
    result.sanitized_compile_s = sanitized.full_compile_seconds
    library = session.pipe("uut").library
    result.san_sites = sum(m.san_sites for m in library.values())
    result.san_elided = sum(m.san_elided for m in library.values())
    sanitized.run(5)
    started = time.perf_counter()
    sanitized.run(sim_cycles)
    elapsed = time.perf_counter() - started
    result.sanitized_sim_hz = sim_cycles / elapsed if elapsed else 0.0
    result.hits = session.sanitize_runtime.counters()
    result.findings = len(session.sanitize_runtime.findings)
    session.close()

    unelided = PGASWorkbench(
        n, baseline_budget_s=None, sanitize="report", san_elide=False
    )
    session = unelided.build_session()
    result.unelided_compile_s = unelided.full_compile_seconds
    unelided.run(5)
    started = time.perf_counter()
    unelided.run(sim_cycles)
    elapsed = time.perf_counter() - started
    result.unelided_sim_hz = sim_cycles / elapsed if elapsed else 0.0
    result.unelided_hits = session.sanitize_runtime.counters()
    session.close()
    return result
