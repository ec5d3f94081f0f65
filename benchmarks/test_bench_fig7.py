"""Figure 7: compilation + simulation time to reach N cycles.

Regenerates the paper's lines (per size: LiveSim full, Verilator,
LiveSim from checkpoint) and benchmarks the two compile flows whose
offsets anchor them.
"""


from repro.baseline import BaselineCompiler
from repro.bench.figures import fig7_crossover_kilocycles, fig7_series
from repro.bench.reporting import format_series
from repro.bench.tables import table7
from repro.hdl import elaborate, parse
from repro.live.compiler_live import LiveCompiler
from repro.riscv.pgas import build_pgas_source, mesh_top_name

from .conftest import emit

MARKS = [1, 10, 100, 1_000, 10_000, 76_000, 1_000_000]


def test_fig7_report(benchmark, size_results, sizes):
    rows = benchmark.pedantic(
        lambda: table7(sizes=list(sizes), trace_cycles=5),
        rounds=1, iterations=1,
    )
    series = fig7_series(size_results, table7_rows=rows)
    emit(format_series(
        "Figure 7 — seconds to reach N kilocycles/core "
        "(compile offset + host-model slope)",
        {s.label: s.points(MARKS) for s in series},
        x_label="kilocycles/core",
        y_label="seconds",
    ))
    # Crossover report (paper: 1x1 crossover at 76M cycles).
    live = next(s for s in series if s.label == f"LiveSim {sizes[0]}x{sizes[0]} (full simulation)")
    veri = next(s for s in series if s.label == f"Verilator {sizes[0]}x{sizes[0]}")
    crossing = fig7_crossover_kilocycles(live, veri)
    ahead = "Verilator" if veri.khz > live.khz else "LiveSim"
    emit(f"1x1 crossover: {ahead} passes the other after "
         f"{crossing:.0f} kilocycles" if crossing else
         "1x1 crossover: none (one flow dominates)")
    # The from-checkpoint line is flat and < 2 s at every size (the
    # paper's headline property).
    for s in series:
        if "from checkpoint" in s.label:
            assert s.at(10_000_000) < 2.0


def test_bench_livesim_full_compile(benchmark, sizes):
    n = sizes[-1]
    source = build_pgas_source(n)

    def full_compile():
        compiler = LiveCompiler(source)
        return compiler.compile_top(mesh_top_name(n))

    result = benchmark.pedantic(full_compile, rounds=3, iterations=1)
    assert result.library


def test_bench_baseline_compile(benchmark, sizes):
    n = min(sizes[-1], 4)  # keep the default run fast
    netlist = elaborate(parse(build_pgas_source(n)), mesh_top_name(n))

    def baseline_compile():
        return BaselineCompiler(mode="replicate", budget_seconds=120).compile(
            netlist
        )

    result = benchmark.pedantic(baseline_compile, rounds=1, iterations=1)
    assert result.succeeded
