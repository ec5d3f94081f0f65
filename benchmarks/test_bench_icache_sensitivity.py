"""Ablation: the I$-size sensitivity behind Table VII's cliff.

The paper attributes Verilator's large-design slowdown to instruction
cache misses.  If that causal story is right, growing the modeled I$
must move the baseline's cliff to larger designs while leaving LiveSim
(whose shared code grows only with the mesh's top module) unaffected.
This bench sweeps the I$ size and checks exactly that.
"""


from repro.baseline import BaselineCompiler
from repro.bench.reporting import format_table
from repro.bench.tables import census_cost
from repro.hdl import elaborate, parse
from repro.hostmodel.cache import CacheConfig
from repro.hostmodel.perf import HostMachine, PerfModel
from repro.passes import compile_netlist
from repro.riscv.pgas import build_pgas_source, mesh_top_name

from .conftest import emit

ICACHE_KB = (16, 32, 128, 1024)


def _costs(n):
    netlist = elaborate(parse(build_pgas_source(n)), mesh_top_name(n))
    baseline = BaselineCompiler(mode="replicate").compile(netlist)
    return (census_cost(compile_netlist(netlist), netlist.top, n, 4),
            census_cost(baseline.library, baseline.top_key, n, 4))


def test_icache_sensitivity_report(benchmark, sizes):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    n = min(sizes[-1], 4)
    live_cost, veri_cost = _costs(n)
    rows = []
    mpki = {}
    for kb in ICACHE_KB:
        machine = HostMachine(icache=CacheConfig(size_bytes=kb * 1024))
        model = PerfModel(machine)
        live = model.evaluate(live_cost, trace_cycles=4)
        veri = model.evaluate(veri_cost, trace_cycles=4)
        mpki[kb] = (live.i_mpki, veri.i_mpki)
        rows.append([
            kb, round(live.i_mpki, 2), round(veri.i_mpki, 2),
            round(live.ipc, 2), round(veri.ipc, 2),
        ])
    emit(format_table(
        f"I$-size ablation on the {n}x{n} PGAS (the Table VII causal story)",
        ["I$ KB", "LiveSim I$ MPKI", "Verilator I$ MPKI",
         "LiveSim IPC", "Verilator IPC"],
        rows,
    ))
    # LiveSim's shared code fits everywhere: flat, near-zero MPKI.
    assert all(live < 1.0 for live, _ in mpki.values())
    # The baseline thrashes a 32 KB I$ but is rescued by a big one —
    # cache capacity is the mechanism, exactly as the paper argues.
    assert mpki[32][1] > 20.0
    assert mpki[1024][1] < mpki[32][1] / 10


def test_bench_perf_model_eval(benchmark, sizes):
    n = min(sizes[-1], 4)
    live_cost, _ = _costs(n)
    model = PerfModel()
    result = benchmark(lambda: model.evaluate(live_cost, trace_cycles=3))
    assert result.khz > 0
