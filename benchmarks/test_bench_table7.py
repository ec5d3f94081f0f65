"""Table VII: KHz / IPC / I$ MPKI / D$ MPKI / BR MPKI per size and
compilation style, via the host performance model."""


from repro.baseline import BaselineCompiler
from repro.bench.reporting import format_table
from repro.bench.tables import census_cost, table7, table7_formatted_rows
from repro.hdl import elaborate, parse
from repro.hostmodel.trace import TraceSynthesizer
from repro.passes import compile_netlist
from repro.riscv.pgas import build_pgas_source, mesh_top_name

from .conftest import emit


def test_table7_report(benchmark, sizes):
    rows = benchmark.pedantic(
        lambda: table7(sizes=list(sizes), trace_cycles=5,
                       verilator_na_at=16),
        rounds=1, iterations=1,
    )
    columns, body = table7_formatted_rows(rows)
    emit(format_table(
        "Table VII — simulation efficiency (host model, calibrated to "
        "the paper's 1x1 LiveSim = 1974 KHz)",
        columns,
        body,
        row_labels=["KHz", "IPC", "I$ MPKI", "D$ MPKI", "BR MPKI"],
    ))
    by_n = {r.n: r for r in rows}
    smallest, largest = sizes[0], sizes[-1]
    # The paper's qualitative claims, but for Verilator's lead at the
    # smallest size: the replicated code executes more instructions per
    # cycle at every size here (EXPERIMENTS.md, Table VII).
    for row in rows:
        if row.verilator is not None:
            assert (row.verilator.instructions_per_cycle
                    > row.livesim.instructions_per_cycle)
    if largest >= 4 and by_n[largest].verilator is not None:
        assert by_n[largest].livesim.khz > by_n[largest].verilator.khz
        assert by_n[largest].verilator.i_mpki > 10.0
        assert by_n[largest].livesim.i_mpki < 1.0


def test_bench_trace_synthesis(benchmark, sizes):
    n = sizes[-1]
    netlist = elaborate(parse(build_pgas_source(n)), mesh_top_name(n))
    cost = census_cost(compile_netlist(netlist), netlist.top, n, 4)

    def run_trace():
        return TraceSynthesizer(cost).run(cycles=4, warmup=1)

    stats = benchmark.pedantic(run_trace, rounds=2, iterations=1)
    assert stats.instructions > 0


def test_bench_census_cost(benchmark, sizes):
    n = min(sizes[-1], 8)
    netlist = elaborate(parse(build_pgas_source(n)), mesh_top_name(n))
    shared = compile_netlist(netlist)
    baseline = BaselineCompiler(mode="replicate").compile(netlist)

    def both_libraries():
        return (census_cost(shared, netlist.top, n, 4),
                census_cost(baseline.library, baseline.top_key, n, 4))

    live, veri = benchmark.pedantic(both_libraries, rounds=1, iterations=1)
    # Code-footprint law: shared once vs replicated per instance.
    assert veri.code_bytes > live.code_bytes
