"""Fig. 4 ablation: the three compilation models side by side.

Shared objects (LiveSim, 4d) vs per-instance replication (4c) vs full
inlining (4b): compile time, generated-code footprint, and raw Python
simulation speed for each, plus the mux-lowering ablation
(branch vs select) the paper's §V-A discusses.
"""

import time


from repro.baseline import BaselineCompiler
from repro.bench.reporting import format_table
from repro.codegen.flatgen import compile_flat
from repro.hdl import elaborate, parse
from repro.passes import compile_netlist
from repro.riscv.pgas import build_pgas_source, mesh_top_name
from repro.riscv.programs import busy_counter, load_same_program
from repro.sim import Pipe

from .conftest import emit


def _measure_speed(pipe, n, cycles=120):
    load_same_program(pipe, n * n, busy_counter(10_000_000))
    pipe.set_inputs(rst=1)
    pipe.step(2)
    pipe.set_inputs(rst=0)
    pipe.step(5)
    started = time.perf_counter()
    pipe.step(cycles)
    return cycles / (time.perf_counter() - started)


def test_codegen_ablation_report(benchmark, sizes):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    n = min(sizes[-1], 4)
    source = build_pgas_source(n)
    rows = []

    netlist = elaborate(parse(source), mesh_top_name(n))
    started = time.perf_counter()
    shared = compile_netlist(netlist)
    shared_compile = time.perf_counter() - started
    shared_bytes = sum(len(m.source) for m in shared.values())
    shared_pipe = Pipe(netlist.top, shared)
    rows.append(["shared (4d/LiveSim)", round(shared_compile, 3),
                 shared_bytes, round(_measure_speed(shared_pipe, n))])

    netlist2 = elaborate(parse(source), mesh_top_name(n))
    replicated = BaselineCompiler(mode="replicate",
                                  budget_seconds=120).compile(netlist2)
    rpipe = replicated.make_pipe()
    rows.append(["replicated (4c)", round(replicated.compile_seconds, 3),
                 replicated.total_code_bytes(),
                 round(_measure_speed(rpipe, n))])

    netlist3 = elaborate(parse(source), mesh_top_name(n))
    started = time.perf_counter()
    flat = compile_flat(netlist3, budget_seconds=300)
    flat_compile = time.perf_counter() - started
    fpipe = Pipe(flat.key, {flat.key: flat})
    # Flat pipe has no hierarchical find(); load via mem_specs.
    from repro.riscv.assembler import assemble

    words = assemble(busy_counter(10_000_000)).as_mem64(4096)
    for i in range(n * n):
        spec = flat.mem_specs[f"n_{i}.u_mem.mem"]
        fpipe.top.state[spec.slot][0 : len(words)] = words
    fpipe.invalidate()
    fpipe.set_inputs(rst=1)
    fpipe.step(2)
    fpipe.set_inputs(rst=0)
    fpipe.step(5)
    started = time.perf_counter()
    fpipe.step(120)
    flat_hz = 120 / (time.perf_counter() - started)
    rows.append(["inlined (4b)", round(flat_compile, 3), len(flat.source),
                 round(flat_hz)])

    emit(format_table(
        f"Figure 4 ablation — compilation models on the {n}x{n} PGAS",
        ["model", "compile s", "generated bytes", "substrate Hz"],
        rows,
    ))
    # The footprint law the whole paper rests on:
    assert rows[1][2] > 2 * rows[0][2]  # replication >> sharing


def test_mux_style_ablation_report(benchmark, sizes):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    """§V-A: branch-style vs select-style mux lowering."""
    from repro.codegen.cost import design_cost

    n = min(sizes[-1], 4)
    netlist = elaborate(parse(build_pgas_source(n)), mesh_top_name(n))
    branch = design_cost(netlist, "branch")
    select = design_cost(netlist, "select")
    emit(format_table(
        f"Mux lowering ablation ({n}x{n})",
        ["branches/cycle", "loads/cycle", "instructions/cycle"],
        [
            [round(branch.branches), round(branch.loads),
             round(branch.instructions)],
            [round(select.branches), round(select.loads),
             round(select.instructions)],
        ],
        row_labels=["branch (LiveSim)", "select (Verilator)"],
    ))
    # Paper: branch style trades branches for data traffic.
    assert branch.branches > select.branches
    assert branch.loads <= select.loads


def test_bench_shared_compile(benchmark, sizes):
    n = min(sizes[-1], 4)
    netlist = elaborate(parse(build_pgas_source(n)), mesh_top_name(n))
    library = benchmark(lambda: compile_netlist(netlist))
    assert len(library) == 10
