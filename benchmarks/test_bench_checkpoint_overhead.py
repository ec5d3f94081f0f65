"""§V-B: checkpointing overhead.

The paper measures 10-20% simulation slowdown with checkpointing on,
and a <3 MB checkpoint for the 256-core PGAS.  We measure the same two
quantities on this substrate.
"""


import statistics
from time import perf_counter

import pytest

from repro import obs
from repro.bench.figures import checkpoint_overhead
from repro.bench.reporting import format_table
from repro.bench.workloads import PGASWorkbench
from repro.live.checkpoint import CheckpointStore
from repro.sim import Pipe, stage

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
            result.heap_bytes,
        ])
    emit(format_table(
        "§V-B — checkpointing overhead (paper: 10-20 %)",
        ["cores", "Hz (off)", "Hz (on)", "overhead %", "taken",
         "bytes/checkpoint", "resident B/checkpoint", "heap B/checkpoint"],
        rows,
        row_labels=[f"{n}x{n}" for n in sizes[:2]],
    ))
    for row in rows:
        assert row[3] < 100  # bounded overhead
        # Pages an interval did not write are shared, never copied.
        assert 0 < row[6] < row[5]
        # What a take keeps is objects as well as words.
        assert row[7] > 0


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


# The parts of a take, in the order the split prints them.
PARTS = ("pages", "registers", "records", "obs span", "store")


def _timed(fn, part, spent):
    def timed(*args):
        started = perf_counter()
        try:
            return fn(*args)
        finally:
            spent[part] = spent.get(part, 0.0) + perf_counter() - started
    return timed


def _register_compare(inst, record):
    """What a take spends on register tuples: build each instance's and
    compare it with the base's (timed apart, on the same state)."""
    started = perf_counter()
    stack = [(inst, record)]
    while stack:
        inst, record = stack.pop()
        tuple(inst.state[: inst.code.num_regs]) == record.values
        stack.extend(zip(inst.children, record.children))
    return perf_counter() - started


def _marked_pages(pipe):
    """The pages a take against the capture before compares: each
    memory's marked pages, and a memory of one page whole."""
    return sum(
        len(inst.state[spec.marks_slot]) if spec.marks_slot >= 0 else 1
        for _, inst in pipe.top.walk() for spec in inst.code.mem_order
    )


def take_split(n, takes=20, interval=25):
    """The first (baseless) take and the median parts of a steady-state
    take one ``interval`` after the one before, in microseconds, and the
    pages each steady-state take compared and had marked."""
    bench = PGASWorkbench(n, checkpoint_interval=1_000_000)
    session = bench.build_session()
    pipe, store = session.pipe("uut"), session.store("uut")
    metrics = obs.get_metrics()
    try:
        bench.run(50)
        started = perf_counter()
        store.take(pipe, "1.0", 0)
        first = perf_counter() - started
        parts = {part: [] for part in ("take",) + PARTS}
        compared, marked = [], []
        spent = {}
        with pytest.MonkeyPatch.context() as patched:
            for owner, name, part in (
                (stage, "_capture", "pages"), (Pipe, "snapshot", "snapshot"),
                (CheckpointStore, "_insert", "store"), (CheckpointStore, "gc", "store"),
            ):
                patched.setattr(owner, name, _timed(getattr(owner, name), part, spent))
            for _ in range(takes):
                bench.run(interval)
                marked.append(_marked_pages(pipe))
                spent.clear()
                before = metrics.counter("checkpoint.pages_compared")
                started = perf_counter()
                store.take(pipe, "1.0", 0)
                total = perf_counter() - started
                compared.append(metrics.counter("checkpoint.pages_compared") - before)
                registers = _register_compare(pipe.top, store.all()[-2].snapshot.state)
                parts["take"].append(total)
                parts["pages"].append(spent.get("pages", 0.0))
                parts["registers"].append(registers)
                parts["records"].append(spent["snapshot"] - spent.get("pages", 0.0) - registers)
                parts["store"].append(spent.get("store", 0.0))
                parts["obs span"].append(total - spent["snapshot"] - spent.get("store", 0.0))
    finally:
        session.close()
    split = {part: 1e6 * statistics.median(values) for part, values in parts.items()}
    split["first take"] = 1e6 * first
    return split, compared, marked


def test_a_steady_take_compares_only_the_pages_its_interval_marked(benchmark, sizes):
    """§V-B's take, split into its parts (the sum of the parts is the
    median take, the timers around them included), and the exact count:
    a take one interval after the one before compares the pages the
    interval wrote, and nothing else."""
    splits = benchmark.pedantic(
        lambda: [take_split(n) for n in sizes[:2]], rounds=1, iterations=1,
    )
    columns = ("first take", "take") + PARTS
    emit(format_table(
        "§V-B — one steady-state take (interval 25), median us",
        list(columns) + ["pages compared"],
        [[round(split[c], 1) for c in columns] + [statistics.median(compared)]
         for split, compared, _ in splits],
        row_labels=[f"{n}x{n}" for n in sizes[:2]],
    ))
    for _, compared, marked in splits:
        assert compared == marked
