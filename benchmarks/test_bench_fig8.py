"""Figure 8: hot-reload ERD latency per mesh size.

The paper's claim: under 2 seconds for every size up to 16x16 (256
cores), flat in the instance count because parse+compile dominate and
happen once.  The benchmarked operation is a complete apply_change —
LiveParser -> LiveCompiler -> swap every instance -> checkpoint reload
-> replay.
"""

import itertools


from repro.bench.figures import fig8_bars
from repro.bench.reporting import format_table
from repro.bench.workloads import PGASWorkbench
from repro.riscv.patches import single_stage_patches

from .conftest import emit


def test_fig8_report(benchmark, size_results):
    bars = benchmark.pedantic(
        lambda: fig8_bars(size_results), rounds=1, iterations=1
    )
    emit(format_table(
        "Figure 8 — edit-run-debug latency per mesh size (ms)",
        ["cores", "parse", "compile", "analyze", "swap", "reload", "replay",
         "total", "swapped insts"],
        [
            [
                bar.cores,
                round(1e3 * bar.parse_s, 1),
                round(1e3 * bar.compile_s, 1),
                round(1e3 * bar.analyze_s, 1),
                round(1e3 * bar.swap_s, 1),
                round(1e3 * bar.reload_s, 1),
                round(1e3 * bar.replay_s, 1),
                round(1e3 * bar.total_s, 1),
                bar.swapped_instances,
            ]
            for bar in bars
        ],
        row_labels=[f"{bar.n}x{bar.n}" for bar in bars],
    ))
    for bar in bars:
        assert bar.under_two_seconds, (
            f"{bar.n}x{bar.n} ERD {bar.total_s:.2f}s breaks the 2 s goal"
        )


def test_bench_erd_loop(benchmark, sizes):
    """Benchmark one full ERD iteration at the largest size, cycling
    through the curated single-stage bug patches (each round applies a
    never-before-seen edit, like the paper's git-log bug fixes)."""
    n = sizes[-1]
    bench = PGASWorkbench(n, checkpoint_interval=50)
    bench.build_session()
    bench.run(160)
    patches = itertools.cycle(p.name for p in single_stage_patches())

    def erd_once():
        return bench.hot_reload(next(patches))

    report = benchmark.pedantic(erd_once, rounds=4, iterations=1)
    assert report.total_seconds < 2.0


def test_bench_swap_only(benchmark, sizes):
    """Isolate the swap cost (paper: 'the cost of copying that, even
    256 times, is still eclipsed by other parts')."""
    from repro.live.hotreload import HotReloader
    from repro.riscv.patches import get_patch

    n = sizes[-1]
    bench = PGASWorkbench(n, checkpoint_interval=50)
    session = bench.build_session()
    bench.run(60)
    pipe = session.pipe("uut")
    patch = get_patch("ex-branch-target")
    variants = []
    for source in (patch.inject(session.compiler.source),
                   session.compiler.source):
        session.compiler.update_source(source)
        variants.append(session.compiler.compile_top(bench.top).library)
    flip = itertools.cycle(variants)

    def swap_once():
        return HotReloader().swap_pipe(pipe, next(flip))

    report = benchmark.pedantic(swap_once, rounds=6, iterations=1)
    assert report.seconds < 1.0
