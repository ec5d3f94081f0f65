#!/usr/bin/env python3
"""Regenerate every table and figure from the paper's evaluation.

Prints Table VII, Table VIII, Figure 7, Figure 8, the §V-B checkpoint
overhead, and the Fig. 6 consistency-scaling measurement.  This is the
same machinery the benchmark suite drives; see EXPERIMENTS.md for the
paper-vs-measured comparison.

Run:  python examples/paper_artifacts.py [sizes]
      python examples/paper_artifacts.py 1,2,4,8      # bigger sweep
"""

import sys

from repro.bench.figures import (
    checkpoint_overhead,
    fig7_crossover_kilocycles,
    fig7_series,
    fig8_bars,
    verify_pool_scaling,
)
from repro.bench.reporting import format_series, format_table
from repro.bench.tables import table7, table7_formatted_rows, table8
from repro.bench.workloads import collect_sizes


def main() -> None:
    sizes = tuple(
        int(x) for x in (sys.argv[1] if len(sys.argv) > 1 else "1,2,4").split(",")
    )
    print(f"sweeping mesh sizes {sizes} (this compiles and simulates "
          "every design twice — LiveSim and the baseline)...\n")
    results = collect_sizes(sizes=sizes, sim_cycles=80,
                            baseline_budget_s=30.0)

    # ---- Table VII ------------------------------------------------------
    rows = table7(sizes=list(sizes), trace_cycles=5)
    columns, body = table7_formatted_rows(rows)
    print(format_table(
        "Table VII — simulation efficiency (host model)",
        columns, body,
        row_labels=["KHz", "IPC", "I$ MPKI", "D$ MPKI", "BR MPKI"],
    ))

    # ---- Table VIII -----------------------------------------------------
    t8 = table8(results)
    print("\n" + format_table(
        "Table VIII — compilation time (s); NA = budget exceeded",
        [f"{r.n}x{r.n}" for r in t8],
        [
            [round(r.hot_reload_s, 3) if r.hot_reload_s else None for r in t8],
            [round(r.livesim_full_s, 3) for r in t8],
            [round(r.verilator_s, 3) if r.verilator_s is not None else None
             for r in t8],
        ],
        row_labels=["LiveSim Hot Reload", "LiveSim Full", "Verilator"],
    ))

    # ---- Figure 7 -------------------------------------------------------
    series = fig7_series(results, table7_rows=rows)
    marks = [1, 100, 10_000, 76_000, 1_000_000]
    print("\n" + format_series(
        "Figure 7 — seconds to reach N kilocycles/core",
        {s.label: s.points(marks) for s in series},
        x_label="kc/core", y_label="s",
    ))
    live = next(s for s in series if "full simulation" in s.label)
    veri = next(s for s in series if s.label.startswith("Verilator"))
    crossing = fig7_crossover_kilocycles(live, veri)
    if crossing:
        ahead, behind = (("the baseline", "LiveSim") if veri.khz > live.khz
                         else ("LiveSim", "the baseline"))
        print(f"\n1x1 crossover: {ahead} passes {behind} after "
              f"{crossing:,.0f} kilocycles "
              "(paper: the baseline passes LiveSim after 76,000 kilocycles"
              " = 76M cycles)")

    # ---- Figure 8 -------------------------------------------------------
    bars = fig8_bars(results)
    print("\n" + format_table(
        "Figure 8 — hot-reload ERD latency (ms)",
        ["cores", "parse", "compile", "swap", "reload", "replay", "total"],
        [
            [b.cores] + [round(1e3 * v, 1) for v in
                         (b.parse_s, b.compile_s, b.swap_s, b.reload_s,
                          b.replay_s, b.total_s)]
            for b in bars
        ],
        row_labels=[f"{b.n}x{b.n}" for b in bars],
    ))
    print("all sizes under the 2 s goal: "
          f"{all(b.under_two_seconds for b in bars)}")

    # ---- §V-B -----------------------------------------------------------
    overhead = checkpoint_overhead(n=sizes[0], cycles=300, interval=25)
    print(f"\n§V-B checkpointing overhead at {sizes[0]}x{sizes[0]}: "
          f"{overhead.overhead_percent:.1f}% "
          f"({overhead.checkpoints_taken} checkpoints, "
          f"{overhead.checkpoint_bytes / 1e3:.0f} KB each; paper: 10-20%)")

    # ---- Figure 6 -------------------------------------------------------
    scaling = verify_pool_scaling(n=sizes[0], run_cycles=300, interval=30,
                                  worker_counts=(2,))
    rows6 = [["serial", round(scaling.serial_wall_s, 3), None, None]] + [
        [w, round(scaling.cold_wall_s[w], 3), round(scaling.warm_wall_s[w], 3),
         round(scaling.after_edit_wall_s[w], 3)]
        for w in sorted(scaling.warm_wall_s)
    ]
    print("\n" + format_table(
        f"Figure 6 — consistency verification ({scaling.checkpoints} "
        "checkpoints, persistent pool)",
        ["cold s", "warm s", "after-edit s"],
        [row[1:] for row in rows6],
        row_labels=[str(row[0]) for row in rows6],
    ))


if __name__ == "__main__":
    main()
