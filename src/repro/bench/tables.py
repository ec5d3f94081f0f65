"""Generators for the paper's tables (VII and VIII)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..codegen.cost import design_cost
from ..hdl.elaborate import elaborate
from ..hdl.parser import parse
from ..hostmodel.perf import HostMachine, PerfModel, PerfResult
from ..riscv.pgas import build_pgas_source, mesh_top_name
from .workloads import SizeResult

# Paper Table VII anchor: LiveSim on the 1x1 PGAS measured 1974 KHz.
PAPER_1X1_LIVESIM_KHZ = 1974.0

TABLE7_METRICS = ("KHz", "IPC", "I$ MPKI", "D$ MPKI", "BR MPKI")


@dataclass
class Table7Row:
    """One Table VII row: host counters for LiveSim and the baseline."""
    n: int
    livesim: PerfResult
    verilator: Optional[PerfResult]  # None => NA (didn't compile)


def table7(
    sizes: Sequence[int] = (1, 2, 4, 8, 16),
    trace_cycles: int = 6,
    verilator_na_at: int = 16,
    machine: HostMachine = HostMachine(),
) -> List[Table7Row]:
    """Regenerate Table VII through the host model.

    ``verilator_na_at``: mesh size at/above which the baseline is
    reported NA (its compile exceeds any budget — paper: the 16x16
    never compiled in 24 h).
    """
    costs = {}
    for n in sizes:
        netlist = elaborate(parse(build_pgas_source(n)), mesh_top_name(n))
        costs[n] = {
            "livesim": design_cost(netlist, "branch"),
            "verilator": design_cost(netlist, "select"),
        }
    model = PerfModel(machine).calibrated(
        costs[sizes[0]]["livesim"], PAPER_1X1_LIVESIM_KHZ,
        trace_cycles=trace_cycles,
    )
    rows = []
    for n in sizes:
        livesim = model.evaluate(
            costs[n]["livesim"], trace_cycles=trace_cycles, cores=n * n
        )
        verilator = None
        if n < verilator_na_at:
            verilator = model.evaluate(
                costs[n]["verilator"], trace_cycles=trace_cycles, cores=n * n
            )
        rows.append(Table7Row(n=n, livesim=livesim, verilator=verilator))
    return rows


def table7_formatted_rows(rows: List[Table7Row]) -> Tuple[List[str], List[list]]:
    columns = []
    for row in rows:
        columns.append(f"{row.n}x{row.n} LiveSim")
        columns.append(f"{row.n}x{row.n} Verilator")
    body = []
    for metric in TABLE7_METRICS:
        line: list = []
        for row in rows:
            live = row.livesim.row()[metric]
            veri = row.verilator.row()[metric] if row.verilator else None
            line.extend([live, veri])
        body.append(line)
    return columns, body


@dataclass
class Table8Row:
    """One Table VIII row: hot reload against a full rebuild."""
    n: int
    hot_reload_s: Optional[float]
    livesim_full_s: float
    verilator_s: Optional[float]  # None => NA


def table8(results: Sequence[SizeResult]) -> List[Table8Row]:
    """Regenerate Table VIII from measured workbench results."""
    return [
        Table8Row(
            n=r.n,
            hot_reload_s=r.livesim_hot_reload_s,
            livesim_full_s=r.livesim_full_compile_s,
            verilator_s=r.baseline_compile_s,
        )
        for r in results
    ]


ERD_PHASES = ("parse", "compile", "analyze", "swap", "reload", "replay")


def erd_phase_rows(
    reports: Sequence[Tuple[str, "object"]],
) -> Tuple[List[str], List[list], List[str]]:
    """Phase-breakdown table data for labelled ERD reports.

    ``reports`` is ``[(label, ERDReport), ...]``; returns ``(columns,
    rows, row_labels)`` for :func:`repro.bench.reporting.format_table`
    — one row per edit, one column per live-loop phase (milliseconds)
    plus the total.  This is the Fig. 8 stacked bar as a table.
    """
    columns = [f"{phase} ms" for phase in ERD_PHASES] + ["total ms"]
    rows: List[list] = []
    labels: List[str] = []
    for label, report in reports:
        labels.append(label)
        rows.append([
            getattr(report, f"{phase}_seconds") * 1e3
            for phase in ERD_PHASES
        ] + [report.total_seconds * 1e3])
    return columns, rows, labels


def table8_shape_checks(rows: List[Table8Row]) -> Dict[str, bool]:
    """The qualitative claims Table VIII makes (used by tests and
    EXPERIMENTS.md):

    * hot reload stays under the 2 s goal at every size, and grows far
      more slowly than the instance count (in this substrate the
      residual growth is replay — Python simulation of more cores —
      while the compile+swap work is constant, as the paper argues);
    * LiveSim full compile grows with size but stays well under the
      baseline;
    * the baseline grows faster than LiveSim full and eventually NA.
    """
    checks: Dict[str, bool] = {}
    reloads = [
        (r.n * r.n, r.hot_reload_s)
        for r in rows
        if r.hot_reload_s is not None
    ]
    if len(reloads) >= 2:
        checks["hot_reload_under_2s"] = all(s < 2.0 for _, s in reloads)
        (c0, s0), (c1, s1) = reloads[0], reloads[-1]
        core_growth = c1 / max(c0, 1)
        time_growth = s1 / max(s0, 1e-9)
        checks["hot_reload_sublinear"] = time_growth <= max(
            core_growth / 4, 5.0
        )
    fulls = [r.livesim_full_s for r in rows]
    checks["full_compile_grows"] = fulls == sorted(fulls) or (
        fulls[-1] >= fulls[0]
    )
    pairs = [
        (r.livesim_full_s, r.verilator_s)
        for r in rows
        if r.verilator_s is not None
    ]
    if pairs:
        checks["baseline_slower_at_largest"] = pairs[-1][1] > pairs[-1][0]
    return checks
