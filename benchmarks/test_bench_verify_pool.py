"""Fig. 6: checkpoint-delta consistency verification, in process and
on the session-owned :class:`~repro.live.consistency.VerifierPool`.

On the pool the first verify pays one design compile per worker, the
second compiles nothing, and the one after a single-stage edit
recompiles that stage in each worker — the steady state of a live
session.
"""

import os

import pytest

from repro.bench.figures import verify_pool_scaling
from repro.bench.reporting import format_table
from repro.live.session import LiveSession
from repro.riscv import build_pgas_source
from repro.riscv.patches import get_patch
from repro.riscv.programs import boot_program, boot_program_spec, busy_counter

from .conftest import emit


def _emit_scaling(result) -> None:
    rows = [["serial", round(result.serial_wall_s, 3)] + [None] * 4]
    for workers in sorted(result.warm_wall_s):
        rows.append([
            workers,
            round(result.cold_wall_s[workers], 3),
            round(result.warm_wall_s[workers], 3),
            round(result.after_edit_wall_s[workers], 3),
            result.after_edit_worker_modules[workers],
            round(result.speedup(workers) or 0.0, 2),
        ])
    emit(format_table(
        "Fig. 6 — verification wall time vs workers "
        f"({result.segments} segments, persistent pool)",
        ["cold s", "warm s", "after-edit s", "modules/worker",
         "warm speedup"],
        [row[1:] for row in rows],
        row_labels=[str(row[0]) for row in rows],
    ))


def test_verify_pool_speedup(benchmark):
    """4 workers on >= 8 segments must beat serial wall time once the
    workers are warm.

    Segments are 240 cycles each so per-segment replay work dominates
    the per-future IPC cost (snapshot pickling) — with 40-cycle
    segments the overhead can mask the parallel win.
    """
    if (os.cpu_count() or 1) < 4:
        pytest.skip("needs >= 4 cores for the 4-worker point")
    result = benchmark.pedantic(
        lambda: verify_pool_scaling(
            n=1, run_cycles=1920, interval=240, worker_counts=(4,)
        ),
        rounds=1, iterations=1,
    )
    _emit_scaling(result)
    assert result.all_consistent
    for workers in worker_counts:
        assert result.warm_modules[workers] == 0
        assert (
            result.after_edit_worker_modules[workers]
            <= result.edit_modules[workers]
        )
    assert result.segments >= 8
    # The warm pass compiled nothing; the edit, one module per worker.
    assert result.warm_modules[4] == 0
    assert result.after_edit_worker_modules[4] <= result.edit_modules[4]
    assert result.warm_wall_s[4] < result.serial_wall_s


def test_verify_pool_scaling_report(benchmark):
    worker_counts = (2, 4) if (os.cpu_count() or 1) >= 4 else (2,)
    result = benchmark.pedantic(
        lambda: verify_pool_scaling(
            n=1, run_cycles=320, interval=40, worker_counts=worker_counts
        ),
        rounds=1, iterations=1,
    )
    _emit_scaling(result)
    assert result.all_consistent
    for workers in worker_counts:
        assert result.warm_modules[workers] == 0
        assert (
            result.after_edit_worker_modules[workers]
            <= result.edit_modules[workers]
        )


def test_bench_serial_verification(benchmark):
    asm = busy_counter(10_000_000)
    session = LiveSession(build_pgas_source(1), checkpoint_interval=40)
    session.inst_pipe("uut", session.stage_handle_for("pgas_mesh_1x1"))
    tb = session.load_testbench(
        boot_program(asm, count=1), factory=boot_program_spec(asm, count=1)
    )
    session.run(tb, "uut", 300)

    def verify():
        return session.verify_consistency("uut", workers=1)

    report = benchmark.pedantic(verify, rounds=2, iterations=1)
    assert report.all_consistent


def test_bench_repair_after_divergence(benchmark):
    """The §III-F recovery path: find the divergence, rebuild history."""
    countdown = """
    li   s0, 1000000
loop:
    addi s0, s0, -1
    sd   s0, 0x200(zero)
    bnez s0, loop
    ecall
"""

    def diverge_and_repair():
        buggy = get_patch("id-imm-sign").inject(build_pgas_source(1))
        session = LiveSession(buggy, checkpoint_interval=40)
        session.inst_pipe("uut", session.stage_handle_for("pgas_mesh_1x1"))
        tb = session.load_testbench(
            boot_program(countdown, count=1),
            factory=boot_program_spec(countdown, count=1),
        )
        session.run(tb, "uut", 200)
        session.apply_change(
            get_patch("id-imm-sign").fix(session.compiler.source)
        )
        return session.verify_consistency("uut", repair=True)

    report = benchmark.pedantic(diverge_and_repair, rounds=2, iterations=1)
    assert not report.all_consistent  # divergence was found (then fixed)
