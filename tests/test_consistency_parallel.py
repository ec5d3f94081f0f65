"""Consistency verification on the persistent pool (Fig. 6's scaling
story).

Workers rebuild the simulator from a picklable WorkerContext (source,
top, build flavour, testbench factory specs): each keeps one
LiveCompiler that follows the session's text, and pulls segments as it
goes idle.
"""

import pickle
import sys
import threading

import pytest

from repro import obs
from repro.live.consistency import _pool_verify_segment, make_segments
from repro.live.session import LiveSession
from repro.riscv import build_pgas_source
from repro.riscv.patches import get_patch
from repro.riscv.programs import boot_program, boot_program_spec

# Counts DOWN via `addi s0, s0, -1` — sensitive to the id-imm-sign bug,
# so buggy-design checkpoints diverge from fixed-design replay.
ASM = """
    li   s0, 1000000
loop:
    addi s0, s0, -1
    sd   s0, 0x200(zero)
    bnez s0, loop
    ecall
"""


def make_session(source=None):
    session = LiveSession(
        source or build_pgas_source(1),
        checkpoint_interval=40,
        reload_distance=50,
    )
    session.inst_pipe("uut", session.stage_handle_for("pgas_mesh_1x1"))
    tb = session.load_testbench(
        boot_program(ASM, count=1), factory=boot_program_spec(ASM, count=1)
    )
    session.run(tb, "uut", 170)
    return session, tb


@pytest.mark.slow
class TestParallelVerification:
    def test_parallel_matches_serial_consistent(self):
        session, _ = make_session()
        try:
            serial = session.verify_consistency("uut", workers=1)
            parallel = session.verify_consistency("uut", workers=2)
            assert serial.all_consistent
            assert parallel.all_consistent
            assert len(parallel.segments) == len(serial.segments)
            assert parallel.workers == 2
        finally:
            session.close()

    def test_parallel_finds_divergence(self):
        buggy = get_patch("id-imm-sign").inject(build_pgas_source(1))
        session, _ = make_session(buggy)
        try:
            session.apply_change(get_patch("id-imm-sign").fix(buggy))
            parallel = session.verify_consistency("uut", workers=2)
            assert not parallel.all_consistent
            assert parallel.divergence_cycle == 0
        finally:
            session.close()

    def test_missing_factory_falls_back_to_serial(self):
        session = LiveSession(build_pgas_source(1), checkpoint_interval=40)
        session.inst_pipe("uut", session.stage_handle_for("pgas_mesh_1x1"))
        tb = session.load_testbench(boot_program(ASM, count=1))  # no factory
        session.run(tb, "uut", 90)
        report = session.verify_consistency("uut", workers=4)
        assert report.workers == 1  # graceful fallback
        assert report.all_consistent

    def test_workers_exceed_segments(self):
        # More workers than segments: dynamic scheduling leaves the
        # surplus idle, and every result still carries a valid dense
        # worker index (the old batch splitter attributed by batch
        # position, which broke down here).
        session, _ = make_session()
        try:
            report = session.verify_consistency("uut", workers=6)
            assert report.all_consistent
            assert 1 <= len(report.segments) < 6
            used = {s.worker for s in report.segments}
            assert all(w >= 0 for w in used)
            assert len(used) <= len(report.segments)
        finally:
            session.close()

    def test_warm_pool_compiles_once_per_worker(self):
        # Verifying twice against an unchanged design must compile the
        # design exactly once per worker: on the second pass every
        # worker's compiler already holds it.
        session, _ = make_session()
        try:
            metrics = obs.get_metrics()
            compiles0 = metrics.counter("consistency.worker_compiles")
            hits0 = metrics.counter("consistency.worker_cache_hits")
            first = session.verify_consistency("uut", workers=2)
            second = session.verify_consistency("uut", workers=2)
            assert first.all_consistent and second.all_consistent
            used = {s.worker for s in first.segments}
            used |= {s.worker for s in second.segments}
            total_compiles = (
                metrics.counter("consistency.worker_compiles") - compiles0
            )
            assert total_compiles == len(used)
            assert total_compiles <= 2
            # Every other segment was a cache hit.
            total_segments = len(first.segments) + len(second.segments)
            hits = metrics.counter("consistency.worker_cache_hits") - hits0
            assert hits == total_segments - total_compiles
        finally:
            session.close()

    def test_one_module_edit_recompiles_one_module_per_worker(self):
        # Edit then verify, the live loop's own sequence: a warm
        # worker's compiler follows the session's one-module edit and
        # recompiles that module, not the design.
        session, _ = make_session()
        try:
            metrics = obs.get_metrics()
            cold = session.verify_consistency("uut", workers=2)
            warm_workers = {s.worker for s in cold.segments}
            assert all(
                sum(s.modules_compiled for s in cold.segments
                    if s.worker == w) > 1
                for w in warm_workers
            )
            erd = session.apply_change(
                get_patch("id-imm-sign").inject(session.compiler.source)
            )
            assert erd.recompiled_keys == ["rv_id"]
            before = metrics.counter("consistency.worker_modules_compiled")
            after = session.verify_consistency("uut", workers=2)
            ran = {s.worker for s in after.segments} & warm_workers
            assert ran
            for worker in ran:
                assert sum(
                    s.modules_compiled for s in after.segments
                    if s.worker == worker
                ) == 1
            assert metrics.counter(
                "consistency.worker_modules_compiled"
            ) - before == sum(s.modules_compiled for s in after.segments)
        finally:
            session.close()


class TestWorkerDesignUnderThreads:
    """Where the pool runs on threads (a daemonic server worker) every
    thread shares the process's one compiler.  More threads than cores,
    two designs taking turns: a segment must always replay on the
    library of the design it was submitted with."""

    def test_interleaved_designs_never_cross(self, monkeypatch):
        from repro.live import consistency
        from repro.sim.testbench import reset_sequence
        from tests.conftest import COUNTER_SRC

        # This process plays the worker: on state of its own, which
        # pools forked by later tests must not inherit warm.
        monkeypatch.setattr(
            consistency, "_WORKER_DESIGN", consistency._WorkerDesign()
        )
        monkeypatch.setattr(consistency, "_WORKER_TESTBENCHES", {})

        edited = COUNTER_SRC.replace(
            "assign sum = a + b;", "assign sum = a + b + 8'd1;"
        )
        spec = ("repro.sim.testbench:reset_sequence",
                {"reset_name": "rst", "cycles": 2})
        payloads = []
        for source in (COUNTER_SRC, edited):
            session = LiveSession(source, checkpoint_interval=10)
            session.inst_pipe("p0", session.stage_handle_for("top"))
            tb = session.load_testbench(reset_sequence("rst", 2), spec)
            session.run(tb, "p0", 25)
            timeline = session.timeline("p0")
            segments, _ = make_segments(timeline.store.all(), timeline.ops)
            payloads.append((
                pickle.dumps(session._worker_context(timeline)),
                pickle.dumps(timeline.ops),
                [pickle.dumps(segment) for segment in segments],
            ))
        verdicts, failures = [], []

        def work(start):
            try:
                for i in range(start, start + 12):
                    context, ops, segments = payloads[i % 2]
                    result, _ = _pool_verify_segment(
                        context, ops, segments[i % len(segments)]
                    )
                    verdicts.append(result.consistent)
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(n,)) for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert verdicts == [True] * (8 * 12)


def test_recorded_ops_share_the_handle_and_reach_the_pool():
    """A ``run`` line records the registered handle string (the
    interpreter makes a new one per line) in a named tuple op, which
    pickles to the pool as it is."""
    from repro.live.commands import CommandInterpreter

    session, tb = make_session()
    try:
        commands = CommandInterpreter(session)
        for _ in range(3):
            commands.execute(f"run {tb}, uut, 10")
        ops = session.ops("uut")
        assert len(ops) == 4
        assert all(op.tb_handle is tb for op in ops)
        assert pickle.loads(pickle.dumps(ops)) == ops
        assert session.verify_consistency("uut", workers=2).all_consistent
    finally:
        session.close()
