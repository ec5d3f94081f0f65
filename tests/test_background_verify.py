"""Background verification (§III-F: "re-verified in the background").

The slow classes drive real worker pools on the PGAS mesh: session
commands must keep running while a verify is in flight, a superseding
edit must cancel pending segments, a divergence must invalidate the
checkpoints past the divergence cycle, and the one verification path
must say the same thing about the same history wherever its segments
run and whether or not the caller waits.  The cheap classes cover the
``verify``/``verifyStatus``/``verifyWait``/``peek`` command plumbing
and the verdicts over the counter design.
"""

import pytest

from repro import obs
from repro.hdl.errors import SimulationError
from repro.live.commands import CommandError, CommandInterpreter
from repro.live.session import LiveSession
from repro.riscv import build_pgas_source
from repro.riscv.patches import get_patch
from repro.riscv.programs import boot_program, boot_program_spec
from repro.sim.testbench import hold_inputs
from tests.conftest import COUNTER_SRC

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


# Counts up first (positive immediates only), so the id-imm-sign bug
# stays invisible for the first checkpoint delta and the divergence it
# causes lands mid-history.
LATE_ASM = """
    li   s1, 0
    li   s2, 12
warm:
    addi s1, s1, 1
    blt  s1, s2, warm
""" + ASM

# The three ways to run the one verification path.
PATHS = ("in-process", "pool", "background")


def make_session(source=None, cycles=170, asm=ASM):
    session = LiveSession(
        source or build_pgas_source(1),
        checkpoint_interval=40,
        reload_distance=50,
    )
    session.inst_pipe("uut", session.stage_handle_for("pgas_mesh_1x1"))
    tb = session.load_testbench(
        boot_program(asm, count=1), factory=boot_program_spec(asm, count=1)
    )
    session.run(tb, "uut", cycles)
    return session, tb


def verify_on(session, pipe, path, act=False):
    """Verify ``pipe`` along one of :data:`PATHS`.  ``act`` acts on the
    verdict: ``repair`` where the caller waits; the background job's
    completion callback always does."""
    if path == "background":
        session.verify_background(pipe, workers=2)
        report = session.wait_for_verify(pipe, timeout=300)
        assert report is not None
        return report
    workers = 1 if path == "in-process" else 2
    return session.verify_consistency(pipe, workers=workers, repair=act)


def outcome(report):
    """What every path must agree on."""
    return {
        "verdict": report.verdict,
        "all_consistent": report.all_consistent,
        "divergence_cycle": report.divergence_cycle,
        "unverifiable_segments": report.unverifiable_segments,
        "errors": report.errors,
        "segments": [
            (s.index, s.start_cycle, s.end_cycle, s.consistent)
            for s in report.segments
        ],
    }


@pytest.mark.slow
class TestBackgroundVerify:
    def test_session_commands_do_not_block(self):
        session, tb = make_session()
        try:
            job = session.verify_background("uut", workers=2)
            # Commands return while the workers are still compiling the
            # design — the whole point of moving verification off the
            # session thread.
            outs = session.peek("uut")
            assert isinstance(outs, dict) and outs
            assert not job.done()
            assert session.verify_status("uut").state == "running"
            session.run(tb, "uut", 10)  # simulation advances mid-verify
            report = session.wait_for_verify("uut", timeout=300)
            assert report is not None
            assert report.all_consistent
            assert session.verify_status("uut").state == "consistent"
            assert session.pipe("uut").cycle == 180
        finally:
            session.close()

    def test_superseding_edit_cancels_pending_segments(self):
        # One worker over many segments: an edit landing mid-verify
        # revokes the segments that have not started and marks the job
        # superseded, so its (stale) verdict is never acted on.  The
        # edit races the worker, and on a fast machine the verify can
        # finish before the cancel lands (nothing left to revoke), so
        # retry until the edit wins the race at least once.
        for attempt in range(4):
            buggy = get_patch("id-imm-sign").inject(build_pgas_source(1))
            session, _ = make_session(buggy, cycles=410)
            try:
                metrics = obs.get_metrics()
                cancelled0 = metrics.counter(
                    "consistency.segments_cancelled"
                )
                superseded0 = metrics.counter("consistency.jobs_superseded")
                job = session.verify_background("uut", workers=1)
                session.apply_change(get_patch("id-imm-sign").fix(buggy))
                assert job.superseded
                report = job.result(timeout=300)
                assert report is not None
                assert report.status == "cancelled"
                assert session.verify_status("uut").state == "cancelled"
                assert (
                    metrics.counter("consistency.jobs_superseded")
                    > superseded0
                )
                # Superseded verdicts must not invalidate checkpoints,
                # even though the completed segments did observe the
                # divergence.
                assert len(session.store("uut")) > 0
                if report.cancelled_segments > 0:
                    assert (
                        metrics.counter("consistency.segments_cancelled")
                        > cancelled0
                    )
                    return
            finally:
                session.close()
        pytest.fail("verify finished before the edit on every attempt")

    def test_divergence_invalidates_checkpoints(self):
        # apply_change(verify="background") wires the verify into the
        # edit itself; the divergent verdict must drop every checkpoint
        # past the divergence cycle (here: all of them).
        buggy = get_patch("id-imm-sign").inject(build_pgas_source(1))
        session, _ = make_session(buggy)
        try:
            metrics = obs.get_metrics()
            invalidated0 = metrics.counter(
                "consistency.background_invalidations"
            )
            erd = session.apply_change(
                get_patch("id-imm-sign").fix(buggy), verify="background"
            )
            assert "uut" in erd.background_verifies
            report = session.wait_for_verify("uut", timeout=300)
            assert report is not None
            assert not report.all_consistent
            assert report.divergence_cycle == 0
            assert session.verify_status("uut").state == "divergent"
            assert len(session.store("uut")) == 0
            assert (
                metrics.counter("consistency.background_invalidations")
                == invalidated0 + 1
            )
        finally:
            session.close()


@pytest.mark.slow
class TestOnePathParity:
    """Same history, same verdict, same checkpoints left standing:
    in process or on the pool, waited for or not."""

    def _history(self, kind):
        if kind == "consistent":
            return make_session(asm=LATE_ASM)[0]
        patch = get_patch("id-imm-sign")
        session, _ = make_session(
            patch.inject(build_pgas_source(1)), asm=LATE_ASM
        )
        session.apply_change(patch.fix(session.compiler.source))
        return session

    @pytest.mark.parametrize("kind", ["consistent", "divergent"])
    def test_every_path_agrees(self, kind):
        seen = {}
        for path in PATHS:
            session = self._history(kind)
            try:
                store = session.store("uut")
                before = store.all()
                report = verify_on(session, "uut", path, act=True)
                assert report.workers == (1 if path == "in-process" else 2)
                survivors = [
                    c.cycle for c in store.all()
                    if any(c is b for b in before)
                ]
                seen[path] = (outcome(report), survivors)
                if path != "background":
                    # Repair also regenerated what it dropped.
                    assert store.cycles() == [40, 80, 120, 160]
                    assert session.verify_consistency("uut").all_consistent
                else:
                    assert store.cycles() == survivors
            finally:
                session.close()
        assert seen["pool"] == seen["in-process"]
        assert seen["background"] == seen["in-process"]
        verdict, survivors = seen["in-process"]
        if kind == "consistent":
            assert verdict["verdict"] == "consistent"
            assert survivors == [40, 80, 120, 160]
        else:
            # The bug shows in the second delta: the first checkpoint
            # is the last good state and the only one left standing.
            assert verdict["verdict"] == "divergent"
            assert verdict["divergence_cycle"] == 40
            assert survivors == [40]


def make_counter_interp(interval=10):
    session = LiveSession(COUNTER_SRC, checkpoint_interval=interval)
    session.inst_pipe("p0", session.stage_handle_for("top"))
    tb = session.load_testbench(hold_inputs(rst=0))
    interp = CommandInterpreter(session, read_file={}.__getitem__)
    return session, tb, interp


class TestVerifyCommands:
    def test_verifystatus_idle_before_any_verify(self):
        _, _, interp = make_counter_interp()
        status = interp.execute("verifyStatus p0").value
        assert status.state == "idle"
        assert status.total_segments == 0

    def test_verifystatus_unknown_pipe_rejected(self):
        _, _, interp = make_counter_interp()
        with pytest.raises(CommandError):
            interp.execute("verifyStatus nope")

    def test_peek_command_reads_outputs(self):
        _, tb, interp = make_counter_interp()
        interp.execute(f"run {tb}, p0, 5")
        outs = interp.execute("peek p0").value
        assert outs["c0"] == 5

    def test_peek_does_not_advance(self):
        session, tb, interp = make_counter_interp()
        interp.execute(f"run {tb}, p0, 5")
        interp.execute("peek p0")
        assert session.pipe("p0").cycle == 5

    def test_verify_needs_factory_spec(self):
        # hold_inputs was loaded without factory=..., so background
        # verification has no rebuild recipe for worker processes.
        _, tb, interp = make_counter_interp()
        interp.execute(f"run {tb}, p0, 15")
        with pytest.raises(CommandError, match="factory"):
            interp.execute("verify p0")

    @pytest.mark.parametrize("verify, match", [
        ("background", "factory"), ("bogus", "unknown verify mode"),
    ])
    def test_refused_verify_leaves_the_edit_unapplied(self, verify, match):
        session, tb, _ = make_counter_interp()
        session.run(tb, "p0", 20)
        before = session.peek("p0")
        edited = COUNTER_SRC.replace("assign sum = a + b;",
                                     "assign sum = a + b + 8'd1;")
        with pytest.raises(SimulationError, match=match):
            session.apply_change(edited, verify=verify)
        assert session.version == "1.0"
        assert session.compiler.source == COUNTER_SRC
        assert session.pipe("p0").cycle == 20
        assert session.peek("p0") == before

    def test_verify_rejects_bad_worker_counts(self):
        _, _, interp = make_counter_interp()
        with pytest.raises(CommandError):
            interp.execute("verify p0, 0")
        with pytest.raises(CommandError):
            interp.execute("verify p0, soon")

    def test_verifywait_without_job_returns_none(self):
        _, _, interp = make_counter_interp()
        assert interp.execute("verifyWait p0").value is None

    def test_verify_background_requires_compiled_pipe(self):
        session = LiveSession(COUNTER_SRC, checkpoint_interval=10)
        with pytest.raises(SimulationError):
            session.verify_background("ghost")

    def test_close_is_idempotent_and_context_manager_closes(self):
        with LiveSession(COUNTER_SRC, checkpoint_interval=10) as session:
            session.inst_pipe("p0", session.stage_handle_for("top"))
        session.close()  # second close is a no-op


RESET_SPEC = (
    "repro.sim.testbench:reset_sequence", {"reset_name": "rst", "cycles": 2}
)


def exploding_testbench():
    """What a verify worker builds for ``test_a_segment_that_dies``."""
    from repro.sim.testbench import CallbackTestbench

    def drive(pipe):
        raise RuntimeError("boom in the worker")

    return CallbackTestbench("exploding", drive=drive)


def counter_session(factory=RESET_SPEC):
    from repro.sim.testbench import reset_sequence

    session = LiveSession(COUNTER_SRC, checkpoint_interval=10)
    session.inst_pipe("p0", session.stage_handle_for("top"))
    tb = session.load_testbench(reset_sequence("rst", 2), factory=factory)
    return session, tb


class TestVerdictsTellTheTruth:
    """A verdict over nothing is not ``consistent``, a segment that
    died is not silence, and every path says the same thing about the
    same session."""

    def _every_path(self, session):
        reports = {path: verify_on(session, "p0", path) for path in PATHS}
        for path in PATHS:
            assert outcome(reports[path]) == outcome(reports["in-process"])
        return reports["background"], session.verify_status("p0")

    def test_checkpoints_without_history_are_unverifiable(self, tmp_path):
        first, tb = counter_session()
        first.run(tb, "p0", 25)
        path = str(tmp_path / "p0.ckpt")
        first.chkp("p0", path)
        # What a rehydrated session is: the checkpoints, no run ops.
        session, tb = counter_session()
        try:
            session.ldch("p0", path)
            report, status = self._every_path(session)
            assert report.verdict == status.state == "unverifiable"
            assert report.segments == [] and report.unverifiable_segments == 3
            assert status.consistent is None and status.total_segments == 0
            assert session.store("p0").cycles() == [10, 20, 25]

            session.run(tb, "p0", 10)  # 25..35 is recorded and checkable
            report, status = self._every_path(session)
            assert report.verdict == status.state == "consistent"
            assert [s.start_cycle for s in report.segments] == [25]
            assert status.completed_segments == 1
            assert status.unverifiable_segments == 3
        finally:
            session.close()

    def test_a_segment_that_dies_fails_the_verdict(self):
        session, tb = counter_session(
            ("tests.test_background_verify:exploding_testbench", {})
        )
        try:
            session.run(tb, "p0", 25)
            report = verify_on(session, "p0", "background")
            status = session.verify_status("p0")
            assert report.verdict == status.state == "failed"
            assert not report.all_consistent and status.consistent is False
            assert len(report.errors) == 2 and report.segments == []
            assert "boom in the worker" in status.error
            # No divergence was shown: nothing is invalidated over it.
            assert report.divergence_cycle is None
            assert session.store("p0").cycles() == [10, 20]
            # Waiting for the same pool says the same, and raises
            # nothing; in process the session's own testbench replays,
            # which does not explode.
            waited = verify_on(session, "p0", "pool", act=True)
            assert outcome(waited) == outcome(report)
            assert session.store("p0").cycles() == [10, 20]
            assert verify_on(session, "p0", "in-process").verdict == (
                "consistent"
            )
        finally:
            session.close()

    def test_a_segment_that_dies_in_process_fails_the_verdict(self):
        # The session's own testbench raises at power-on once armed: the
        # edit's replay starts from a checkpoint and never sees cycle 0,
        # the verification's first delta does.
        from repro.sim.testbench import CallbackTestbench

        armed = []

        def drive(pipe):
            if armed and pipe.cycle == 0:
                raise RuntimeError("boom at power-on")
            pipe.set_input("rst", int(pipe.cycle < 2))

        session = LiveSession(COUNTER_SRC, checkpoint_interval=10)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        tb = session.load_testbench(CallbackTestbench("armed", drive=drive))
        session.run(tb, "p0", 25)
        armed.append(True)
        edited = COUNTER_SRC.replace("count_q <= 0;", "count_q <= 8'd9;")
        erd = session.apply_change(edited, verify=True)
        # The swap landed and the report carries the failure.
        assert erd.version == session.version == "1.1"
        report = erd.consistency["p0"]
        assert report.verdict == "failed" and report.workers == 1
        assert report.errors == ["RuntimeError: boom at power-on"]
        assert [s.start_cycle for s in report.segments] == [10]
        assert session.store("p0").cycles() == [10, 20]
