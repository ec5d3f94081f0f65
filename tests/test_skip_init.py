"""The §III-A 'skip initialization' use case.

"Restarting a simulation is universally slow... With hot reload,
parallel checkpoint history verification, and deterministic register
transformations, this behavior can come for free": a checkpoint taken
after the expensive boot can seed a *fresh* session — even one whose
design has since been edited, thanks to the Table V transform rules.
"""


from repro.live.checkpoint import CheckpointStore
from repro.live.session import LiveSession
from repro.live.transform import (
    RegisterTransform,
    TransformOp,
    translate_snapshot,
)
from repro.sim.testbench import hold_inputs
from tests.conftest import COUNTER_SRC


def booted_session(tmp_path, cycles=500):
    """Simulate an expensive init and persist the post-init state."""
    session = LiveSession(COUNTER_SRC, checkpoint_interval=100)
    session.inst_pipe("p0", session.stage_handle_for("top"))
    tb = session.load_testbench(hold_inputs(rst=0))
    session.run(tb, "p0", cycles)
    path = str(tmp_path / "post_boot.pkl")
    session.chkp("p0", path)
    return session, path


class TestSkipInitialization:
    def test_fresh_session_resumes_from_saved_state(self, tmp_path):
        _, path = booted_session(tmp_path)

        # A brand new session (fresh process in real life): no need to
        # re-run the 500-cycle boot.
        session = LiveSession(COUNTER_SRC)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        tb = session.load_testbench(hold_inputs(rst=0))
        session.ldch("p0", path)
        pipe = session.pipe("p0")
        assert pipe.cycle == 500
        assert pipe.outputs()["c0"] == 500 & 0xFF
        session.run(tb, "p0", 10)
        assert pipe.outputs()["c0"] == 510 & 0xFF

    def test_resume_into_edited_design_via_transforms(self, tmp_path):
        _, path = booted_session(tmp_path)

        # The new session runs an EDITED design whose counter register
        # was renamed; the Table V rename rule carries the boot state
        # across versions.
        renamed = COUNTER_SRC.replace("count_q", "tally_q").replace(
            "if (rst)", "if (rst || 1'b0)"
        )
        session = LiveSession(renamed)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        # Cross-version load: apply the rename transform directly.
        store = CheckpointStore(interval=1)
        store.load(path)
        checkpoint = store.all()[-1]
        transform = RegisterTransform(
            [TransformOp("rename", "count_q", new_name="tally_q")]
        )
        checkpoint.snapshot.state = translate_snapshot(
            checkpoint.snapshot.state, {"counter": transform}
        )
        session.pipe("p0").restore_transformed(checkpoint.snapshot)
        session.pipe("p0").cycle = checkpoint.cycle
        pipe = session.pipe("p0")
        assert pipe.find("u0").peek_reg("tally_q") == 500 & 0xFF
        tb = session.load_testbench(hold_inputs(rst=0))
        session.run(tb, "p0", 5)
        assert pipe.outputs()["c0"] == 505 & 0xFF

    def test_riscv_boot_skip(self, tmp_path):
        """The paper's motivating case (BOOM's slow debug-monitor init):
        boot a core once, then every later session starts mid-program."""
        from repro.riscv import build_pgas_source
        from repro.riscv.programs import (
            boot_program,
            busy_counter,
            node_result,
        )

        asm = busy_counter(1_000_000)
        first = LiveSession(build_pgas_source(1), checkpoint_interval=100)
        first.inst_pipe("uut", first.stage_handle_for("pgas_mesh_1x1"))
        tb1 = first.load_testbench(boot_program(asm, count=1))
        first.run(tb1, "uut", 300)
        path = str(tmp_path / "warm_core.pkl")
        first.chkp("uut", path)
        warm_result = node_result(first.pipe("uut"), 0)
        assert warm_result > 0

        second = LiveSession(build_pgas_source(1))
        second.inst_pipe("uut", second.stage_handle_for("pgas_mesh_1x1"))
        tb2 = second.load_testbench(boot_program(asm, count=1))
        second.ldch("uut", path)
        pipe = second.pipe("uut")
        assert pipe.cycle == 300
        assert node_result(pipe, 0) == warm_result
        second.run(tb2, "uut", 40)
        # Loop = addi + sd + taken blt (2-cycle redirect): 5 cycles/iter.
        assert node_result(pipe, 0) == warm_result + 8
