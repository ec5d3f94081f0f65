"""Replay and consistency-verification tests (§III-F, Fig. 6)."""

import pytest

from repro import compile_design
from repro.hdl.errors import SimulationError
from repro.live.checkpoint import CheckpointStore
from repro.live.consistency import InProcess, VerifyJob
from repro.live.replay import SessionOp, replay_ops, trim_ops
from repro.sim import Pipe
from repro.sim.testbench import CallbackTestbench, hold_inputs
from tests.conftest import COUNTER_SRC


def make_pipe():
    netlist, library = compile_design(COUNTER_SRC, "top")
    pipe = Pipe(netlist.top, library)
    pipe.set_inputs(rst=0)
    return pipe


def tb_lookup_factory():
    run_tb = hold_inputs(rst=0)
    return lambda handle: run_tb


class TestReplayOps:
    def test_replay_reaches_target(self):
        pipe = make_pipe()
        ops = [SessionOp("tb0", 0, 50)]
        executed = replay_ops(pipe, ops, 30, tb_lookup_factory())
        assert executed == 30
        assert pipe.cycle == 30

    def test_replay_spans_multiple_ops(self):
        pipe = make_pipe()
        ops = [SessionOp("tb0", 0, 10), SessionOp("tb0", 10, 25)]
        replay_ops(pipe, ops, 25, tb_lookup_factory())
        assert pipe.cycle == 25
        assert pipe.outputs()["c0"] == 25

    def test_replay_from_midpoint_skips_done_ops(self):
        pipe = make_pipe()
        pipe.step(12)  # pretend we restored a checkpoint at cycle 12
        ops = [SessionOp("tb0", 0, 10), SessionOp("tb0", 10, 30)]
        executed = replay_ops(pipe, ops, 30, tb_lookup_factory())
        assert executed == 18

    def test_replay_backwards_rejected(self):
        pipe = make_pipe()
        pipe.step(20)
        with pytest.raises(SimulationError, match="backwards"):
            replay_ops(pipe, [SessionOp("tb0", 0, 30)], 10, tb_lookup_factory())

    def test_history_too_short_rejected(self):
        pipe = make_pipe()
        with pytest.raises(SimulationError, match="history ends"):
            replay_ops(pipe, [SessionOp("tb0", 0, 5)], 10, tb_lookup_factory())

    def test_testbench_rebased_to_op_start(self):
        pipe = make_pipe()

        class RecordingTB(CallbackTestbench):
            def __init__(self):
                super().__init__("rec", drive=lambda p: p.set_inputs(rst=0))
                self.base = None

            def rebase(self, start_cycle):
                self.base = start_cycle

        tb = RecordingTB()
        replay_ops(pipe, [SessionOp("tb0", 0, 5)], 5, lambda h: tb)
        assert tb.base == 0

    def test_trim_ops(self):
        ops = [SessionOp("a", 0, 10), SessionOp("b", 10, 20),
               SessionOp("c", 20, 30)]
        assert trim_ops(ops, 15) == ops[1:]
        assert trim_ops(ops, 0) == ops


class TestConsistencyChecker:
    """The one entry point, a :class:`VerifyJob`, on a bare store."""

    @staticmethod
    def _verify(checkpoints, ops, build_pipe):
        place = InProcess(build_pipe, tb_lookup_factory())
        return VerifyJob(checkpoints, ops, place).collect()

    def _checkpointed_run(self, cycles=40, interval=10):
        netlist, library = compile_design(COUNTER_SRC, "top")
        pipe = Pipe(netlist.top, library)
        pipe.set_inputs(rst=0)
        store = CheckpointStore(interval=interval)
        for _ in range(cycles):
            pipe.step(1)
            store.maybe_take(pipe, "1.0", 0)
        ops = [SessionOp("tb0", 0, cycles)]

        def build_pipe():
            fresh = Pipe(netlist.top, library)
            fresh.set_inputs(rst=0)
            return fresh

        return store, ops, build_pipe

    def test_consistent_run_verifies(self):
        store, ops, build_pipe = self._checkpointed_run()
        report = self._verify(store.all(), ops, build_pipe)
        assert report.all_consistent
        assert len(report.segments) == len(store)
        assert report.divergence_cycle is None

    def test_divergence_detected_and_localized(self):
        store, ops, build_pipe = self._checkpointed_run()
        # Corrupt the checkpoint at cycle 20: its state claims a value
        # the (unchanged) design can never reach from cycle 10.
        victim = [c for c in store.all() if c.cycle == 20][0]
        victim.snapshot.state.child("u0").regs["count_q"] = 199
        report = self._verify(store.all(), ops, build_pipe)
        assert not report.all_consistent
        bad = report.first_divergent
        assert (bad.start_cycle, bad.end_cycle) == (10, 20)
        assert "count_q" in bad.detail
        # Divergence localized: later segments replay *from* corrupted
        # state and also mismatch, but the earliest point is what the
        # paper uses to restart.
        assert report.divergence_cycle == 10

    def test_segment_zero_covers_reset_to_first_checkpoint(self):
        store, ops, build_pipe = self._checkpointed_run()
        report = self._verify(store.all(), ops, build_pipe)
        assert report.segments[0].start_cycle == 0

    def test_empty_store_verifies_trivially(self):
        _, ops, build_pipe = self._checkpointed_run()
        report = self._verify([], ops, build_pipe)
        assert report.all_consistent
        assert report.segments == []

    def test_cpu_seconds_covers_segments(self):
        store, ops, build_pipe = self._checkpointed_run()
        report = self._verify(store.all(), ops, build_pipe)
        assert report.cpu_seconds > 0
        assert report.wall_seconds >= 0
