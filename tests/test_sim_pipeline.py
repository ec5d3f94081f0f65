"""Pipe and testbench API tests."""

import pytest

from repro import compile_design
from repro.hdl.errors import SimulationError
from repro.sim import Pipe, VectorTestbench
from repro.sim.testbench import CallbackTestbench, hold_inputs, reset_sequence
from tests.conftest import COUNTER_SRC


def fresh_pipe():
    netlist, library = compile_design(COUNTER_SRC, "top")
    pipe = Pipe(netlist.top, library)
    pipe.set_inputs(rst=0)
    return pipe


class TestPipeBasics:
    def test_port_name_views(self):
        pipe = fresh_pipe()
        assert pipe.input_names == ("clk", "rst")
        assert pipe.output_names == ("c0", "c1")

    def test_unknown_input_rejected(self):
        with pytest.raises(SimulationError):
            fresh_pipe().set_input("nope", 1)

    def test_get_input(self):
        pipe = fresh_pipe()
        pipe.set_input("rst", 1)
        assert pipe.get_input("rst") == 1

    def test_step_counts_cycles(self):
        pipe = fresh_pipe()
        assert pipe.step(7) == 7
        assert pipe.cycle == 7

    def test_outputs_cached_until_tick(self):
        pipe = fresh_pipe()
        first = pipe.outputs()
        assert pipe.outputs() is not None
        assert pipe.outputs() == first

    def test_run_until_stops_at_predicate(self):
        pipe = fresh_pipe()
        hit = pipe.run_until(lambda p, o: o["c0"] == 5, max_cycles=100)
        assert hit
        assert pipe.outputs()["c0"] == 5

    def test_run_until_bound(self):
        pipe = fresh_pipe()
        hit = pipe.run_until(lambda p, o: o["c0"] == 99, max_cycles=10)
        assert not hit
        assert pipe.cycle == 10

    def test_driver_called_each_cycle(self):
        pipe = fresh_pipe()
        calls = []
        pipe.step(4, driver=lambda p: calls.append(p.cycle))
        assert calls == [0, 1, 2, 3]

    def test_find_nested(self):
        pipe = fresh_pipe()
        assert pipe.find("u0.u_add").code.name == "adder"

    def test_find_missing_raises(self):
        with pytest.raises(SimulationError):
            fresh_pipe().find("nope")

    def test_walk_lists_hierarchy(self):
        pipe = fresh_pipe()
        paths = [path for path, _ in pipe.top.walk()]
        assert paths == ["top", "top.u0", "top.u0.u_add",
                         "top.u1", "top.u1.u_add"]


# ``en`` reaches only the register (sequential-only); ``a`` reaches the
# output combinationally and the register through the same wire.
MIXED_INPUT_SRC = """
module m (input clk, input en, input [7:0] a, output [7:0] y,
          output [7:0] q_out);
  reg [7:0] q;
  wire [7:0] t;
  assign t = a + q;
  assign y = t;
  assign q_out = q;
  always @(posedge clk) if (en) q <= t;
endmodule
"""


class TestMutationBetweenEvalAndTick:
    """A mutation outside ``cycle`` invalidates root-ward: the pipe's
    cached outputs, the one memo, were computed from the state that
    just changed."""

    def test_nested_poke_shows_immediately(self):
        pipe = fresh_pipe()
        pipe.step(3)
        assert pipe.outputs()["c0"] == 3
        pipe.find("u0").poke_reg("count_q", 100)
        assert pipe.outputs()["c0"] == 100
        assert pipe.eval()["c0"] == 100

    def test_nested_write_memory_and_load_reach_the_root(self, pgas1_pipe):
        pipe = pgas1_pipe
        pipe.set_inputs(rst=0)
        pipe.step(2)
        for mutate in (
            lambda: pipe.find("n_0.u_mem").write_memory("mem", 0, [0x13]),
            lambda: pipe.find("n_0.u_core.u_if").load(
                pipe.find("n_0.u_core.u_if").snapshot()
            ),
            lambda: pipe.find("n_0.u_core.u_wb").reset_state(),
        ):
            settled = pipe.eval()
            assert pipe.eval() is settled
            mutate()
            assert pipe._last_outputs is None

    def test_poke_after_eval_equals_poke_before_eval(self):
        early, late = fresh_pipe(), fresh_pipe()
        for pipe in (early, late):
            pipe.step(3)
        early.find("u0").poke_reg("count_q", 100)
        early.eval()
        late.eval()
        late.find("u0").poke_reg("count_q", 100)
        for pipe in (early, late):
            pipe.tick()
        assert late.snapshot().state.equal_state(early.snapshot().state)
        assert late.outputs() == early.outputs() and late.outputs()["c0"] == 101

    @pytest.mark.parametrize("late_input", ["a", "en"])
    def test_set_input_after_eval_equals_a_fresh_pipe(self, late_input):
        """``a`` is an eval_out argument, ``en`` is not: a change to
        either between eval() and tick() must reach the next state."""
        netlist, library = compile_design(MIXED_INPUT_SRC, "m")
        final = {"a": 5, "en": 1}
        stale = dict(final, **{late_input: 0})

        fresh = Pipe(netlist.top, library)
        fresh.set_inputs(**final)
        fresh.step(2)

        pipe = Pipe(netlist.top, library)
        pipe.set_inputs(**final)
        pipe.step(1)
        pipe.set_inputs(**stale)
        pipe.eval()
        pipe.set_inputs(**final)
        pipe.tick()
        assert pipe.snapshot().state.equal_state(fresh.snapshot().state)
        assert pipe.outputs() == fresh.outputs()
        assert pipe.outputs()["q_out"] == 10


class TestSnapshotAndCopy:
    def test_snapshot_restore_roundtrip(self):
        pipe = fresh_pipe()
        pipe.step(9)
        snap = pipe.snapshot()
        pipe.step(11)
        pipe.restore(snap)
        assert pipe.cycle == 9
        assert pipe.outputs()["c0"] == 9

    def test_restore_includes_inputs(self):
        pipe = fresh_pipe()
        pipe.set_inputs(rst=0)
        snap = pipe.snapshot()
        pipe.set_inputs(rst=1)
        pipe.restore(snap)
        assert pipe.get_input("rst") == 0

    def test_copy_is_independent(self):
        pipe = fresh_pipe()
        pipe.step(5)
        clone = pipe.copy("clone")
        clone.step(5)
        assert pipe.outputs()["c0"] == 5
        assert clone.outputs()["c0"] == 10

    def test_reset_state_zeroes(self):
        pipe = fresh_pipe()
        pipe.step(9)
        pipe.reset_state()
        assert pipe.cycle == 0
        assert pipe.outputs()["c0"] == 0

    def test_snapshot_bytes(self):
        pipe = fresh_pipe()
        assert pipe.snapshot().total_bytes() > 0

    def test_registers_view(self):
        pipe = fresh_pipe()
        pipe.step(3)
        assert pipe.find("u0").registers() == {"count_q": 3}

    def test_restore_wrong_shape_rejected(self):
        pipe = fresh_pipe()
        snap = pipe.snapshot()
        other_netlist, other_lib = compile_design(
            "module m (input clk, output y); assign y = 1'b1; endmodule", "m"
        )
        other = Pipe(other_netlist.top, other_lib)
        with pytest.raises(SimulationError):
            other.restore(snap)


class TestTestbenches:
    def test_vector_testbench_drives_and_records(self):
        pipe = fresh_pipe()
        tb = VectorTestbench(vectors=[{"rst": 1}, {"rst": 1}, {"rst": 0}])
        tb.run(pipe, 6)
        assert len(tb.record) == 6
        # Held reset for 2 cycles, then counting.
        assert tb.record[-1]["c0"] == 3

    def test_vector_testbench_rebase_replays_identically(self):
        netlist, library = compile_design(COUNTER_SRC, "top")
        vectors = [{"rst": 1}] + [{"rst": 0}] * 9

        first = Pipe(netlist.top, library)
        tb = VectorTestbench(vectors=vectors)
        tb.run(first, 10)
        reference = [r["c0"] for r in tb.record]

        # Replay the tail from a snapshot, rebasing the testbench.
        second = Pipe(netlist.top, library)
        tb2 = VectorTestbench(vectors=vectors)
        tb2.run(second, 4)
        snap = second.snapshot()
        second.restore(snap)
        tb3 = VectorTestbench(vectors=vectors)
        tb3.rebase(0)
        tb3.run(second, 6)
        assert [r["c0"] for r in tb3.record] == reference[4:]

    def test_callback_testbench_check_stops(self):
        pipe = fresh_pipe()
        tb = CallbackTestbench(
            "stopper",
            drive=lambda p: p.set_inputs(rst=0),
            check=lambda p, o: o["c0"] >= 4,
        )
        ran = tb.run(pipe, 100)
        assert ran == 4

    def test_hold_inputs(self):
        pipe = fresh_pipe()
        hold_inputs(rst=1).run(pipe, 3)
        assert pipe.outputs()["c0"] == 0

    def test_reset_sequence_absolute(self):
        pipe = fresh_pipe()
        tb = reset_sequence("rst", cycles=2)
        tb.run(pipe, 5)
        assert pipe.outputs()["c0"] == 3  # 2 reset + 3 counting
        # Replay from cycle 0 gives identical stimulus.
        pipe.reset_state()
        tb.run(pipe, 5)
        assert pipe.outputs()["c0"] == 3
