"""Offline waveform recording and VCD export on a bare pipe: an
unbounded TraceBuffer attached to it samples every cycle the pipe (or
a testbench driving it) steps."""

import pytest

from repro import compile_design
from repro.hdl.errors import SimulationError
from repro.live.session import LiveSession
from repro.sim import Pipe
from repro.sim.testbench import hold_inputs
from repro.trace import TraceBuffer, TraceProbe
from repro.trace.vcd import vcd_id
from tests.conftest import COUNTER_SRC


def recording(pipe):
    buffer = TraceBuffer(capacity=None)
    pipe.attach_trace(buffer)
    return buffer


def recorder_on_counter():
    netlist, library = compile_design(COUNTER_SRC, "top")
    pipe = Pipe(netlist.top, library)
    pipe.set_inputs(rst=0)
    return pipe, recording(pipe)


def values(buffer, name):
    return [value for _cycle, value in buffer.window(name)]


class TestProbes:
    def test_register_probe(self):
        pipe, rec = recorder_on_counter()
        rec.watch(pipe, "u0.count_q")
        pipe.step(5)
        assert rec.window("u0.count_q") == [[c, c] for c in range(5)]

    def test_output_probe(self):
        pipe, rec = recorder_on_counter()
        rec.watch(pipe, "c1")
        pipe.step(3)
        assert values(rec, "c1") == [0, 3, 6]

    def test_memory_word_probe(self, pgas1_netlist_library):
        from repro.riscv.programs import busy_counter, load_same_program

        _, netlist, library = pgas1_netlist_library
        pipe = Pipe(netlist.top, library)
        load_same_program(pipe, 1, busy_counter(100))
        pipe.set_inputs(rst=1)
        pipe.step(2)
        pipe.set_inputs(rst=0)
        rec = recording(pipe)
        count = f"n_0.u_mem.mem[{0x200 // 8}]"
        rec.watch(pipe, count)
        pipe.step(40)
        counted = values(rec, count)
        assert counted[0] == 0
        assert counted[-1] > counted[0]
        assert counted == sorted(counted)  # monotone counter

    def test_custom_expr_probe(self):
        # A computed probe -- the 'printf' of the live flow.
        pipe, rec = recorder_on_counter()
        rec.add_probe(TraceProbe(
            "sum", 16, lambda p: p.outputs()["c0"] + p.outputs()["c1"]
        ))
        pipe.step(4)
        assert values(rec, "sum") == [0, 4, 8, 12]

    def test_unknown_register_rejected(self):
        pipe, rec = recorder_on_counter()
        with pytest.raises(SimulationError):
            rec.watch(pipe, "u0.nope")

    def test_duplicate_probe_rejected(self):
        pipe, rec = recorder_on_counter()
        rec.add_probe(TraceProbe("c0", 8, lambda p: p.outputs()["c0"]))
        with pytest.raises(SimulationError):
            rec.add_probe(TraceProbe("c0", 8, lambda p: 0))


class TestTraceQueries:
    def test_at_returns_last_value_before(self):
        pipe, rec = recorder_on_counter()
        rec.watch(pipe, "u0.count_q")
        pipe.step(6)

        def at(cycle):
            upto = rec.window("u0.count_q", end=cycle + 1)
            return upto[-1][1] if upto else None

        assert at(3) == 3
        assert at(100) == 5
        assert at(-1) is None

    def test_changes_compresses_repeats(self):
        pipe, rec = recorder_on_counter()
        pipe.set_inputs(rst=1)
        rec.watch(pipe, "u0.count_q")
        pipe.step(4)  # held in reset: constant 0
        pipe.set_inputs(rst=0)
        pipe.step(3)
        # Samples: 0,0,0,0 (reset), 0 (release latches next edge), 1, 2.
        assert rec.changes_of("u0.count_q") == [(0, 0), (5, 1), (6, 2)]


class TestReplayIntegration:
    def test_rewind_and_record_window(self):
        """The paper's 'printf and replay' flow: run past the point of
        interest, then replay the window with the probe in place."""
        session = LiveSession(COUNTER_SRC, checkpoint_interval=20)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        tb = session.load_testbench(hold_inputs(rst=0))
        session.run(tb, "p0", 50)  # ran past the interesting window
        window = session.replay_window("p0", 20, 25, ["u0.count_q"])
        assert window["base_cycle"] == 20
        assert window["signals"]["u0.count_q"] == [
            [c, c] for c in range(20, 25)
        ]
        assert session.pipe("p0").cycle == 50  # the live pipe never moved


class TestVCD:
    def test_vcd_structure(self, tmp_path):
        pipe, rec = recorder_on_counter()
        rec.watch(pipe, "u0.count_q")
        rec.watch(pipe, "c1")
        pipe.step(4)
        path = tmp_path / "wave.vcd"
        rec.to_vcd(str(path))
        text = path.read_text()
        assert "$timescale 1 ns $end" in text
        assert "$var wire 8" in text
        assert "u0.count_q" in text
        assert "$enddefinitions $end" in text
        assert "#0" in text and "#3" in text
        assert "b11 " in text  # count_q = 3 at cycle 3

    def test_vcd_single_bit_format(self, tmp_path):
        source = """
module m (input clk, output t);
  reg t_q;
  assign t = t_q;
  always @(posedge clk) t_q <= !t_q;
endmodule
"""
        netlist, library = compile_design(source, "m")
        pipe = Pipe(netlist.top, library)
        rec = recording(pipe)
        rec.watch(pipe, "t_q")
        pipe.step(4)
        path = tmp_path / "bit.vcd"
        rec.to_vcd(str(path))
        lines = path.read_text().splitlines()
        # Single-bit changes use the scalar form: <0|1><id>.
        assert any(line in ("0!", "1!") for line in lines)

    def test_vcd_ids_unique_beyond_94_probes(self, tmp_path):
        pipe, rec = recorder_on_counter()
        for i in range(120):
            rec.add_probe(TraceProbe(f"p{i}", 8, lambda p, i=i: i))
        pipe.step(1)
        path = tmp_path / "many.vcd"
        rec.to_vcd(str(path))
        declared = [
            line.split()[3] for line in path.read_text().splitlines()
            if line.startswith("$var")
        ]
        assert declared == [vcd_id(i) for i in range(120)]
        assert len(set(declared)) == 120


class TestRecordWithTestbench:
    def test_testbench_driven_recording(self):
        from repro.sim.testbench import reset_sequence

        pipe, rec = recorder_on_counter()
        rec.watch(pipe, "c0")
        tb = reset_sequence("rst", cycles=2)
        assert tb.run(pipe, 6) == 6
        # Settled pre-edge values: reset holds 0 through cycles 0-1,
        # the release latches on the edge after cycle 2.
        assert values(rec, "c0") == [0, 0, 0, 1, 2, 3]
