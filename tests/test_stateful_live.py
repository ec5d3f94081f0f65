"""Stateful property testing of the live loop.

A Hypothesis state machine drives a LiveSession through random
interleavings of run / edit / rewind / verify+repair / rehydrate /
replay and checks the invariants that span all of them.  The central
one: after repair, the pipeline's outputs equal a ground truth the
machine computes itself, by folding the recorded stimulus over the
counters under the *current* adder delta (repair re-executes the
recorded history under the current design).

The top has a data input, and the testbenches drive disjoint inputs
(one ``rst``, the others ``step``), so an input keeps the value the
last testbench to care about it left: a rewind that forgets, or
invents, an input value shows in the counters.

Edits also change the register topology -- the counter register is
renamed back and forth and a second register comes and goes -- which
leaves the ground truth alone: a rename carries the state (Table V), so
history stays consistent across it without a repair, and the machine
runs once on clean code and once under the sanitizer.  So does the
edit that swaps which adder input its ``echo`` output depends on: the
adder's interface (the union of its comb-relevant inputs) stays, what
the counter's compiled code may assume about ``echo`` does not, and a
counter left stale adds a non-zero term to every count.

Whatever moves the pipe or replaces its code -- an edit's hot swap, a
build-flavour toggle, ``ldch``, a replay window -- must leave no memoized
evaluation behind that the next cycle could consume: each such rule
ends by running one more cycle, which the invariants then hold to the
ground truth like any other.

``rehydrate`` is what a server worker does to a migrated or recovered
session: checkpoint where the pipe stands, save the store, build a
fresh session by replaying the journaled edits, ``ldch`` the file.  The
checkpoints come along, the run history does not; from then on the
ground truth starts at the state the pipe was handed over in.
"""

import os
import shutil
import tempfile
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.codegen.build import OPT_LEVELS
from repro.hdl.elaborate import elaborate
from repro.hdl.parser import parse
from repro.live.session import LiveSession
from repro.live.transform import RegisterTransform, TransformOp
from repro.sim.stage import StageInst
from repro.sim.testbench import hold_inputs, reset_sequence
from tests.conftest import COUNTER_SRC, assert_between_edges

DELTAS = [0, 1, 2, 5]
REG_NAMES = ["count_q", "tally_q"]
RESET_CYCLES = 3
# name -> (input it drives, testbench factory)
TESTBENCHES = {
    "reset": ("rst", lambda: reset_sequence("rst", RESET_CYCLES)),
    "step1": ("step", lambda: hold_inputs(step=1)),
    "step4": ("step", lambda: hold_inputs(step=4)),
}

# ``echo`` is one of the adder's inputs, so the term the counter adds is
# zero whichever it is -- as long as the counter reads the real one.
STEPPED_SRC = COUNTER_SRC.replace(
    "  input rst,\n  output [7:0] c0,",
    "  input rst,\n  input [7:0] step,\n  output [7:0] c0,",
).replace(".step(8'd1)", ".step(step)").replace(
    "  output [W-1:0] sum\n);\n  assign sum = a + b;",
    "  output [W-1:0] sum,\n  output [W-1:0] echo\n);\n"
    "  assign sum = a + b;\n  assign echo = a;",
).replace(
    "  wire [W-1:0] next;", "  wire [W-1:0] next;\n  wire [W-1:0] echo;"
).replace(".sum(next));", ".sum(next), .echo(echo));").replace(
    "count_q <= next;", "count_q <= next + (echo - count_q) * (echo - step);"
)
assert STEPPED_SRC.count("step(step)") == 1
assert STEPPED_SRC.count("echo") == 7


def design(delta: int, reg: str = "count_q", shadow: bool = False,
           echo: str = "a") -> str:
    source = STEPPED_SRC.replace("assign echo = a;", f"assign echo = {echo};")
    if delta:
        source = source.replace(
            "assign sum = a + b;", f"assign sum = a + b + 8'd{delta};"
        )
    if shadow:
        source = source.replace(
            "reg [W-1:0] count_q;",
            "reg [W-1:0] count_q;\n  reg [W-1:0] shadow_q;",
        ).replace(
            "    else\n      count_q <= next + (echo - count_q) * (echo - step);",
            "    else begin\n"
            "      count_q <= next + (echo - count_q) * (echo - step);\n"
            "      shadow_q <= count_q;\n    end",
        )
    return source.replace("count_q", reg)


def without_lines(node):
    """``node`` (netlist, IR, AST) as plain data minus source lines."""
    if is_dataclass(node):
        return type(node).__name__, {
            f.name: without_lines(getattr(node, f.name))
            for f in fields(node)
            if f.name not in ("line", "end_line")
        }
    if isinstance(node, dict):
        return {key: without_lines(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [without_lines(item) for item in node]
    return node


class LiveLoopMachine(RuleBasedStateMachine):
    sanitize = "off"

    @initialize()
    def setup(self) -> None:
        self.tmp = tempfile.mkdtemp(prefix="liveloop-")
        self.delta = 0  # current adder modification
        self.reg = "count_q"  # current name of the counter register
        self.shadow = False  # is the second register there?
        self.echo = "a"  # the adder input its echo output repeats
        self.repaired = True  # history currently consistent with design
        self.journal = []  # every edit applied: (source, transforms)
        self._open()
        # Ground truth: the state the recorded history starts from and,
        # per recorded cycle since, which input was driven to what.
        self.origin = {"cycle": 0, "rst": 0, "step": 0, "c0": 0, "c1": 0}
        self.driven = []
        # Start where the inputs have a past: from here on a rewind to
        # power-on that kept ``step`` would replay the reset with it.
        self.run("reset", 5)
        self.run("step4", 3)

    def _open(self) -> None:
        self.session = LiveSession(
            design(0), checkpoint_interval=7, sanitize=self.sanitize
        )
        self.session.inst_pipe("p0", self.session.stage_handle_for("top"))
        self.tbs = {
            name: self.session.load_testbench(make())
            for name, (_port, make) in TESTBENCHES.items()
        }
        self.session.watch("p0", "c0")
        for source, transforms in self.journal:
            self.session.apply_change(source, transforms=transforms)

    def teardown(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def expected(self) -> dict:
        """The origin state folded over the recorded stimulus under the
        current delta."""
        now = dict(self.origin)
        for port, value in self.driven:
            now[port] = value
            if now["rst"]:
                now["c0"] = now["c1"] = 0
            else:
                now["c0"] = (now["c0"] + now["step"] + self.delta) & 0xFF
                now["c1"] = (now["c1"] + 3 + self.delta) & 0xFF
        return now

    def _start_over_from_the_pipe(self) -> None:
        pipe = self.session.pipe("p0")
        self.origin = {
            "cycle": pipe.cycle,
            "rst": pipe.get_input("rst"),
            "step": pipe.get_input("step"),
            **pipe.outputs(),
        }
        self.driven = []

    # -- actions -------------------------------------------------------------

    @rule(
        tb=st.sampled_from(sorted(TESTBENCHES)),
        cycles=st.integers(min_value=1, max_value=23),
    )
    def run(self, tb: str, cycles: int) -> None:
        start = self.session.pipe("p0").cycle
        self.session.run(self.tbs[tb], "p0", cycles)
        port = TESTBENCHES[tb][0]
        for cycle in range(start, start + cycles):
            value = int(cycle < RESET_CYCLES) if port == "rst" else int(tb[4:])
            self.driven.append((port, value))

    @rule(
        delta=st.sampled_from(DELTAS),
        reg=st.sampled_from(REG_NAMES),
        shadow=st.booleans(),
        echo=st.sampled_from("ab"),
    )
    def edit(self, delta: int, reg: str, shadow: bool, echo: str) -> None:
        # The rename is stated (the two names are too unlike for the
        # guess); the second register is left to the guess.
        transforms = None
        if reg != self.reg:
            transforms = {"counter": RegisterTransform(
                [TransformOp("rename", self.reg, new_name=reg)]
            )}
        before = self.session.version
        # Never a SimulationError: the machine keeps no hole in the
        # history, so every edit has a base to replay from.
        source = design(delta, reg, shadow, echo)
        counter = self.session.pipe("p0").find("u0").code
        report = self.session.apply_change(source, transforms=transforms)
        self.journal.append((source, transforms))
        assert report.behavioral == (
            (delta, reg, shadow, echo)
            != (self.delta, self.reg, self.shadow, self.echo)
        )
        if echo != self.echo:
            # The counter was compiled against the other adder: it is
            # replaced too (by a fresh compile or a cached one).
            assert counter is not self.session.pipe("p0").find("u0").code
        # The version moves with the committed source, never behind it.
        assert self.session.compiler.source == source
        assert report.version == self.session.version
        assert (self.session.version != before) == report.behavioral
        # A new adder rewrites history; so does a register the stored
        # checkpoints hold no value for.  A rename or a removal does not.
        if delta != self.delta or (shadow and not self.shadow):
            self.repaired = False
        self.delta, self.reg, self.shadow, self.echo = (
            delta, reg, shadow, echo
        )
        self.run("step1", 1)

    @rule(opt=st.sampled_from(OPT_LEVELS))
    def set_build(self, opt: str) -> None:
        # State is preserved; code that came out byte-identical keeps
        # its instances (and their memos, which still hold).
        before = self.session.peek("p0")
        self.session.set_opt(opt)
        assert self.session.peek("p0") == before
        self.run("step1", 1)

    @rule()
    def rewind_to_some_checkpoint(self) -> None:
        store = self.session.store("p0")
        if not len(store):
            return
        checkpoint = store.all()[0]
        self.session.ldch("p0", checkpoint)
        kept = checkpoint.cycle - self.origin["cycle"]
        if kept >= 0:
            del self.driven[kept:]
        else:
            # A checkpoint from before the session was handed over: no
            # recorded history leads up to it.
            self._start_over_from_the_pipe()
        self.run("step1", 1)

    @rule()
    def repair(self) -> None:
        self.session.verify_consistency("p0", repair=True)
        self.repaired = True

    @rule()
    def rehydrate(self) -> None:
        path = os.path.join(self.tmp, "p0.ckpt")
        self.session.chkp("p0", path)
        before = self.session.peek("p0"), self.session.version
        self.session.close()
        self._open()
        self.session.ldch("p0", path)
        assert (self.session.peek("p0"), self.session.version) == before
        assert self.session.ops("p0") == []
        self._start_over_from_the_pipe()

    @rule(
        delta=st.sampled_from(DELTAS),
        reg=st.sampled_from(REG_NAMES),
        shadow=st.booleans(),
    )
    def edit_right_after_rehydrate(self, delta, reg, shadow) -> None:
        self.rehydrate()
        self.edit(delta, reg, shadow, self.echo)

    @precondition(lambda self: self.repaired and self.driven)
    @rule(data=st.data())
    def replay_window(self, data) -> None:
        # Time-travel equals what was captured live, wherever the
        # window lies in the recorded history.
        first = self.origin["cycle"]
        last = first + len(self.driven)
        start = data.draw(st.integers(first, last - 1), label="start")
        end = data.draw(st.integers(start + 1, last), label="end")
        replayed = self.session.replay_window("p0", start, end)
        live = self.session.trace_read("p0", "c0", start, end)
        assert replayed["signals"]["c0"] == live["samples"]
        assert len(live["samples"]) == end - start
        self.run("step1", 1)

    # -- invariants -----------------------------------------------------------

    @invariant()
    def no_edge_is_in_flight(self) -> None:
        # The generated ``cycle`` commits pending without first copying
        # current into it: whatever else writes state -- a swap's load,
        # a rewind, a repair, a rehydrated session's ``ldch`` -- has to
        # leave both halves equal and no memory write queued.
        assert_between_edges(self.session.pipe("p0"))

    @invariant()
    def history_covers_pipe_position(self) -> None:
        # Raises when no base can be replayed to where the pipe stands.
        timeline = self.session.timeline("p0")
        timeline.base(timeline.pipe.cycle)
        assert timeline.pipe.cycle == (
            self.origin["cycle"] + len(self.driven)
        )

    @invariant()
    def netlist_is_what_elaboration_from_scratch_gives(self) -> None:
        # Elaboration reuses a ModuleIR per specialization across
        # edits.  A reused IR keeps the lines of the parse that made
        # it, and an edit that adds lines to ``counter`` moves ``top``
        # without re-parsing it: everything but the lines must agree.
        timeline = self.session.timeline("p0")
        scratch = elaborate(
            parse(self.session.compiler.source),
            timeline.module, timeline.params,
        )
        assert without_lines(timeline.compile_result.netlist) == (
            without_lines(scratch)
        )

    @invariant()
    def checkpoints_never_after_now(self) -> None:
        now = self.session.pipe("p0").cycle
        for checkpoint in self.session.checkpoints("p0"):
            assert checkpoint.cycle <= now

    @invariant()
    def store_reads_in_the_current_version(self) -> None:
        # A checkpoint keeps the version it was taken in; what a restore
        # gets is the translated view.
        history = self.session.history
        for checkpoint in self.session.checkpoints("p0"):
            history.path(checkpoint.version, self.session.version)
            view = self.session.in_current_version(checkpoint)
            regs = view.snapshot.state.child("u0").regs
            assert set(regs) - {"shadow_q"} == {self.reg}

    @precondition(lambda self: self.repaired)
    @invariant()
    def repaired_outputs_match_ground_truth(self) -> None:
        pipe = self.session.pipe("p0")
        expected = self.expected()
        assert pipe.outputs() == {"c0": expected["c0"], "c1": expected["c1"]}
        assert pipe.find("u0").peek_reg(self.reg) == expected["c0"]
        assert pipe.get_input("rst") == expected["rst"]
        assert pipe.get_input("step") == expected["step"]

    @invariant()
    def verdicts_tell_the_truth(self) -> None:
        report = self.session.verify_consistency("p0")
        if self.repaired:
            assert report.all_consistent
        if report.verdict == "consistent" and self.session.checkpoints("p0"):
            assert report.segments  # never a verdict over nothing


class SanitizedLiveLoopMachine(LiveLoopMachine):
    sanitize = "report"


LiveLoopMachine.TestCase.settings = SanitizedLiveLoopMachine.TestCase.settings = (
    settings(max_examples=15, stateful_step_count=12, deadline=None)
)
TestLiveLoopStateMachine = LiveLoopMachine.TestCase
TestSanitizedLiveLoopStateMachine = SanitizedLiveLoopMachine.TestCase


def test_a_load_that_forgets_pending_is_caught(monkeypatch):
    """The seeded bug the invariant is there for.  Every register of
    this design is written on every edge, so a ``load`` that fills only
    the current half simulates correctly here; the outputs would never
    show it."""
    real_load = StageInst.load

    def forgetful(self, snap):
        regs = self.code.num_regs
        pending = self.state[regs : 2 * regs]
        real_load(self, snap)
        self.state[regs : 2 * regs] = pending

    monkeypatch.setattr(StageInst, "load", forgetful)
    with pytest.raises(AssertionError) as caught:
        run_state_machine_as_test(LiveLoopMachine, settings=settings(
            max_examples=15, stateful_step_count=12, deadline=None,
            database=None, phases=[Phase.generate],
        ))
    assert any(
        frame.name == "assert_between_edges" for frame in caught.traceback
    )
