"""Stateful property testing of the live loop.

A Hypothesis state machine drives a LiveSession through random
interleavings of run / edit / rewind / verify+repair and checks the
one invariant that spans all of them: after repair, the pipeline's
outputs equal an analytically computed ground truth (the counter's
value is a pure function of the cycle count and the *current* adder
delta, because repair re-executes the whole recorded history under the
current design).

Edits also change the register topology -- the counter register is
renamed back and forth and a second register comes and goes -- which
leaves the ground truth alone: a rename carries the state (Table V), so
history stays consistent across it without a repair, and the machine
runs once on clean code and once under the sanitizer.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.live.session import LiveSession
from repro.live.transform import RegisterTransform, TransformOp
from repro.sim.testbench import hold_inputs
from tests.conftest import COUNTER_SRC

DELTAS = [0, 1, 2, 5]
REG_NAMES = ["count_q", "tally_q"]


def design(delta: int, reg: str = "count_q", shadow: bool = False) -> str:
    source = COUNTER_SRC
    if delta:
        source = source.replace(
            "assign sum = a + b;", f"assign sum = a + b + 8'd{delta};"
        )
    if shadow:
        source = source.replace(
            "reg [W-1:0] count_q;",
            "reg [W-1:0] count_q;\n  reg [W-1:0] shadow_q;",
        ).replace(
            "    else\n      count_q <= next;",
            "    else begin\n      count_q <= next;\n"
            "      shadow_q <= count_q;\n    end",
        )
    return source.replace("count_q", reg)


class LiveLoopMachine(RuleBasedStateMachine):
    sanitize = "off"

    @initialize()
    def setup(self) -> None:
        self.session = LiveSession(
            COUNTER_SRC, checkpoint_interval=7, sanitize=self.sanitize
        )
        self.session.inst_pipe("p0", self.session.stage_handle_for("top"))
        self.tb = self.session.load_testbench(hold_inputs(rst=0))
        self.delta = 0  # current adder modification
        self.reg = "count_q"  # current name of the counter register
        self.shadow = False  # is the second register there?
        self.repaired = True  # history currently consistent with design

    # -- actions -------------------------------------------------------------

    @rule(cycles=st.integers(min_value=1, max_value=23))
    def run(self, cycles: int) -> None:
        self.session.run(self.tb, "p0", cycles)

    @rule(
        delta=st.sampled_from(DELTAS),
        reg=st.sampled_from(REG_NAMES),
        shadow=st.booleans(),
    )
    def edit(self, delta: int, reg: str, shadow: bool) -> None:
        # The rename is stated (the two names are too unlike for the
        # guess); the second register is left to the guess.
        transforms = None
        if reg != self.reg:
            transforms = {"counter": RegisterTransform(
                [TransformOp("rename", self.reg, new_name=reg)]
            )}
        report = self.session.apply_change(
            design(delta, reg, shadow), transforms=transforms
        )
        assert report.behavioral == (
            (delta, reg, shadow) != (self.delta, self.reg, self.shadow)
        )
        # A new adder rewrites history; so does a register the stored
        # checkpoints hold no value for.  A rename or a removal does not.
        if delta != self.delta or (shadow and not self.shadow):
            self.repaired = False
        self.delta, self.reg, self.shadow = delta, reg, shadow

    @rule()
    def rewind_to_some_checkpoint(self) -> None:
        store = self.session.store("p0")
        if len(store):
            self.session.ldch("p0", store.all()[0])

    @rule()
    def repair(self) -> None:
        self.session.verify_consistency("p0", repair=True)
        self.repaired = True

    # -- invariants -----------------------------------------------------------

    @invariant()
    def history_covers_pipe_position(self) -> None:
        ops = self.session.ops("p0")
        end = ops[-1].end_cycle if ops else 0
        assert self.session.pipe("p0").cycle <= end or not ops

    @invariant()
    def checkpoints_never_after_now(self) -> None:
        ops = self.session.ops("p0")
        history_end = ops[-1].end_cycle if ops else 0
        for checkpoint in self.session.checkpoints("p0"):
            assert checkpoint.cycle <= history_end

    @precondition(lambda self: self.repaired)
    @invariant()
    def repaired_outputs_match_analytic_model(self) -> None:
        pipe = self.session.pipe("p0")
        cycle = pipe.cycle
        # The adder computes count + step + delta: u0 advances by
        # 1+delta per cycle, u1 by 3+delta.
        assert pipe.outputs()["c0"] == (cycle * (1 + self.delta)) & 0xFF
        assert pipe.outputs()["c1"] == (cycle * (3 + self.delta)) & 0xFF
        assert pipe.find("u0").peek_reg(self.reg) == pipe.outputs()["c0"]

    @precondition(lambda self: self.repaired)
    @invariant()
    def repaired_history_verifies(self) -> None:
        report = self.session.verify_consistency("p0")
        assert report.all_consistent


class SanitizedLiveLoopMachine(LiveLoopMachine):
    sanitize = "report"


LiveLoopMachine.TestCase.settings = SanitizedLiveLoopMachine.TestCase.settings = (
    settings(max_examples=15, stateful_step_count=12, deadline=None)
)
TestLiveLoopStateMachine = LiveLoopMachine.TestCase
TestSanitizedLiveLoopStateMachine = SanitizedLiveLoopMachine.TestCase
