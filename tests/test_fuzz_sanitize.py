"""Differential fuzzing of the sanitizer over the clean corpus.

Reuses the generators from :mod:`tests.test_fuzz_codegen` and
:mod:`tests.test_fuzz_hierarchy`, recompiled with instrumentation in
``report`` mode.  Two properties must hold on every example:

* value transparency — the sanitized pipe agrees bit-for-bit with the
  clean pipe (the hooks never perturb simulation semantics);
* no invented findings — uninit-read, oob-index, and nb-write-conflict
  never fire on a cold, in-bounds, single-writer corpus, and
  trunc-overflow fires exactly when the reference interpreter says the
  output assignment actually dropped nonzero bits.

Both fuzzers also run with check elision by width active
(``san_elide``, through the pass pipeline): the elided
build must agree bit-for-bit with the clean build AND report exactly
the hit counters of the unelided build — on the clean corpus and on a
seeded-bug corpus where findings genuinely fire.  Elision removing a
check that would have reported is the bug class these pin down.

A cold start has no poison, so the elided build's poison-free bodies
are all the corpora above exercise.  The poisoned-start differential loads
a snapshot with random registers and memory words poisoned into both
builds and steps them side by side (or, in one draw, exactly the
registers the first cycle writes, so that the elided build goes back
to its poison-free bodies after that cycle), and brings a register in through
every route a new version takes into a running pipe: it is poisoned on
each, with the same hits and findings in both builds.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import compile_design
from repro.codegen.build import BuildConfig
from repro.hdl import elaborate, parse
from repro.hdl.parser import parse_expr
from repro.live.transform import RegisterTransform
from repro.passes import compile_netlist
from repro.sanitize import (
    SAN_NB_CONFLICT,
    SAN_OOB,
    SAN_TRUNC,
    SAN_UNINIT,
    SanitizerRuntime,
)
from repro.sim import Pipe
from repro.sim.pipeline import PipeSnapshot
from tests.conftest import hooked_source
from tests.test_fuzz_codegen import (
    OUT_WIDTH,
    STIMULI,
    expr_text,
    module_for,
    ref_eval,
)
from tests.test_fuzz_hierarchy import random_design, stimulus


def sanitized_pipe(source, top):
    runtime = SanitizerRuntime(mode="report")
    netlist = elaborate(parse(source), top)
    library = compile_netlist(
        netlist, BuildConfig(sanitize=True, san_elide=False),
        sanitize_runtime=runtime,
    )
    return Pipe(netlist.top, library), runtime


def pipeline_pipe(source, top, san_elide=True, opt="none"):
    """Sanitized build through the pass pipeline (elision on/off)."""
    runtime = SanitizerRuntime(mode="report")
    netlist = elaborate(parse(source), top)
    library = compile_netlist(
        netlist,
        BuildConfig(sanitize=True, opt=opt, san_elide=san_elide),
        sanitize_runtime=runtime,
    )
    return Pipe(netlist.top, library), library, runtime


class TestExpressionFuzzSanitized:
    @given(expr=expr_text())
    @settings(max_examples=60, deadline=None)
    def test_report_mode_is_value_transparent(self, expr):
        source = module_for(expr)
        netlist, library = compile_design(source, "m")
        clean = Pipe(netlist.top, library)
        pipe, runtime = sanitized_pipe(source, "m")
        tree = parse_expr(expr)
        expect_trunc = False
        for env in STIMULI:
            clean.set_inputs(**env)
            pipe.set_inputs(**env)
            assert pipe.eval()["y"] == clean.eval()["y"], expr
            if ref_eval(tree, env) >> OUT_WIDTH:
                expect_trunc = True
        # The cold corpus is clean for every stateful check...
        assert runtime.hits[SAN_UNINIT] == 0, expr
        assert runtime.hits[SAN_OOB] == 0, expr
        assert runtime.hits[SAN_NB_CONFLICT] == 0, expr
        # ...and truncation fires exactly when the reference semantics
        # say the (only) assignment dropped nonzero bits.
        assert (runtime.hits[SAN_TRUNC] > 0) == expect_trunc, expr


class TestHierarchyFuzzSanitized:
    @given(source=random_design(), stim=stimulus())
    @settings(max_examples=25, deadline=None)
    def test_clean_corpus_has_zero_findings(self, source, stim):
        netlist, library = compile_design(source, "top")
        clean = Pipe(netlist.top, library)
        pipe, runtime = sanitized_pipe(source, "top")
        for inputs in stim:
            clean.set_inputs(**inputs)
            pipe.set_inputs(**inputs)
            assert pipe.eval() == clean.eval(), source
            clean.tick()
            pipe.tick()
        assert runtime.findings == [], source
        assert all(count == 0 for count in runtime.hits.values()), source


class TestExpressionFuzzElided:
    @given(expr=expr_text())
    @settings(max_examples=60, deadline=None)
    def test_elision_is_value_and_finding_transparent(self, expr):
        # The expression corpus doubles as the trunc-overflow seeded
        # corpus: module_for() assigns into a fixed-width output, so a
        # slice of the examples genuinely fires trunc findings.
        source = module_for(expr)
        netlist, library = compile_design(source, "m")
        clean = Pipe(netlist.top, library)
        elided, elided_lib, e_rt = pipeline_pipe(source, "m")
        full, full_lib, f_rt = pipeline_pipe(source, "m", san_elide=False)
        for env in STIMULI:
            clean.set_inputs(**env)
            elided.set_inputs(**env)
            full.set_inputs(**env)
            y = clean.eval()["y"]
            assert elided.eval()["y"] == y, expr
            assert full.eval()["y"] == y, expr
        # Bit-exact is necessary but not sufficient: elision must not
        # change WHAT fires either.
        assert e_rt.hits == f_rt.hits, expr
        (full_mod,) = full_lib.values()
        assert full_mod.san_elided == 0


class TestHierarchyFuzzElided:
    @given(source=random_design(), stim=stimulus())
    @settings(max_examples=25, deadline=None)
    def test_elided_hierarchy_bit_exact_with_equal_findings(
        self, source, stim
    ):
        netlist, library = compile_design(source, "top")
        clean = Pipe(netlist.top, library)
        elided, _, e_rt = pipeline_pipe(source, "top", opt="full")
        full, _, f_rt = pipeline_pipe(
            source, "top", san_elide=False, opt="full"
        )
        for inputs in stim:
            for pipe in (clean, elided, full):
                pipe.set_inputs(**inputs)
            out = clean.eval()
            assert elided.eval() == out, source
            assert full.eval() == out, source
            for pipe in (clean, elided, full):
                pipe.tick()
        assert e_rt.hits == f_rt.hits, source


# Seeded-bug corpus: designs where findings MUST fire.  Elision is
# only admissible if the elided build reports the identical hits.

# A 4-word memory walked by a 3-bit counter: oob fires on the upper
# half of the count range.
SEEDED_OOB_MEM = """
module top (
  input clk,
  input rst,
  input [7:0] x,
  output [7:0] out
);
  reg [7:0] mem [0:3];
  reg [2:0] idx_q;
  assign out = mem[idx_q];
  always @(posedge clk) begin
    mem[idx_q[1:0]] <= x;
    if (rst) idx_q <= 0;
    else idx_q <= idx_q + 3'd1;
  end
endmodule
"""

# An input-driven bit index over an 8-bit signal: oob fires whenever
# x[3:0] > 7 (unprovable either way, so the site must stay).
SEEDED_OOB_BIT = """
module top (
  input clk,
  input rst,
  input [7:0] x,
  output out
);
  wire [7:0] word;
  assign word = x ^ 8'h5A;
  assign out = word[x[3:0]];
endmodule
"""

# A genuinely lossy truncation: x + 255 can carry into bit 8.
SEEDED_TRUNC = """
module top (
  input clk,
  input rst,
  input [7:0] x,
  output [7:0] out
);
  wire [8:0] wide;
  assign wide = {1'b0, x} + 9'd255;
  assign out = wide;
endmodule
"""


class TestSeededBugsElided:
    @pytest.mark.parametrize("source,kind", [
        (SEEDED_OOB_MEM, SAN_OOB),
        (SEEDED_OOB_BIT, SAN_OOB),
        (SEEDED_TRUNC, SAN_TRUNC),
    ])
    @pytest.mark.parametrize("opt", ["none", "full"])
    def test_elision_never_suppresses_a_seeded_finding(
        self, source, kind, opt
    ):
        elided, _, e_rt = pipeline_pipe(source, "top", opt=opt)
        full, _, f_rt = pipeline_pipe(
            source, "top", san_elide=False, opt=opt
        )
        for cycle in range(16):
            x = (cycle * 37 + 11) & 0xFF
            for pipe in (elided, full):
                pipe.set_inputs(rst=0, x=x)
            assert elided.eval() == full.eval(), source
            for pipe in (elided, full):
                pipe.tick()
        assert f_rt.hits[kind] > 0, "corpus failed to seed the bug"
        assert e_rt.hits == f_rt.hits, source

    def test_hot_reload_uninit_read_survives_elision(self):
        # The acceptance scenario from test_sanitize, but compiled
        # through the pipeline with elision + full opt: the swapped-in
        # shadow register is NOT provably constant (it latches the
        # counter), so its read keeps the rr check and the uninit
        # finding still fires on the first post-swap cycle.
        from repro.live.session import LiveSession
        from repro.sim.testbench import reset_sequence
        from tests.test_sanitize import EDIT, SRC

        session = LiveSession(
            SRC, checkpoint_interval=10, sanitize="report", opt="full"
        )
        tb = session.load_testbench(reset_sequence("rst", cycles=2))
        session.inst_pipe("p0", session.stage_handle_for("top"))
        session.run(tb, "p0", 25)
        session.apply_change(EDIT)
        session.run(tb, "p0", 1)
        findings = session.sanitize_runtime.findings
        assert any(f.kind == SAN_UNINIT for f in findings)


# Poison only appears after a reload or a restore: the elided build then
# leaves its poison-free path.  The corpus adds, to the random
# hierarchies, registers written under an enable (their poison can
# outlive a cycle), a memory, a child whose register is read from its
# state, and a register two blocks write (plain ``nw`` hooks in both
# builds).
POISONABLE = """
module cell (input clk, input en, input [7:0] d, output [7:0] q);
  reg [7:0] q;
  always @(posedge clk) if (en) q <= d;
endmodule

module top (
  input clk,
  input rst,
  input [7:0] x,
  input [7:0] late,
  output [7:0] y
);
  reg [7:0] mem [0:3];
  reg [1:0] idx_q;
  reg [7:0] held_q;
  reg [7:0] split_q;
  wire [7:0] c;
  cell u (.clk(clk), .en(late[0]), .d(x ^ held_q), .q(c));
  assign y = mem[idx_q] ^ held_q ^ split_q ^ c;
  always @(posedge clk) begin
    idx_q <= x[1:0];
    if (late[1]) mem[x[3:2]] <= x ^ late;
    if (late[2]) held_q <= held_q + mem[idx_q];
  end
  always @(posedge clk) begin
    if (rst) split_q[3:0] <= 4'd0;
    else if (late[3]) split_q[3:0] <= x[3:0];
  end
  always @(posedge clk) begin
    if (late[4]) split_q[7:4] <= late[7:4];
  end
endmodule
"""

# Each site shape the width rule decides: a memory-write address and a
# bit select too narrow to reach their bounds (elided), an arithmetic
# write address as wide as a shallower memory's index space (kept: it
# reports on 6 and 7), and a too-wide assignment of a constant whose
# value fits (kept, inline: no rule reads a value).
WIDTH_RULE = """
module top (
  input clk,
  input rst,
  input [7:0] x,
  output [7:0] y,
  output bit_y
);
  reg [7:0] mem [0:3];
  reg [7:0] small [0:5];
  reg [2:0] idx_q;
  reg [7:0] acc_q;
  wire [7:0] word;
  assign word = x ^ acc_q;
  assign bit_y = word[idx_q];
  assign y = mem[idx_q[1:0]] ^ small[x[1:0]] ^ acc_q;
  always @(posedge clk) begin
    idx_q <= idx_q + 3'd1;
    mem[idx_q[1:0]] <= x;
    small[idx_q + 3'd2] <= x;
    if (rst) acc_q <= 0;
    else acc_q <= acc_q ^ x;
  end
endmodule
"""

# Word ``ra`` is read, word ``wa`` written.
MEM_RW = """
module top (
  input clk,
  input we,
  input [1:0] wa,
  input [1:0] ra,
  input [7:0] d,
  output [7:0] q
);
  reg [7:0] mem [0:3];
  assign q = mem[ra];
  always @(posedge clk) if (we) mem[wa] <= d;
endmodule
"""

# Two blocks write every bit of ``q`` when both enables are high.
TWO_WRITERS = """
module top (
  input clk,
  input en1,
  input en2,
  input [3:0] a,
  input [3:0] b,
  output [3:0] y
);
  reg [3:0] q;
  assign y = q;
  always @(posedge clk) begin
    if (en1) q <= a;
  end
  always @(posedge clk) begin
    if (en2) q <= b;
  end
endmodule
"""


def _drive(pipe, inputs):
    pipe.set_inputs(**{name: value for name, value in inputs.items()
                       if name in pipe.input_names})


def _poisoned(snap, pick_regs, pick_words):
    """``snap`` with the registers ``pick_regs(names)`` chooses and the
    memory words ``pick_words(name, depth)`` chooses marked poisoned,
    over the whole subtree."""
    return snap.replace(
        reg_poison=tuple(pick_regs(sorted(snap.regs))),
        mem_poison={name: pick_words(name, len(words))
                    for name, words in snap.mems.items()},
        children=[_poisoned(child, pick_regs, pick_words)
                  for child in snap.children],
    )


def _restore_poisoned(pipe, regs=(), words=None):
    """Restore ``pipe``'s own state with ``regs`` and the memory word
    bitmaps in ``words`` poisoned, as a restore or a reload would."""
    snap = pipe.snapshot()
    state = _poisoned(snap.state, lambda names: regs,
                      lambda name, depth: (words or {}).get(name, 0))
    pipe.restore(PipeSnapshot(snap.cycle, snap.inputs, state))


def _reg_poison(pipe):
    return _reg_poison_of(pipe.top)


def _reg_poison_of(inst):
    return inst.state[inst.code.layout.reg_poison_slot]


def _first_written(snap, probe):
    """``snap`` with exactly the registers poisoned that ``probe`` (the
    same subtree one cycle on from ``snap`` with every register
    poisoned) no longer has poisoned: those that cycle wrote."""
    return snap.replace(
        reg_poison=tuple(name for name in sorted(snap.regs)
                         if name not in probe.reg_poison),
        children=[_first_written(child, after)
                  for child, after in zip(snap.children, probe.children)],
    )


# A child whose output is read every cycle, and an edit that gives it a
# register every write of which is zero.
STUCK = """
module cell (input clk, input [7:0] d, output [7:0] q);
  reg [7:0] q_r;
  assign q = q_r;
  always @(posedge clk) q_r <= d;
endmodule

module top (input clk, input rst, input [7:0] x, output [7:0] y);
  cell u (.clk(clk), .d(x ^ {7'd0, rst}), .q(y));
endmodule
"""
STUCK_EDIT = STUCK.replace(
    "  assign q = q_r;\n  always @(posedge clk) q_r <= d;\n",
    "  reg [7:0] stuck;\n  assign q = q_r ^ stuck;\n"
    "  always @(posedge clk) begin\n    q_r <= d;\n    stuck <= 8'd0;\n"
    "  end\n",
)


def _stuck_session(san_elide):
    """A sanitized session on STUCK, run for 25 cycles (checkpoints at
    10 and 20)."""
    from repro.live.session import LiveSession
    from repro.sim.testbench import reset_sequence

    session = LiveSession(STUCK, checkpoint_interval=10, sanitize="report")
    session.set_build(dataclasses.replace(session.compiler.build,
                                          san_elide=san_elide))
    assert session.load_testbench(reset_sequence("rst")) == "tb0"
    session.inst_pipe("p0", session.stage_handle_for("top"))
    session.run("tb0", "p0", 25)
    return session, session.sanitize_runtime


def _ldch_pre_edit_file(session, path):
    session.chkp("p0", path)
    session.apply_change(STUCK_EDIT)
    session.run("tb0", "p0", 5)
    session.ldch("p0", path)


def _swap_stage(session, path):
    session.compiler.update_source(STUCK_EDIT)
    session.swap_stage("p0", "u")


# Every route by which a version brings ``stuck`` into a running pipe.
CREATE_ROUTES = {
    "guessed transform": lambda session, path: session.apply_change(
        STUCK_EDIT),
    "explicit transform without a create": lambda session, path:
        session.apply_change(STUCK_EDIT, {"cell": RegisterTransform()}),
    "ldch of a pre-edit file": _ldch_pre_edit_file,
    "swapStage": _swap_stage,
}


class TestPoisonedStart:
    @given(
        source=st.one_of(random_design(), st.sampled_from(
            [POISONABLE, SEEDED_OOB_MEM, WIDTH_RULE])),
        stim=stimulus(),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_elided_equals_plain_hooks_every_cycle(self, source, stim, data):
        elided, _, e_rt = pipeline_pipe(source, "top")
        plain, _, p_rt = pipeline_pipe(source, "top", san_elide=False)
        pipes = (elided, plain)
        # Two cold cycles give the registers values worth poisoning.
        for inputs in stim[:2]:
            for pipe in pipes:
                _drive(pipe, inputs)
                pipe.step(1)
        snap = elided.snapshot()
        switch_back = data.draw(st.booleans(), label="switch back")
        if switch_back:
            # Poison exactly the registers the first cycle writes: its
            # commit leaves every bitmap zero, and the elided build runs
            # its poison-free bodies from the second cycle on.  A probe
            # cycle from every register poisoned tells which those are.
            elided.restore(PipeSnapshot(snap.cycle, snap.inputs, _poisoned(
                snap.state, lambda names: names, lambda name, depth: 0)))
            _drive(elided, stim[0])
            elided.eval()
            elided.tick()
            state = _first_written(snap.state, elided.top.snapshot())
            for runtime in (e_rt, p_rt):
                runtime.reset()
        else:
            state = _poisoned(
                snap.state,
                lambda names: data.draw(
                    st.lists(st.sampled_from(names), unique=True)
                    if names else st.just([])
                ),
                lambda name, depth: data.draw(st.integers(0, (1 << depth) - 1)),
            )
        for pipe in pipes:
            pipe.restore(PipeSnapshot(snap.cycle, snap.inputs, state))
        for inputs in stim:
            for pipe in pipes:
                _drive(pipe, inputs)
            assert elided.eval() == plain.eval(), source
            for pipe in pipes:
                pipe.tick()
            if switch_back:
                assert not any(_reg_poison_of(inst) for _, inst in elided.top.walk())
            assert elided.top.snapshot() == plain.top.snapshot(), source
            assert e_rt.hits == p_rt.hits, source
            assert e_rt.findings == p_rt.findings, source

    @pytest.mark.parametrize("route", sorted(CREATE_ROUTES))
    def test_a_created_register_is_poisoned_on_every_route(
        self, route, tmp_path
    ):
        results = []
        for san_elide in (True, False):
            session, runtime = _stuck_session(san_elide)
            CREATE_ROUTES[route](session, str(tmp_path / f"{san_elide}"))
            session.run("tb0", "p0", 3)
            uninit = [f for f in runtime.findings if f.kind == SAN_UNINIT]
            # Its every write is zero and the facts prove it constant:
            # it is poisoned all the same.
            assert runtime.hits[SAN_UNINIT] > 0, route
            assert all(f.message.startswith("stuck:") for f in uninit), route
            results.append((dict(runtime.hits), runtime.findings))
        assert results[0] == results[1], route


@pytest.mark.parametrize("san_elide", [True, False])
class TestPoisonLifecycle:
    def test_written_register_reads_clean_the_next_cycle(self, san_elide):
        from tests.test_sanitize import SRC

        pipe, _, runtime = pipeline_pipe(SRC, "top", san_elide=san_elide)
        pipe.set_inputs(rst=0)
        pipe.step(3)
        _restore_poisoned(pipe, regs=("count_q",))
        # Cycle N reads count_q twice (the output, the increment) and
        # writes it.
        pipe.step(1)
        assert runtime.hits[SAN_UNINIT] == 2
        assert _reg_poison(pipe) == 0
        pipe.step(5)  # N + 1 on: clean
        assert runtime.hits[SAN_UNINIT] == 2
        assert pipe.outputs()["count"] == 9

    def test_written_memory_word_is_cleared(self, san_elide):
        pipe, _, runtime = pipeline_pipe(MEM_RW, "top", san_elide=san_elide)
        _restore_poisoned(pipe, words={"mem": 0b0110})
        spec = pipe.top.code.mem_specs["mem"]
        pipe.set_inputs(we=1, wa=1, ra=0, d=7)
        pipe.step(1)  # reads clean word 0, writes poisoned word 1
        assert runtime.hits[SAN_UNINIT] == 0
        assert pipe.top.state[spec.poison_slot] == 0b0100
        pipe.set_inputs(we=0, ra=1)
        assert pipe.eval()["q"] == 7
        assert runtime.hits[SAN_UNINIT] == 0
        pipe.set_inputs(ra=2)  # never written: still poisoned
        pipe.eval()
        assert runtime.hits[SAN_UNINIT] == 1

    def test_two_writer_conflict_reports_without_poison(self, san_elide):
        pipe, library, runtime = pipeline_pipe(
            TWO_WRITERS, "top", san_elide=san_elide
        )
        assert hooked_source(library["top"].source).count("_san.nw(") == 2
        pipe.set_inputs(en1=1, en2=0, a=3, b=9)
        pipe.step(1)
        assert runtime.hits[SAN_NB_CONFLICT] == 0
        pipe.set_inputs(en2=1)
        pipe.step(1)
        assert _reg_poison(pipe) == 0
        assert runtime.hits[SAN_NB_CONFLICT] == 1
        assert runtime.hits[SAN_UNINIT] == 0


class TestWidthRule:
    def test_elides_by_width_and_reports_like_plain_hooks(self):
        elided, e_lib, e_rt = pipeline_pipe(WIDTH_RULE, "top")
        plain, p_lib, p_rt = pipeline_pipe(WIDTH_RULE, "top",
                                           san_elide=False)
        e_mod, p_mod = e_lib["top"], p_lib["top"]
        # Of the three ob sites, word[idx_q] and mem[idx_q[1:0]] are
        # the elided ones.
        assert e_mod.san_sites == p_mod.san_sites
        assert (e_mod.san_elided, p_mod.san_elided) == (2, 0)
        assert hooked_source(e_mod.source).count("_san.ob(") == 1  # small[idx_q + 2]
        assert hooked_source(p_mod.source).count("_san.ob(") == 3
        assert "_san.tr(" in hooked_source(e_mod.source)  # its value fits; it stays
        pipes = (elided, plain)
        for cycle in range(24):
            if cycle == 9:  # a restore poisons every register and word
                for pipe in pipes:
                    _restore_poisoned(pipe, regs=("acc_q", "idx_q"),
                                      words={"mem": 0b1111,
                                             "small": 0b111111})
            for pipe in pipes:
                pipe.set_inputs(rst=int(cycle < 2 or cycle == 15),
                                x=(cycle * 37 + 11) & 0xFF)
            assert elided.eval() == plain.eval()
            for pipe in pipes:
                pipe.tick()
            assert elided.top.snapshot() == plain.top.snapshot()
        assert p_rt.hits[SAN_OOB] > 0  # small[6] and small[7] report
        assert p_rt.hits[SAN_UNINIT] > 0
        assert e_rt.hits == p_rt.hits
        assert e_rt.findings == p_rt.findings
