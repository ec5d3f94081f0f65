"""HDL sanitizer tests (:mod:`repro.sanitize`).

Covers the runtime hooks in isolation, each check end-to-end through
instrumented codegen, the acceptance scenario — a hot reload that
introduces an uninitialized-register read is caught at the first
offending cycle in ``trap`` mode and reported-but-continues in
``report`` mode, over BOTH the shell and the server — plus the
compile-cache/artifact-store key separation and the ERD report's
sanitized-vs-clean compile split.
"""

from __future__ import annotations

import dataclasses
import io
from pathlib import Path

import pytest

from repro.__main__ import Shell
from repro.codegen.build import BuildConfig
from repro.codegen.callplan import Wiring
from repro.codegen.pygen import ModuleCompiler, site_count
from repro.hdl import elaborate, parse
from repro.hdl.errors import SimulationError
from repro.live.commands import CommandError, CommandInterpreter
from repro.live.compiler_live import LiveCompiler
from repro.live.session import LiveSession
from repro.passes import compile_netlist
from repro.sanitize import (
    SAN_NB_CONFLICT,
    SAN_OOB,
    SAN_TRUNC,
    SAN_UNINIT,
    SanitizerError,
    SanitizerRuntime,
)
from repro.server.client import ServerError
from repro.server.frontend import ShardedFrontend
from repro.server.store import ArtifactStore
from repro.sim import Pipe
from repro.sim.testbench import reset_sequence
from tests.conftest import assert_between_edges

DESIGNS = Path(__file__).resolve().parent.parent / "examples" / "designs"

# The acceptance scenario: the edit adds a register that is READ (the
# xor in the comb assign) in the same cycle the swap lands, before the
# new seq write has ever run — a classic hot-reload uninit bug.
SRC = """
module top (
  input clk,
  input rst,
  output [7:0] count
);
  reg [7:0] count_q;
  assign count = count_q;
  always @(posedge clk) begin
    if (rst)
      count_q <= 8'd0;
    else
      count_q <= count_q + 8'd1;
  end
endmodule
"""

EDIT = """
module top (
  input clk,
  input rst,
  output [7:0] count
);
  reg [7:0] count_q;
  reg [7:0] shadow_q;
  assign count = count_q ^ shadow_q;
  always @(posedge clk) begin
    if (rst)
      count_q <= 8'd0;
    else
      count_q <= count_q + 8'd1;
    shadow_q <= count;
  end
endmodule
"""

# The read of shadow_q (the xor) sits on this file-absolute line of EDIT.
EDIT_READ_LINE = EDIT.splitlines().index(
    "  assign count = count_q ^ shadow_q;"
) + 1

# Memory variant: the edit drops the index mask, so the 3-bit counter
# walks past the 4-word memory.
MEM_SRC = """
module top (
  input clk,
  input rst,
  output [7:0] out
);
  reg [7:0] mem [0:3];
  reg [2:0] idx_q;
  assign out = mem[idx_q[1:0]];
  always @(posedge clk) begin
    if (rst) idx_q <= 0;
    else idx_q <= idx_q + 3'd1;
  end
endmodule
"""
MEM_EDIT = MEM_SRC.replace("mem[idx_q[1:0]]", "mem[idx_q]")


def sanitized_pipe(source, top, mode="report"):
    runtime = SanitizerRuntime(mode=mode)
    netlist = elaborate(parse(source), top)
    library = compile_netlist(
        netlist, BuildConfig(sanitize=True, san_elide=False),
        sanitize_runtime=runtime,
    )
    return Pipe(netlist.top, library), runtime


def live_session(source=SRC, sanitize="off", cycles=25):
    session = LiveSession(source, checkpoint_interval=10, sanitize=sanitize)
    tb = session.load_testbench(reset_sequence("rst", cycles=2))
    session.inst_pipe("p0", session.stage_handle_for("top"))
    if cycles:
        session.run(tb, "p0", cycles)
    return session, tb


# ---------------------------------------------------------------------------
# Runtime hooks in isolation
# ---------------------------------------------------------------------------


class TestRuntimeHooks:
    SITE = ("m", "q", 7)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown sanitize mode"):
            SanitizerRuntime(mode="loud")
        with pytest.raises(SimulationError, match="sanitize"):
            LiveSession(SRC, sanitize="loud")

    def test_hooks_are_value_transparent(self):
        rt = SanitizerRuntime(mode="report")
        assert rt.rr(0b10, 1, 42, self.SITE) == 42
        assert rt.mr([5, 6], 0b01, 3, self.SITE) == 6  # 3 % 2 == 1
        assert rt.ob(9, 4, self.SITE) == 9
        assert rt.tr(0x1FF, 0xFF, self.SITE) == 0x1FF

    def test_report_dedups_sites_but_counts_every_hit(self):
        rt = SanitizerRuntime(mode="report")
        for _ in range(3):
            rt.rr(1, 0, 0, self.SITE)
        assert rt.hits[SAN_UNINIT] == 3
        assert len(rt.findings) == 1
        diag = rt.findings[0]
        assert diag.kind == SAN_UNINIT
        assert diag.module == "m" and diag.line == 7
        assert diag.check == "sanitize" and diag.severity == "warning"

    def test_off_mode_counts_but_never_records(self):
        rt = SanitizerRuntime(mode="off")
        rt.ob(9, 4, self.SITE)
        assert rt.hits[SAN_OOB] == 1
        assert rt.findings == []

    def test_trap_mode_raises_with_site(self):
        rt = SanitizerRuntime(mode="trap")
        with pytest.raises(SanitizerError) as exc_info:
            rt.mr([0, 0], 0, 5, self.SITE)
        exc = exc_info.value
        assert exc.kind == SAN_OOB
        assert (exc.module, exc.signal, exc.line) == self.SITE
        assert isinstance(exc, SimulationError)

    def test_nw_conflict_only_across_blocks_with_overlap(self):
        rt = SanitizerRuntime(mode="report")
        writes = {}
        rt.nw(writes, 0, 0, 0x0F, self.SITE)
        rt.nw(writes, 0, 0, 0x0F, self.SITE)  # same block: fine
        assert rt.hits[SAN_NB_CONFLICT] == 0
        rt.nw(writes, 0, 1, 0xF0, self.SITE)  # disjoint bits: fine
        assert rt.hits[SAN_NB_CONFLICT] == 0
        rt.nw(writes, 0, 2, 0x18, self.SITE)  # overlaps the union
        assert rt.hits[SAN_NB_CONFLICT] == 1

    def test_reset_preserves_mode(self):
        rt = SanitizerRuntime(mode="report")
        rt.ob(9, 4, self.SITE)
        rt.reset()
        assert rt.mode == "report"
        assert rt.findings == [] and rt.hits[SAN_OOB] == 0


# ---------------------------------------------------------------------------
# Each check through instrumented codegen
# ---------------------------------------------------------------------------


class TestChecksThroughCodegen:
    def test_cold_start_is_never_poisoned(self):
        pipe, rt = sanitized_pipe(SRC, "top")
        pipe.set_inputs(rst=0)
        pipe.step(10)
        assert rt.findings == []
        assert all(count == 0 for count in rt.hits.values())

    def test_oob_part_select(self):
        src = """
module m (
  input clk,
  input [5:0] data,
  input [2:0] idx,
  output y
);
  assign y = data[idx];
endmodule
"""
        pipe, rt = sanitized_pipe(src, "m")
        pipe.set_inputs(data=0b100000, idx=5)
        assert pipe.eval()["y"] == 1
        assert rt.hits[SAN_OOB] == 0
        pipe.set_inputs(idx=7)
        assert pipe.eval()["y"] == 0  # clean semantics: reads as zero
        assert rt.hits[SAN_OOB] == 1
        assert "index 7 out of range [0, 6)" in rt.findings[0].message

    def test_trunc_overflow_reports_lost_bits(self):
        src = """
module m (
  input clk,
  input [7:0] a,
  input [7:0] b,
  output [3:0] y
);
  assign y = a + b;
endmodule
"""
        pipe, rt = sanitized_pipe(src, "m")
        pipe.set_inputs(a=3, b=4)
        assert pipe.eval()["y"] == 7
        assert rt.hits[SAN_TRUNC] == 0  # value fits: silent
        pipe.set_inputs(a=0xF0, b=1)
        assert pipe.eval()["y"] == 1  # still masked like clean code
        assert rt.hits[SAN_TRUNC] == 1
        assert "lost bits 0xf0" in rt.findings[0].message

    def test_nb_write_conflict_is_dynamic(self):
        src = """
module m (
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
        pipe, rt = sanitized_pipe(src, "m")
        pipe.set_inputs(en1=1, en2=0, a=3, b=9)
        pipe.step(1)
        assert rt.hits[SAN_NB_CONFLICT] == 0  # one writer per cycle: fine
        pipe.set_inputs(en1=1, en2=1)
        pipe.step(1)
        assert rt.hits[SAN_NB_CONFLICT] == 1
        assert rt.findings[0].kind == SAN_NB_CONFLICT
        assert "another always block" in rt.findings[0].message


# ---------------------------------------------------------------------------
# A trap is raised after the clock edge; anything else tears the pipe
# ---------------------------------------------------------------------------

# ``hidden`` is read at the edge only (no output depends on it), so a
# poisoned ``hidden`` fires inside ``cycle``; in ``b`` that is after
# ``a`` has already committed.  The top's own register and memory are
# written every cycle, before the children run.
SIBLINGS = """
module stage (input clk, input rst, input [7:0] d, output [7:0] q);
  reg [7:0] q;
  reg [7:0] hidden;
  always @(posedge clk) begin
    hidden <= rst ? 8'd1 : hidden + d;
    q <= rst ? 8'd0 : q + hidden;
  end
endmodule
module top (input clk, input rst, input [7:0] x, output [7:0] y);
  wire [7:0] qa;
  wire [7:0] qb;
  reg [7:0] r;
  reg [7:0] m [0:3];
  stage a (.clk(clk), .rst(rst), .d(x), .q(qa));
  stage b (.clk(clk), .rst(rst), .d(qa ^ r), .q(qb));
  assign y = qb ^ r ^ m[r[1:0]];
  always @(posedge clk) begin
    r <= rst ? 8'd0 : r + 8'd3;
    m[r[1:0]] <= x;
  end
endmodule
"""
# ``cycle`` runs the statement writing ``q`` first: it reads ``hidden``,
# which the other statement then writes in place (callplan.edge_plan).
# So the first read of a poisoned ``hidden`` in an edge is this one.
HIDDEN_READ_LINE = SIBLINGS.splitlines().index(
    "    q <= rst ? 8'd0 : q + hidden;"
) + 1


def _running_siblings(mode):
    pipe, runtime = sanitized_pipe(SIBLINGS, "top", mode=mode)
    pipe.set_inputs(rst=1, x=5)
    pipe.step(2)
    pipe.set_inputs(rst=0)
    pipe.step(4)
    return pipe, runtime


def _poison(inst, reg):
    inst.state[inst.code.layout.reg_poison_slot] |= 1 << inst.code.reg_slots[reg]


class TestInterruptedEdge:
    def test_a_trap_in_the_second_sibling_does_not_tear_the_edge(self):
        pipe, runtime = _running_siblings("trap")
        twin, _ = _running_siblings("report")
        for each in (pipe, twin):
            _poison(each.find("b"), "hidden")
        with pytest.raises(SanitizerError) as exc_info:
            pipe.tick()
        exc = exc_info.value
        assert (exc.kind, exc.module, exc.signal, exc.line) == (
            SAN_UNINIT, "stage", "hidden", HIDDEN_READ_LINE
        )
        twin.tick()
        # Every instance took the edge, as in report mode: ``a`` is not
        # one cycle ahead of ``b`` and the top.
        assert pipe.cycle == twin.cycle
        assert pipe.snapshot().state.equal_state(twin.snapshot().state)
        assert_between_edges(pipe)
        runtime.mode = "report"
        for each in (pipe, twin):
            each.set_inputs(x=9)
            each.step(10)
        assert pipe.outputs() == twin.outputs()
        assert pipe.snapshot().state.equal_state(twin.snapshot().state)

    def test_only_the_first_trap_of_an_edge_is_raised(self):
        pipe, runtime = _running_siblings("trap")
        for name in "ab":
            _poison(pipe.find(name), "hidden")
        with pytest.raises(SanitizerError):
            pipe.tick()
        # Recorded, all of them: two reads in each of the two instances.
        assert runtime.hits[SAN_UNINIT] == 4
        pipe.tick()  # the write defined them: nothing is left to raise

    def test_any_other_exception_tears_the_pipe_until_a_restore(self):
        pipe, _ = _running_siblings("trap")
        twin, _ = _running_siblings("trap")
        before = pipe.snapshot()

        def interrupted(*args):
            raise KeyboardInterrupt

        b = pipe.find("b")
        real = b.code
        b.code = dataclasses.replace(real, cycle_fn=interrupted)
        with pytest.raises(KeyboardInterrupt):
            pipe.tick()
        # ``a`` had taken the edge and the top had written its register
        # in place and queued its memory write when the stub raised: the
        # pipe is at no cycle, and says which edge it lost.
        b.code = real
        assert pipe.torn == before.cycle == 6
        assert pipe.cycle == 6
        for refused in (pipe.step, pipe.tick, pipe.eval, pipe.snapshot):
            with pytest.raises(SimulationError, match="torn: the edge from cycle 6"):
                refused()
        with pytest.raises(SimulationError, match="torn"):
            pipe.copy()
        # The edge is over for the sanitizer too: a restore clears the
        # mark, and phase 1 then traps at once.
        pipe.restore(before)
        assert pipe.torn is None
        assert_between_edges(pipe)
        _poison(pipe.top, "r")
        with pytest.raises(SanitizerError):
            pipe.eval()
        pipe.restore(before)
        for each in (pipe, twin):
            each.step(5)
        assert pipe.snapshot().state.equal_state(twin.snapshot().state)


# ---------------------------------------------------------------------------
# A value computed only where it is read keeps its hooks where they were
# ---------------------------------------------------------------------------

# Only ``?:`` arms read ``w``, ``v`` and ``n``.  ``w`` reads register
# ``p`` and ``n`` truncates a sum of it, so their code carries hooks and
# stays at its schedule position; ``v`` is pure and is computed in its
# arm only.  ``p`` is written only when ``x[7]`` is set (cycle 9).
GUARDED_POISON = """
module top (input clk, input sel, input [7:0] x, output [7:0] y,
            output [3:0] z);
  reg [7:0] p;
  wire [7:0] w;
  wire [7:0] v;
  wire [3:0] n;
  assign w = p + 8'd1;
  assign v = x ^ 8'd3;
  assign n = x + p;
  assign y = sel ? w : v;
  assign z = sel ? 4'd0 : n;
  always @(posedge clk) if (x[7]) p <= p + x;
endmodule
"""


@pytest.mark.parametrize("elide", [True, False], ids=["elide", "noelide"])
def test_a_poisoned_register_with_guarded_readers_reports_as_before(elide):
    """Findings and hit counters of a poisoned register read only on
    some paths: the figures the generator gave before it moved any value
    to its reads (pinned)."""
    clean = compile_netlist(elaborate(parse(GUARDED_POISON), "top"))
    assert "v_w = " not in clean["top"].source  # moved into y's arm
    runtime = SanitizerRuntime(mode="report")
    netlist = elaborate(parse(GUARDED_POISON), "top")
    library = compile_netlist(
        netlist, BuildConfig(sanitize=True, san_elide=elide),
        sanitize_runtime=runtime,
    )
    code = library["top"]
    assert "v_w = " in code.source and "v_n = " in code.source
    assert "v_v = " not in code.source
    assert (code.san_sites, code.san_elided) == (5, 0)
    pipe = Pipe(netlist.top, library)
    _poison(pipe.top, "p")
    outputs = []
    for cycle in range(12):
        pipe.set_inputs(sel=int(cycle % 3 == 0),
                        x=cycle * 37 & 0x7F | (0x80 if cycle == 9 else 0))
        outputs.append(tuple(pipe.eval().values()))
        pipe.tick()
    assert outputs == [(1, 0), (38, 5), (73, 10), (1, 0), (23, 4), (58, 9),
                       (1, 0), (0, 3), (43, 8), (1, 0), (113, 15), (20, 4)]
    assert runtime.counters() == {
        SAN_UNINIT: 21, SAN_OOB: 0, SAN_TRUNC: 10, SAN_NB_CONFLICT: 0,
    }
    assert [(d.kind, d.line) for d in runtime.findings] == [
        (SAN_UNINIT, 8), (SAN_UNINIT, 10), (SAN_TRUNC, 10), (SAN_UNINIT, 13),
    ]


# Selects of wires: a dynamic index is an ``ob`` site whether or not its
# width lets the build elide it; a constant one is none.
DYNAMIC_SELECTS = """
module dyn (input [7:0] w, input [2:0] i, input [3:0] j, output y,
            output [3:0] z, output [1:0] p, output q);
  assign y = w[i];
  assign z = w[j +: 4];
  assign p = w[3:2];
  assign q = w[5];
endmodule
"""


def test_the_sink_rule_knows_which_assigns_carry_a_hook(pgas2_netlist_library):
    """The rule that keeps a hooked value in place reads the hooks off
    the expression; it agrees with the generator's own count of the
    sites it writes for each continuous assign alone (``site_count``),
    on the mesh, ``GUARDED_POISON`` and every example design."""
    _, mesh, _ = pgas2_netlist_library
    netlists = [mesh, elaborate(parse(GUARDED_POISON), "top"),
                elaborate(parse(DYNAMIC_SELECTS), "dyn")]
    for path in sorted(DESIGNS.glob("*.v")):
        source = path.read_text()
        netlists.extend(elaborate(parse(source), top)
                        for top in parse(source).modules)
    hooked = 0
    for netlist in netlists:
        for ir in netlist.modules.values():
            compiler = ModuleCompiler(Wiring(ir, netlist), BuildConfig(sanitize=True))
            for index, assign in enumerate(ir.comb_assigns):
                sites = site_count(ir, netlist, ("assign", index))
                assert compiler.is_hooked(assign) == (sites > 0), (
                    ir.key, assign.defines)
                hooked += sites > 0
    assert hooked > 20


# ---------------------------------------------------------------------------
# The acceptance scenario through the live session
# ---------------------------------------------------------------------------


class TestHotReloadUninitRead:
    def test_report_mode_reports_and_continues(self):
        session, tb = live_session(sanitize="report")
        assert session.sanitize_runtime.findings == []
        report = session.apply_change(EDIT)
        assert report.sanitize is True
        uninit = [d for d in report.new_findings if d.kind == SAN_UNINIT]
        assert uninit, [str(d) for d in report.new_findings]
        diag = uninit[0]
        assert diag.module == "top"
        assert "shadow_q" in diag.message
        assert diag.line == EDIT_READ_LINE  # file-absolute
        # report mode: the session keeps simulating past the finding.
        before = session.peek("p0")["count"]
        session.run(tb, "p0", 5)
        assert session.peek("p0")["count"] != before
        # ...and the merged lint view carries the runtime finding too.
        merged = session.lint("p0")
        assert any(d.kind == SAN_UNINIT for d in merged.diagnostics)

    def test_trap_mode_raises_at_first_offending_cycle(self):
        session, _ = live_session(sanitize="trap")
        with pytest.raises(SanitizerError) as exc_info:
            session.apply_change(EDIT)
        exc = exc_info.value
        assert exc.kind == SAN_UNINIT
        assert exc.module == "top"
        assert exc.signal == "shadow_q"
        assert exc.line == EDIT_READ_LINE
        assert "shadow_q" in str(exc) and "line" in str(exc)

    def test_oob_after_reload_via_memory_index(self):
        session, _ = live_session(MEM_SRC, sanitize="report", cycles=30)
        report = session.apply_change(MEM_EDIT)
        oob = [d for d in report.new_findings if d.kind == SAN_OOB]
        assert oob and "memory index" in oob[0].message

    def test_full_replay_from_reset_is_defined(self):
        # With no checkpoint to restore, the reload re-simulates from
        # cycle 0 under the new RTL: every register value is genuinely
        # recomputed from the defined power-on state, so nothing is
        # poisoned and no finding fires.  Only a checkpoint-based
        # replay *introduces* state.
        session = LiveSession(
            SRC, checkpoint_interval=10_000, sanitize="report"
        )
        tb = session.load_testbench(reset_sequence("rst", cycles=2))
        session.inst_pipe("p0", session.stage_handle_for("top"))
        session.run(tb, "p0", 25)
        report = session.apply_change(EDIT)
        assert report.checkpoint_cycle is None
        assert report.cycles_replayed == 25
        assert report.new_findings == []

    def test_clean_reload_stays_clean(self):
        session, _ = live_session(sanitize="report")
        tweaked = SRC.replace("count_q + 8'd1", "count_q + 8'd2")
        report = session.apply_change(tweaked)
        assert report.behavioral
        assert report.new_findings == []
        assert session.sanitize_runtime.findings == []


# ---------------------------------------------------------------------------
# Mode toggling (the `san` verb's session half)
# ---------------------------------------------------------------------------


class TestSetSanitize:
    def test_off_to_report_recompiles_and_preserves_state(self):
        session, tb = live_session()
        before = session.peek("p0")["count"]
        result = session.set_sanitize("report")
        assert result["previous"] == "off"
        assert result["recompiled_keys"]  # crossed the codegen boundary
        assert result["swapped_pipes"] == ["p0"]
        assert session.peek("p0")["count"] == before
        # Migrated state is not poisoned: the swap itself is silent.
        session.run(tb, "p0", 5)
        assert session.sanitize_runtime.findings == []
        assert session.sanitize_status()["instrumented"] is True

    def test_report_to_trap_is_runtime_only(self):
        session, _ = live_session(sanitize="report")
        result = session.set_sanitize("trap")
        assert result["recompiled_keys"] == []
        assert result["swapped_pipes"] == []
        assert session.sanitize_mode == "trap"

    def test_toggle_back_off_restores_clean_codegen(self):
        session, tb = live_session()
        session.set_sanitize("report")
        cached = session.compiler.cache_size()
        session.set_sanitize("off")
        # Both variants stay cached: flipping back is swap-only.
        assert session.compiler.cache_size() == cached
        result = session.set_sanitize("report")
        assert result["swapped_pipes"] == ["p0"]
        session.run(tb, "p0", 3)
        assert session.sanitize_status()["instrumented"] is True

    def test_erd_report_names_the_flavour_it_compiled(self):
        # The flag is session-wide: every key an iteration reports was
        # compiled (or reused) under it.
        session, _ = live_session()
        report = session.apply_change(EDIT)
        assert report.sanitize is False
        assert report.recompiled_keys
        session, _ = live_session(sanitize="report")
        report = session.apply_change(EDIT)
        assert report.sanitize is True
        assert report.recompiled_keys
        library = session.pipe("p0").library
        assert all(library[key].build.sanitize for key in library)
        reverted = session.apply_change(SRC)
        assert reverted.sanitize is True
        assert reverted.reused_keys and not reverted.recompiled_keys


# ---------------------------------------------------------------------------
# The `san` command: interpreter + shell
# ---------------------------------------------------------------------------


class TestSanCommand:
    def test_interpreter_status_and_toggle(self):
        session, _ = live_session(cycles=0)
        interp = CommandInterpreter(session)
        status = interp.execute("san").value
        assert status["mode"] == "off"
        assert status["instrumented"] is False
        assert interp.execute("san report").value["mode"] == "report"
        status = interp.execute("san").value
        assert status["instrumented"] is True
        assert set(status["hits"]) == {
            SAN_UNINIT, SAN_OOB, SAN_TRUNC, SAN_NB_CONFLICT,
        }
        with pytest.raises(CommandError):
            interp.execute("san loud")

    def _shell(self):
        out = io.StringIO()
        shell = Shell(SRC, "top", checkpoint_interval=10, reset_cycles=2,
                      out=out)
        handle = shell.session.stage_handle_for("top")
        shell.run_script(f"instPipe p0, {handle}\nrun tb0, p0, 25")
        return shell, out

    def test_shell_report_mode_prints_finding(self, tmp_path):
        shell, out = self._shell()
        shell.execute("san report")
        edited = tmp_path / "edited.v"
        edited.write_text(EDIT)
        shell.execute(f"reload {edited}")
        text = out.getvalue()
        assert SAN_UNINIT in text
        assert "shadow_q" in text
        # The session survived and keeps counting.
        shell.execute("outputs p0")
        assert "cycle" in out.getvalue().splitlines()[-1]

    def test_shell_trap_mode_survives_the_trap(self, tmp_path):
        shell, out = self._shell()
        shell.execute("san trap")
        edited = tmp_path / "edited.v"
        edited.write_text(EDIT)
        alive = shell.execute(f"reload {edited}")
        assert alive is True  # the shell did not exit
        text = out.getvalue()
        assert "sanitizer trap:" in text
        assert SAN_UNINIT in text and "shadow_q" in text
        shell.execute("san")  # still responsive
        assert "'mode': 'trap'" in out.getvalue()


# ---------------------------------------------------------------------------
# Over the server
# ---------------------------------------------------------------------------


@pytest.fixture
def server():
    srv = ShardedFrontend(workers=0)
    srv.start()
    yield srv
    srv.shutdown()


def _client(srv):
    from repro.server.client import LiveSimClient

    host, port = srv.address
    return LiveSimClient(host, port, timeout=30.0)


class TestServerSanitize:
    def test_report_mode_streams_lint_findings_event(self, server):
        client = _client(server)
        try:
            info = client.open_session("san", SRC)
            handle = info["handles"]["top"]
            assert client.command("san", "san report")["mode"] == "report"
            client.command("san", f"instPipe p0, {handle}")
            client.command("san", "run tb0, p0, 20")
            client.command("san", "chkp p0")
            client.command("san", "run tb0, p0, 5")
            reload_result = client.reload("san", EDIT)
            kinds = [f["kind"] for f in reload_result["new_findings"]]
            assert SAN_UNINIT in kinds
            event = client.wait_event("lint_findings", timeout=30.0)
            fresh = [f for f in event.data["new_findings"]
                     if f["kind"] == SAN_UNINIT]
            assert fresh and fresh[0]["module"] == "top"
            assert fresh[0]["line"] == EDIT_READ_LINE
            status = client.command("san", "san")
            assert status["hits"][SAN_UNINIT] > 0
        finally:
            client.close()

    def test_trap_mode_maps_to_sanitizer_error(self, server):
        client = _client(server)
        try:
            info = client.open_session("trap", SRC)
            handle = info["handles"]["top"]
            client.command("trap", "san trap")
            client.command("trap", f"instPipe p0, {handle}")
            client.command("trap", "run tb0, p0, 20")
            client.command("trap", "chkp p0")
            client.command("trap", "run tb0, p0, 5")
            with pytest.raises(ServerError) as exc_info:
                client.reload("trap", EDIT)
            assert exc_info.value.kind == "sanitizer"
            assert "shadow_q" in exc_info.value.message
        finally:
            client.close()


# ---------------------------------------------------------------------------
# Compile cache + artifact store key separation
# ---------------------------------------------------------------------------


class TestStoreKeySeparation:
    def test_clean_and_sanitized_coexist_on_disk(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        LiveCompiler(SRC, store=store).compile_top("top")
        assert len(store) == 1
        runtime = SanitizerRuntime(mode="report")
        LiveCompiler(
            SRC, BuildConfig(sanitize=True), store=store,
            sanitize_runtime=runtime,
        ).compile_top("top")
        assert len(store) == 2  # same module, two artifacts

    def test_rehydration_restores_sanitized_codegen(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        runtime = SanitizerRuntime(mode="report")
        compiler = LiveCompiler(
            SRC, BuildConfig(sanitize=True), store=store,
            sanitize_runtime=runtime,
        )
        compiler.compile_top("top")
        cache_key = next(iter(compiler.cache.entries("compile")))
        original = compiler.cache.entries("compile")[cache_key]
        # A fresh runtime stands in for the restoring session.
        runtime2 = SanitizerRuntime(mode="report")
        loaded = store.load(cache_key, sanitize_runtime=runtime2)
        assert loaded is not None
        assert loaded.build.sanitize is True
        assert loaded.layout == original.layout
        # The rehydrated hooks really call the new runtime: poison a
        # register by hand and read it.
        state = loaded.make_state()
        state[loaded.layout.reg_poison_slot] = (1 << len(loaded.reg_slots)) - 1
        loaded.eval_out_fn(state, ())
        assert runtime2.hits[SAN_UNINIT] > 0

    def test_sanitized_artifact_without_runtime_is_a_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        runtime = SanitizerRuntime(mode="report")
        compiler = LiveCompiler(
            SRC, BuildConfig(sanitize=True), store=store,
            sanitize_runtime=runtime,
        )
        compiler.compile_top("top")
        cache_key = next(iter(compiler.cache.entries("compile")))
        assert store.load(cache_key) is None
