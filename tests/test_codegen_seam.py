"""The build-flavour seam of the code generator.

The sanitizer is one ``hooks`` object the emitter calls and the site
census is the emitter run for its count (:func:`site_count`), so the
optimizer and the generator cannot disagree about where a hook goes.
"""

from pathlib import Path

import pytest

from repro import BuildConfig
from repro.codegen.callplan import Wiring, part_demand
from repro.codegen.pygen import ModuleCompiler, compile_module, site_count
from repro.hdl import elaborate, parse
from repro.passes import compile_netlist
from repro.riscv.pgas import build_pgas_source, mesh_top_name
from repro.sanitize import SanitizerRuntime, instrument
from tests.conftest import hooked_source

DESIGNS = Path(__file__).resolve().parent.parent / "examples" / "designs"
SANITIZED = BuildConfig(sanitize=True)

# One of each site kind, and a register read in an instance connection:
# ``eval_out`` passes it to the child's ``eval_out`` and ``cycle`` to
# the child's ``cycle``, so it is emitted (and counted) in both.
ONE_OF_EACH = """
module leaf (input [3:0] v, output [3:0] o);
  assign o = ~v;
endmodule

module m (
  input clk,
  input [3:0] a,
  input [1:0] sel,
  output [3:0] y,
  output [3:0] z
);
  reg [3:0] q;
  reg [3:0] mem [0:3];
  wire [3:0] t;
  assign y = {3'd0, q[sel]} | mem[sel];
  assign t = {1'b0, a} + 5'd1;
  leaf u (.v(q), .o(z));
  always @(posedge clk) begin
    q <= t;
    mem[sel] <= a;
  end
endmodule
"""


class RecordingHooks:
    """Writes the clean code and records every call made to it."""

    sites = elided = 0  # counts nothing
    poison_free = False  # and writes each function once

    def __init__(self, ir, layout, mems, seq_writers, elide):
        self.elide = elide
        self.calls = []

    def reg_read(self, name, ref, line):
        self.calls.append(("reg_read", name))
        return None

    def mem_read(self, name, index_code, width, line):
        self.calls.append(("mem_read", name))
        return f"_m_{name}[{index_code}]"

    def index_bound(self, name, index_code, width, bound, line):
        self.calls.append(("index_bound", name, width, bound))
        return index_code

    def trunc(self, value_code, declared, line, target):
        self.calls.append(("trunc", target, declared))
        return f"(({value_code}) & {(1 << declared) - 1})"

    def write_note(self, emit, name, wmask, line, block_id):
        self.calls.append(("write_note", name, wmask, block_id))

    def mem_write_addr(self, name, addr_code, width, line):
        self.calls.append(("mem_write_addr", name, width))
        return addr_code

    def bind_poison(self, emit):
        self.calls.append(("bind_poison",))
        return ()  # reads no bitmap: one body

    def open_cycle(self, emit):
        self.calls.append(("open_cycle",))

    def commit_regs(self, emit):
        self.calls.append(("commit_regs",))

    def commit_mem_word(self, emit, name):
        self.calls.append(("commit_mem_word", name))

    def epilogue(self):
        self.calls.append(("epilogue",))
        return ""


def all_netlists():
    for n in (2, 4):
        yield elaborate(parse(build_pgas_source(n)), mesh_top_name(n))
    for path in sorted(DESIGNS.glob("*.v")):
        design = parse(path.read_text())
        for top in design.modules:
            yield elaborate(design, top)


class TestHooksObject:
    def test_fake_sees_each_site_once_per_emission(self, monkeypatch):
        # A sanitized compile takes the hooks class from its module.
        monkeypatch.setattr(instrument, "Instrumenter", RecordingHooks)
        netlist = elaborate(parse(ONE_OF_EACH), "m")
        compiler = ModuleCompiler(
            Wiring(netlist.modules["m"], netlist), SANITIZED
        )
        source = compiler.generate()
        compile(source, "<seam>", "exec")  # the fake's text is clean code
        assert compiler.hooks.elide is SANITIZED.san_elide  # the one input
        calls = compiler.hooks.calls
        # cycle is generated first (eval_out stashes what it reads).
        # Its comb half owns ``t`` (``a`` is no eval_out argument),
        # then the sequential block, the child's cycle, the commit.
        commit = calls.index(("commit_regs",))
        assert calls[:commit] == [
            ("reg_read", "a"), ("trunc", "t", 4),
            ("reg_read", "t"), ("write_note", "q", None, 0),
            ("reg_read", "a"), ("reg_read", "sel"),
            ("mem_write_addr", "mem", 2),  # sel: 2 bits
            ("reg_read", "q"),  # .v(q) for the child's cycle
        ]
        # Each function's prologue is written after its body.  eval_out
        # owns ``y`` and the child's eval_out; the epilogue closes the
        # module.
        assert calls[commit:] == [
            ("commit_regs",), ("commit_mem_word", "mem"),
            ("bind_poison",), ("open_cycle",),  # cycle's prologue
            ("reg_read", "sel"), ("reg_read", "q"),
            ("index_bound", "q", 2, 4),
            ("reg_read", "sel"), ("mem_read", "mem"),
            ("reg_read", "q"),  # .v(q) again, for the child's eval_out
            ("bind_poison",),  # eval_out's prologue
            ("epilogue",),
        ]

    def test_clean_build_has_no_hooks_object(self):
        netlist = elaborate(parse(ONE_OF_EACH), "m")
        compiler = ModuleCompiler(
            Wiring(netlist.modules["m"], netlist), BuildConfig()
        )
        assert compiler.hooks is None
        assert "_san" not in compiler.generate()


class TestCensusIsTheGenerator:
    @pytest.mark.parametrize(
        "netlist", all_netlists(), ids=lambda netlist: netlist.top
    )
    def test_site_count_is_what_the_build_emits(self, netlist):
        runtime = SanitizerRuntime(mode="report")
        wirings = part_demand(netlist)
        for ir in netlist.modules.values():
            compiled = compile_module(wirings[ir.key], SANITIZED, runtime)
            assert site_count(ir, netlist) == compiled.san_sites, ir.key
            for unit in ir.schedule:
                if unit[0] == "inst":
                    continue
                text = ModuleCompiler(
                    Wiring(ir, netlist), SANITIZED
                ).gen_unit(*unit)
                hooked = "_san." in text or "_SAN_I" in text
                assert (site_count(ir, netlist, unit) > 0) == hooked, (
                    ir.key, unit
                )

    def test_counts_an_expression_emitted_in_both_entry_points_twice(self):
        netlist = elaborate(parse(ONE_OF_EACH), "m")
        # rr q (select), ob, mr, tr, nw, write address: six source
        # sites; the connection's rr q is emitted twice.
        assert site_count(netlist.modules["m"], netlist) == 8


VALUE_DEAD = """
module m (input clk, input [3:0] a, input [2:0] sel, output [3:0] y);
  reg [3:0] q;
  wire unread;
  wire [3:0] plain;
  assign unread = q[sel];
  assign plain = a + 4'd1;
  assign y = a;
  always @(posedge clk) q <= a;
endmodule
"""

PURE_CHILD = """
module pick (input [3:0] v, input [2:0] i, output o);
  assign o = v[i];
endmodule

module bare (input [3:0] v, output [3:0] o);
  assign o = ~v;
endmodule

module m (input clk, input [3:0] a, input [2:0] i, output y, output [3:0] z);
  reg [3:0] q;
  pick p (.v(a), .i(i), .o(y));
  bare b (.v(a), .o(z));
  always @(posedge clk) q <= a;
endmodule
"""


class TestOptimizerAsksTheGenerator:
    def _library(self, source, **build):
        netlist = elaborate(parse(source), "m")
        runtime = SanitizerRuntime(mode="report") if build.get(
            "sanitize") else None
        return netlist, compile_netlist(
            netlist, BuildConfig(opt="full", **build), runtime
        )

    def test_value_dead_unit_with_a_site_stays_alive_under_sanitize(self):
        netlist, clean = self._library(VALUE_DEAD)
        assert "v_unread" not in clean["m"].source
        assert "v_plain" not in clean["m"].source
        _, sanitized = self._library(VALUE_DEAD, sanitize=True)
        ir = netlist.modules["m"]
        units = {ir.comb_assigns[i].target.name: ("assign", i)
                 for i in range(len(ir.comb_assigns))}
        assert site_count(ir, netlist, units["unread"]) == 2  # rr + ob
        assert site_count(ir, netlist, units["plain"]) == 0
        assert "v_unread" in sanitized["m"].source  # its findings stay
        assert "v_plain" not in sanitized["m"].source

    def test_pure_child_with_a_site_is_not_skipped(self):
        netlist, clean = self._library(PURE_CHILD)
        assert clean["m"].source.count(".code.cycle_fn)(") == 0
        _, sanitized = self._library(PURE_CHILD, sanitize=True)
        assert site_count(netlist.modules["pick"], netlist) == 1  # ob
        assert site_count(netlist.modules["bare"], netlist) == 0
        # pick's cycle still runs (its ob site reports); bare's is gone.
        assert hooked_source(sanitized["m"].source).count(".code.cycle_fn)(") == 1


def _digests_tool():
    import importlib.util

    tool = DESIGNS.parent.parent / "tools" / "source_digests.py"
    spec = importlib.util.spec_from_file_location("source_digests", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSourceDigestsTool:
    def test_rows_are_well_formed_and_repeatable(self):
        module = _digests_tool()
        rows = module.rows(["counter.v"])
        # Three modules as tops, six flavours and the flat baseline each.
        assert len(rows) == 21
        for row in rows:
            design, san, elide, opt, digest, sites, elided, lines = row.split()
            assert design.startswith("counter.v:")
            assert san in ("clean", "san") and elide in ("elide", "noelide", "inline")
            assert opt in ("none", "full")
            assert elide != "inline" or (san, opt) == ("clean", "none")
            assert len(digest) == 16 and int(digest, 16) >= 0
            assert san == "san" or sites == "0"
            assert int(elided) <= int(sites) and int(lines) > 0
        assert any(int(row.split()[5]) for row in rows)
        assert module.rows(["counter.v"]) == rows
        assert module.differences(rows, rows) == []
        assert module.differences(rows[:1], rows[1:2]) == [
            "- " + rows[0], "+ " + rows[1]
        ]

    def test_ast_rows_digest_the_python_syntax(self, capsys):
        module = _digests_tool()
        text = module.rows(["counter.v"])
        syntax = module.rows(["counter.v"], syntax=True)
        assert len(syntax) == len(text) == 21
        for by_text, by_syntax in zip(text, syntax):
            a, b = by_text.split(), by_syntax.split()
            # Another digest, the same design, flavour, counts and lines.
            assert a[4] != b[4] and a[:4] + a[5:] == b[:4] + b[5:]
        assert module.rows(["counter.v"], syntax=True) == syntax
        # Spelling is not syntax: redundant parentheses digest alike.
        assert module._syntax("y = ((a) & 255)\n") == module._syntax(
            "y = a & 255\n")
        assert module._syntax("y = (a < b) < c\n") != module._syntax(
            "y = a < b < c\n")
        assert module.main(["--design", "counter.v", "--ast"]) == 0
        assert capsys.readouterr().out.splitlines() == syntax
