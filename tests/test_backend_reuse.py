"""The back end of an edit reuses what the edit left alone and is
otherwise the back end from scratch.

Two grains: a lowered module item (elaboration takes it from the
specialization's previous ``ModuleIR``) and the generated text (the
emitter writes only the parentheses Python's precedence needs).  Each is
checked against the work done without it; a whole design reverted is
only lookups that hit.
"""

import ast as pyast
import random

import pytest
from hypothesis import HealthCheck, given, settings

from repro import obs
from repro.codegen import exprgen, pygen
from repro.codegen.build import CACHE_GENERATIONS, BuildConfig
from repro.hdl import ast_nodes as ast
from repro.hdl import elaborate, parse
from repro.hdl.consteval import fold_params, fold_stmts
from repro.hdl.elaborate import Elaborator
from repro.hdl.errors import HDLError
from repro.hdl.source_regions import MODULE_REGION, split_regions
from repro.live.compiler_live import LiveCompiler
from repro.live.session import LiveSession
from repro.passes import compile_netlist
from repro.riscv.patches import PATCHES
from repro.riscv.pgas import build_pgas_source, mesh_top_name
from repro.sanitize import SanitizerRuntime

from .test_fuzz_codegen import expr_text, module_for

# ---------------------------------------------------------------------------
# Items
# ---------------------------------------------------------------------------


def _rebuilt(netlist, key):
    """``netlist``'s IR of ``key`` lowered again from scratch: the same
    parsed module, parameters and children, no cache."""
    ir = netlist.modules[key]
    elaborator = Elaborator(ast.Design(modules={ir.name: ir.source}))
    elaborator._specs.update(netlist.modules)
    children = [netlist.modules[inst.child_key] for inst in ir.instances]
    return elaborator._build_module_ir(ir.source, dict(ir.params), key,
                                       children)


def _items(ir):
    return ir.comb_assigns + ir.comb_blocks + ir.seq_blocks


class ItemChecker:
    """Compiles each text of an edit stream and holds every ``ModuleIR``
    it gets to a from-scratch lowering; counts the items shared with the
    specialization's previous IR."""

    def __init__(self, source: str, top: str, params=None):
        self.top, self.params = top, params
        self.compiler = LiveCompiler(source)
        self.previous = {}
        self.shared = self.lowered = 0
        self.compile()

    def compile(self):
        netlist = self.compiler.compile_top(self.top, self.params).netlist
        for key, ir in netlist.modules.items():
            assert ir == _rebuilt(netlist, key), key
            before = self.previous.get(key)
            if before is not None and before is not ir:
                held = set(map(id, _items(before)))
                for item in _items(ir):
                    if id(item) in held:
                        self.shared += 1
                    else:
                        self.lowered += 1
            self.previous[key] = ir
        return netlist

    def edit(self, source: str):
        """The netlist of ``source``, or the error it raises (which must
        be a fresh compiler's: type, message and line); a text that does
        not compile is rolled back as a session rolls it back."""
        previous = self.compiler.source
        try:
            self.compiler.update_source(source)
            return self.compile()
        except HDLError as err:
            self.compiler.update_source(previous)
            with pytest.raises(HDLError) as fresh:
                LiveCompiler(source).compile_top(self.top, self.params)
            assert (type(err), err.detail, err.line) == (
                type(fresh.value), fresh.value.detail, fresh.value.line)
            return err


def _livebench_edits(mesh: int, seed: int, count: int):
    from benchmarks.livebench.workloads import EditGenerator, mesh_edit_targets

    edits = EditGenerator(build_pgas_source(mesh), mesh_edit_targets(),
                          (12, 5, 3), seed)
    return [edits.next().source for _ in range(count)]


@pytest.mark.parametrize("mesh, seed", [(2, 1), (2, 2), (4, 1), (4, 2)])
def test_the_livebench_edit_stream(mesh, seed):
    checker = ItemChecker(build_pgas_source(mesh), mesh_top_name(mesh))
    for source in _livebench_edits(mesh, seed, 30 if mesh == 2 else 12):
        assert not isinstance(checker.edit(source), HDLError)
    # A one-line edit lowers the edited item (and the nonce wire's).
    assert checker.shared > 5 * checker.lowered


def test_every_patch_in_and_out():
    source = build_pgas_source(2)
    checker = ItemChecker(source, mesh_top_name(2))
    for patch in PATCHES.values():
        checker.edit(patch.inject(source))
        checker.edit(source)
    assert checker.shared > checker.lowered


@pytest.mark.parametrize("build", [
    BuildConfig(), BuildConfig(sanitize=True, opt="full"),
], ids=["default", "sanitize=report, opt=full"])
def test_kept_walks_write_what_a_fresh_compile_writes(build):
    """The codegen pass keeps each module's call-plan walks across
    compiles (kind ``codegen.walks``): over every patch in and out and
    livebench's edit stream, every module's source is what a compile
    from nothing writes for the same netlist."""
    source = build_pgas_source(2)
    runtime = SanitizerRuntime("report") if build.sanitize else None
    compiler = LiveCompiler(source, build, sanitize_runtime=runtime)
    texts = [source] + [
        text for patch in PATCHES.values() for text in (patch.inject(source), source)
    ] + _livebench_edits(2, 3, 20)
    for text in texts:
        compiler.update_source(text)
        result = compiler.compile_top(mesh_top_name(2))
        fresh = compile_netlist(result.netlist, build, runtime)
        assert {key: code.source for key, code in result.library.items()} == {
            key: code.source for key, code in fresh.items()}
    assert compiler.cache.size("codegen.walks") > len(result.netlist.modules)


@pytest.mark.parametrize("seed", [1, 2])
def test_random_line_edits(seed):
    """Line inserts, deletes, duplicates and edits anywhere in the mesh,
    most of them moving what follows; many do not parse or elaborate."""
    rng = random.Random(seed)
    source = build_pgas_source(2)
    checker = ItemChecker(source, mesh_top_name(2))
    outcomes = []
    for _ in range(60):
        lines = source.split("\n")
        # A line inside a module (text between modules is not compiled).
        region = rng.choice([r for r in split_regions(source)
                             if r.kind == MODULE_REGION])
        i = rng.randrange(region.start_line, region.end_line - 1)
        op = rng.choice(("insert", "delete", "copy", "edit", "digit", "digit"))
        if op == "insert":
            lines.insert(i, rng.choice(("", "  // note", "  wire [7:0] fz;")))
        elif op == "delete":
            del lines[i]
        elif op == "copy":
            lines.insert(i, lines[rng.randrange(len(lines))])
        elif op == "digit":  # mostly still a design, its lines in place
            digits = [at for at, ch in enumerate(lines[i]) if ch in "01"]
            if digits:
                at = rng.choice(digits)
                lines[i] = lines[i][:at] + "10"[int(lines[i][at])] + \
                    lines[i][at + 1:]
        elif lines[i]:
            at = rng.randrange(len(lines[i]))
            lines[i] = lines[i][:at] + rng.choice(("+", "x", "1", "")) + \
                lines[i][at + 1:]
        edited = "\n".join(lines)
        outcome = checker.edit(edited)
        outcomes.append(isinstance(outcome, HDLError))
        if not outcomes[-1]:
            source = edited
    assert checker.shared and any(outcomes) and not all(outcomes)


WIDE = """module top (input clk, input [7:0] a, output [7:0] y, output z);
  wire [7:0] w;
  reg [7:0] q;
  assign w = a ^ 8'h5a;
  assign y = w + q;
  always @(posedge clk) q <= w;
  assign z = ^w;
endmodule
"""


def test_a_width_change_relowers_the_items_that_read_the_name():
    checker = ItemChecker(WIDE, "top")
    before = checker.previous["top"]
    wider = WIDE.replace("wire [7:0] w;", "wire [15:0] w;")
    after = checker.edit(wider).modules["top"]
    # Every item mentions w: none is taken as it was.
    assert not set(map(id, _items(before))) & set(map(id, _items(after)))
    # An edit that leaves the declarations alone reuses the others.
    edited = checker.edit(wider.replace("8'h5a", "8'h5b")).modules["top"]
    assert sum(item in _items(after) for item in _items(edited)) == 3
    assert sum(any(item is old for old in _items(after))
               for item in _items(edited)) == 3


def test_a_words_change_on_the_node():
    source = build_pgas_source(2)
    checker = ItemChecker(source, mesh_top_name(2))
    for words in (2048, 4096, 1024):
        edited = source.replace("parameter WORDS = 4096",
                                f"parameter WORDS = {words}")
        assert not isinstance(checker.edit(edited), HDLError)


def test_a_localparam_change_relowers_what_it_folds_into():
    source = WIDE.replace("module top (", "module top #(parameter P = 1) (") \
        .replace("  reg [7:0] q;", "  reg [7:0] q;\n  localparam K = 8'h5a;") \
        .replace("a ^ 8'h5a", "a ^ K")
    checker = ItemChecker(source, "top")
    before = checker.previous["top#(P=1)"]
    after = checker.edit(source.replace("K = 8'h5a", "K = 8'h3c")) \
        .modules["top#(P=1)"]
    assert before.key == after.key and before.params != after.params
    # Same parsed items, other parameters: every item lowered again.
    assert not set(map(id, _items(before))) & set(map(id, _items(after)))
    assert after.comb_assigns[0].value.right.value == 0x3C


def test_a_deleted_declaration_fails_as_a_fresh_compile_does():
    checker = ItemChecker(WIDE, "top")
    err = checker.edit(WIDE.replace("  wire [7:0] w;\n", ""))
    assert isinstance(err, HDLError) and "'w'" in err.detail
    assert not isinstance(checker.edit(WIDE), HDLError)


def test_lowered_items_are_never_mutated():
    """Items are shared between IRs: a session's edits, compiles under
    every flavour and analyses leave every item it lowered as it was."""
    from copy import deepcopy

    checker = ItemChecker(build_pgas_source(2), mesh_top_name(2))
    snapshots = []
    for source in _livebench_edits(2, 3, 12):
        netlist = checker.edit(source)
        for ir in netlist.modules.values():
            for item in _items(ir):
                snapshots.append((item, deepcopy(item)))
        for build in (BuildConfig(sanitize=True, opt="full"),
                      BuildConfig(opt="full")):
            compile_netlist(netlist, build, SanitizerRuntime(mode="report"))
    assert all(item == copy for item, copy in snapshots)


def test_folding_returns_its_input_when_nothing_folds():
    module = parse(WIDE.replace("8'h5a", "P").replace(
        "module top", "module top #(parameter P = 3)")).modules["top"]
    value = module.assigns[0].value  # a ^ P
    assert fold_params(value, {}) is value
    folded = fold_params(value, {"P": 3})
    assert folded is not value and folded.left is value.left
    unread = module.assigns[1].value  # w + q: no parameter
    assert fold_params(unread, {"P": 3}) is unread
    body = module.always_blocks[0].body
    assert fold_stmts(body, {"P": 3}) is body


def _example_designs():
    from pathlib import Path

    designs = Path(__file__).resolve().parent.parent / "examples" / "designs"
    for path in sorted(designs.glob("*.v")):
        source = path.read_text()
        for top in parse(source).modules:
            yield f"{path.name}:{top}", source, top


@pytest.mark.parametrize("name, source, top", [
    ("mesh2", build_pgas_source(2), mesh_top_name(2)),
    ("mesh4", build_pgas_source(4), mesh_top_name(4)),
] + [
    (f"patch:{name}", patch.inject(build_pgas_source(2)), mesh_top_name(2))
    for name, patch in sorted(PATCHES.items())[:3]
] + list(_example_designs()))
def test_folds_share_what_no_parameter_touches(name, source, top):
    """Every lowered item equals the fold of an unshared copy of its
    parsed item, and is the parsed tree itself when that fold changes
    nothing; some items of every mesh fold and some do not."""
    from copy import deepcopy

    netlist = elaborate(parse(source), top)
    shared = folded = 0
    for key, ir in netlist.modules.items():
        module = ir.source
        pairs = list(zip([a.value for a in module.assigns],
                         [item.value for item in ir.comb_assigns]))
        kinds = {"comb": iter(ir.comb_blocks), "seq": iter(ir.seq_blocks)}
        pairs += [(block.body, next(kinds[block.kind]).body)
                  for block in module.always_blocks]
        for parsed, lowered in pairs:
            fold = fold_stmts if type(parsed) is list else fold_params
            assert fold(deepcopy(parsed), ir.params) == lowered, key
            if lowered == parsed:
                assert lowered is parsed, key
                shared += 1
            else:
                folded += 1
    assert shared and (folded or not name.startswith(("mesh", "patch")))


# ---------------------------------------------------------------------------
# Designs
# ---------------------------------------------------------------------------


def _mesh_session(**kwargs):
    session = LiveSession(build_pgas_source(2), checkpoint_interval=20,
                          **kwargs)
    session.inst_pipe("p0", session.stage_handle_for(mesh_top_name(2)))
    return session


# A pass the analyzer looks up as well as the compile.
_SHARED_PASSES = ("dataflow",)


def _listed(report):
    """``<kind>.cache_hits`` / ``cache_misses`` -> the keys ``report``
    lists for that kind."""
    listed = {"compile.cache_misses": report.recompiled_keys,
              "compile.cache_hits": report.reused_keys,
              "analyze.cache_misses": report.analyzed_keys,
              "analyze.cache_hits": report.analysis_reused_keys}
    for name, keys in report.pass_computed_keys.items():
        listed[f"passes.{name}.cache_misses"] = keys
    for name, keys in report.pass_reused_keys.items():
        listed[f"passes.{name}.cache_hits"] = keys
    return {kind: len(keys) for kind, keys in listed.items() if keys}


@pytest.mark.parametrize("flavour", [{}, {"sanitize": "report", "opt": "full"}])
def test_reports_list_what_the_lookups_list(flavour):
    """Along an edit stream with reverts, each report lists one key per
    compile, analysis and compile-side pass lookup its edit counted, and
    the session ends with a fresh session's modules and findings."""
    session = _mesh_session(**flavour)
    sources = _livebench_edits(2, 1, 24)
    obs.enable()
    try:
        obs.reset()
        before = {}
        for source in sources:
            listed = _listed(session.apply_change(source))
            counters = obs.report()["metrics"]["counters"]
            counted = {
                name: value - before.get(name, 0)
                for name, value in counters.items()
                if name.endswith(("cache_hits", "cache_misses"))
                and name.split(".")[0] in ("compile", "analyze", "passes")
                and name.count(".") == (2 if name.startswith("passes.")
                                        else 1)
                and value != before.get(name, 0)
            }
            for name in _SHARED_PASSES:
                for outcome in ("cache_hits", "cache_misses"):
                    kind = f"passes.{name}.{outcome}"
                    assert listed.get(kind, 0) <= counted.get(kind, 0)
                    listed.pop(kind, None)
                    counted.pop(kind, None)
            assert listed == counted
            before = dict(counters)
    finally:
        obs.disable()
        obs.reset()
    assert len(set(sources)) < len(sources)  # the stream reverts
    fresh = LiveSession(sources[-1], checkpoint_interval=20, **flavour)
    fresh.inst_pipe("p0", fresh.stage_handle_for(mesh_top_name(2)))
    # Sources differ in the sanitizer's site numbers, which a session
    # hands out as it goes.
    assert sorted(session.pipe("p0").library) == \
        sorted(fresh.pipe("p0").library)
    assert _findings(session.lint()) == _findings(fresh.lint())


def test_a_revert_recompiles_and_reanalyzes_nothing():
    """A revert makes every per-module lookup again, each a hit, and
    its compile equals a fresh one."""
    base = build_pgas_source(2)
    edited = base.replace("assign rs1 = ifid_instr[19:15];",
                          "assign rs1 = ifid_instr[19:15] ^ 5'd0;", 1)
    assert edited != base
    session = _mesh_session()
    session.apply_change(edited)
    obs.enable()
    try:
        obs.reset()
        report = session.apply_change(base)
        counters = obs.report()["metrics"]["counters"]
    finally:
        obs.disable()
        obs.reset()
    assert report.recompiled_keys == [] and report.analyzed_keys == []
    for kind in ("elaborate", "compile", "analyze", "passes.dataflow.items"):
        assert counters.get(f"{kind}.cache_misses", 0) == 0, kind
    for kind in ("elaborate", "compile", "analyze"):
        assert counters[f"{kind}.cache_hits"] > 0, kind
    again = session.compiler.compile_top(mesh_top_name(2))
    fresh = _mesh_session()
    result = fresh.compiler.compile_top(mesh_top_name(2))
    assert sorted(report.reused_keys) == sorted(result.library)
    assert sorted(report.analysis_reused_keys) == sorted(result.netlist.modules)
    assert {k: m.source for k, m in again.library.items()} == {
        k: m.source for k, m in result.library.items()}
    assert _findings(session.lint()) == _findings(fresh.lint())


def _findings(report):
    return [(d.line, d.message, d.notes) for d in report.diagnostics]


def test_a_moved_revert_reports_findings_where_they_are_now():
    from pathlib import Path

    designs = Path(__file__).resolve().parent.parent / "examples" / "designs"
    base = (designs / "pitfalls.v").read_text()
    top = list(parse(base).modules)[-1]
    session = LiveSession(base)
    session.inst_pipe("p0", session.stage_handle_for(top))
    edited = base.replace("endmodule", "  wire extra_w;\nendmodule", 1)
    session.apply_change(edited)
    session.apply_change(base)
    # The same design, every module one line further down.
    moved = "// moved\n" + base
    report = session.apply_change(moved)
    assert not report.behavioral
    fresh = LiveSession(moved)
    fresh.inst_pipe("p0", fresh.stage_handle_for(top))
    assert _findings(session.lint()) == _findings(fresh.lint())
    assert session.lint().diagnostics


def test_cache_sizes_are_counted_not_walked():
    """After edits, reverts and evictions, every kind's count and the
    three size gauges equal the entries walked."""
    obs.enable()
    try:
        session = _mesh_session(sanitize="report")
        for source in _livebench_edits(2, 2, 10 * CACHE_GENERATIONS):
            session.apply_change(source)
        session.lint()
        cache = session.compiler.cache
        kinds = {kind for kind, _, _ in cache._buckets}
        assert {"compile", "analyze"} <= kinds
        for kind in kinds:
            assert cache.size(kind) == len(cache.entries(kind)), kind
        gauges = obs.report()["metrics"]["gauges"]
        assert gauges["compile.cache_size"] == len(cache.entries("compile"))
        assert gauges["analyze.cache_size"] == len(cache.entries("analyze"))
        assert gauges["facts.cache_size"] == sum(
            len(cache.entries(kind)) for kind in (
                "passes.dataflow", "passes.dataflow.summary",
                "passes.dataflow.items"))
        counters = obs.report()["metrics"]["counters"]
        assert counters.get("compile.cache_evicted", 0) > 0
    finally:
        obs.disable()
        obs.reset()


# ---------------------------------------------------------------------------
# Text
# ---------------------------------------------------------------------------


def _parenthesize_everything(monkeypatch):
    """The reference printer: every operand in parentheses."""
    def paren(code, need):
        return f"({code[0]})"

    monkeypatch.setattr(exprgen, "paren", paren)
    monkeypatch.setattr(pygen, "paren", paren)


def _syntax(library):
    return {key: pyast.dump(pyast.parse(m.source))
            for key, m in library.items()}


BUILDS = [BuildConfig(), BuildConfig(mux_style="select"),
          BuildConfig(sanitize=True, opt="full"),
          BuildConfig(sanitize=True, san_elide=False)]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(expr=expr_text())
def test_fewer_parentheses_same_python(monkeypatch, expr):
    netlist = elaborate(parse(module_for(expr)), "m")
    lean = [_syntax(compile_netlist(netlist, b, SanitizerRuntime()))
            for b in BUILDS]
    with monkeypatch.context() as patched:
        _parenthesize_everything(patched)
        full = [_syntax(compile_netlist(netlist, b, SanitizerRuntime()))
                for b in BUILDS]
    assert lean == full


def test_the_mesh_parses_as_fully_parenthesized(monkeypatch):
    netlist = elaborate(parse(build_pgas_source(2)), mesh_top_name(2))
    for build in BUILDS:
        runtime = SanitizerRuntime(mode="report")
        lean = compile_netlist(netlist, build, runtime)
        with monkeypatch.context() as patched:
            _parenthesize_everything(patched)
            full = compile_netlist(netlist, build, runtime)
        assert _syntax(lean) == _syntax(full)
        # Same lines, same sites, less text.
        for key, module in lean.items():
            assert module.source.count("\n") == full[key].source.count("\n")
            assert module.san_sites == full[key].san_sites
        assert sum(len(m.source) for m in lean.values()) < sum(
            len(m.source) for m in full.values())
