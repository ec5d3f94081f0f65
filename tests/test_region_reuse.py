"""A region parse on a base reuses the base's unchanged items and is
otherwise the parse without one.

Every region an edit stream produces is read twice: by
:class:`RegionParse` on the committed parse of its module, as LiveParser
reads it, and without a base at the same line.  The two must agree on
the tokens of every lexed span, the fingerprint, the AST and every lex
or parse error (message, line and column, in file coordinates).
"""

import random

import pytest

from repro.hdl.errors import HDLError
from repro.hdl.source_regions import MODULE_REGION, SourceRegion, split_regions
from repro.hdl.tokens import ITEM
from repro.live.parser_live import RegionParse
from repro.riscv.patches import PATCHES
from repro.riscv.pgas import build_pgas_source, mesh_top_name


def _outcome(read):
    """``read()``'s design, or its error's (type, message, line, col)."""
    try:
        return "ok", read()
    except HDLError as err:
        return "error", (type(err).__name__, err.detail, err.line, err.col)


def check_region(region: SourceRegion, base):
    """``region`` read on ``base`` against a read without one; returns
    the parse on ``base`` (None when the region does not parse) and how
    many items it reused."""
    kind, new = _outcome(lambda: RegionParse(region, base))
    if kind == "error":
        assert (kind, new) == _outcome(lambda: RegionParse(region))
        return None, 0
    assert new.line == (region.start_line if base is None else base.line)
    whole = RegionParse(region._replace(start_line=new.line))
    assert new.fingerprint == whole.fingerprint
    spans = [
        (token.value.first, token.value.last)
        for token in new._tokens if token.kind == ITEM
    ]
    assert [token for token in new._tokens if token.kind != ITEM] == [
        token for token in whole._tokens
        if not any(first <= token.line <= last for first, last in spans)
    ]
    got, want = _outcome(new.design), _outcome(whole.design)
    if got[0] == want[0] == "error":
        # The read without a base counts from the same line; its error
        # moves to the file as the region did.
        name, message, line, col = want[1]
        moved = region.start_line - new.line
        want = "error", (name, message, line + moved if line else 0, col)
    assert got == want
    if got[0] == "error":
        return None, len(spans)
    # A committed parse keeps its items, not its tokens.
    assert new._tokens is None and new._parts is None
    return new, len(spans)


class Editor:
    """Reads each text of an edit stream as LiveParser does: a module
    region whose text changed is parsed on the module's committed parse,
    which a region that parses replaces."""

    def __init__(self, source: str):
        self.committed = {}
        self.reused = 0
        self.parsed = 0
        self.edit(source)

    def edit(self, source: str) -> bool:
        """Whether every changed region parsed (like an accepted edit,
        which is the only kind LiveParser commits)."""
        accepted = {}
        for region in split_regions(source):
            if region.kind != MODULE_REGION:
                continue
            old = self.committed.get(region.name)
            if old is not None and old[0] == region.text:
                continue
            parsed, reused = check_region(
                region, old[1] if old is not None else None)
            self.parsed += 1
            self.reused += reused
            if parsed is None:
                return False
            accepted[region.name] = (region.text, parsed)
        self.committed.update(accepted)
        return True


def _livebench_edits(mesh: int, seed: int, count: int):
    from benchmarks.livebench.workloads import EditGenerator, mesh_edit_targets

    edits = EditGenerator(build_pgas_source(mesh), mesh_edit_targets(),
                          (12, 5, 3), seed)
    return [edits.next().source for _ in range(count)]


@pytest.mark.parametrize("mesh, seed", [(2, 1), (2, 2), (4, 1)])
def test_the_livebench_edit_stream(mesh, seed):
    editor = Editor(build_pgas_source(mesh))
    for source in _livebench_edits(mesh, seed, 40):
        assert editor.edit(source)
    assert editor.reused > 20 * editor.parsed


def test_every_patch_in_and_out():
    source = build_pgas_source(2)
    editor = Editor(source)
    for patch in PATCHES.values():
        assert editor.edit(patch.inject(source))
        assert editor.edit(source)
    assert editor.reused


def _mutate(lines, rng):
    i = rng.randrange(1, len(lines) - 1)
    op = rng.choice(("insert", "delete", "edit", "join", "split"))
    if op == "insert":
        lines.insert(i, rng.choice((
            "  wire [7:0] fz;", "", "  // note", "  assign fz = 8'd1;",
            lines[rng.randrange(len(lines))],
        )))
    elif op == "delete":
        del lines[i]
    elif op == "edit" and lines[i]:
        at = rng.randrange(len(lines[i]))
        lines[i] = lines[i][:at] + rng.choice(
            ("+", " ", "x", ";", "1", "", "else ", "(")) + lines[i][at + 1:]
    elif op == "join":
        lines[i:i + 2] = [lines[i] + " " + lines[i + 1]]
    elif op == "split" and " " in lines[i].strip():
        at = lines[i].index(" ", len(lines[i]) - len(lines[i].lstrip()) + 1)
        lines[i:i + 1] = [lines[i][:at], lines[i][at + 1:]]


@pytest.mark.parametrize("seed", [1, 2])
def test_random_line_edits(seed):
    """Line inserts, deletes, edits, joins and splits, many of them
    syntax errors next to reused items, on regions that also move."""
    rng = random.Random(seed)
    regions = [r for r in split_regions(build_pgas_source(2))
               if r.kind == MODULE_REGION]
    reused = broken = 0
    for region in regions:
        base, _ = check_region(region, None)
        for _ in range(25):
            lines = region.text.split("\n")
            _mutate(lines, rng)
            start = max(1, region.start_line + rng.randrange(-3, 4))
            edited = SourceRegion(MODULE_REGION, region.name, start,
                                  start + len(lines) - 1, "\n".join(lines))
            parsed, count = check_region(edited, base)
            reused += count
            if parsed is None:
                broken += 1
            else:
                base, region = parsed, edited
    assert reused and broken


ALWAYS_SRC = """module m (input clk, input c, input [7:0] a, output [7:0] y);
  reg [7:0] q;
  reg [7:0] r;
  always @(posedge clk) if (c) q <= a;
  assign y = q;
  always @(posedge clk)
    r <= a;
endmodule"""


def _region(text: str, line: int = 1) -> SourceRegion:
    name = text.split()[1]
    return SourceRegion(MODULE_REGION, name, line,
                        line + text.count("\n"), text)


def _chain(*texts, line: int = 1):
    """Read ``texts`` in turn, each on the last one that parsed."""
    base, counts = None, []
    for text in texts:
        parsed, reused = check_region(_region(text, line), base)
        counts.append(reused)
        base = parsed or base
    return base, counts


@pytest.mark.parametrize("edited", [
    # An else onto the line after an if item: the item is read again.
    ALWAYS_SRC.replace("  assign y = q;", "  else q <= 8'd0;\n  assign y = q;"),
    # ... and off it again (from a base that has it).
    ALWAYS_SRC.replace("if (c) q <= a;", "if (c) q <= a;\n  else q <= r;"),
    # A block comment: nothing is reused.
    ALWAYS_SRC.replace("  reg [7:0] r;", "  /* r\n  */ reg [7:0] r;"),
    # Two items on one line, then an edit around them.
    ALWAYS_SRC.replace("  reg [7:0] q;\n  reg [7:0] r;",
                       "  reg [7:0] q; reg [7:0] r;"),
    # Syntax errors next to reused items.
    ALWAYS_SRC.replace("  assign y = q;", "  assign y = q +"),
    ALWAYS_SRC.replace("  assign y = q;", "  assign y = q; else"),
    ALWAYS_SRC.replace("endmodule", ""),
    ALWAYS_SRC.replace("  reg [7:0] r;", "  reg [7:0] r;\n  é"),
])
def test_edits_around_reused_items(edited):
    for first, second in ((ALWAYS_SRC, edited), (edited, ALWAYS_SRC)):
        touched = second.replace("8'd0", "8'd1").replace(
            "output [7:0] y", "output [7:0] y, input d")
        _chain(first, second, touched)


def test_a_block_comment_added_and_removed():
    commented = ALWAYS_SRC.replace("  assign y = q;",
                                   "  /* note */\n  assign y = q;")
    _, counts = _chain(ALWAYS_SRC, commented, ALWAYS_SRC)
    # The region with a comment keeps no items: the one after it is
    # read whole again.
    assert counts == [0, 0, 0]


def test_unchanged_items_are_reused_as_they_are():
    edited = ALWAYS_SRC.replace("assign y = q;", "assign y = q + 8'd1;")
    base, _ = check_region(_region(ALWAYS_SRC), None)
    parsed, reused = check_region(_region(edited), base)
    # The header, two nets and the always item before the edit; the
    # always item after it (its lines did not move).  The edited item
    # and the if item, whose next line changed, are read again.
    assert reused == 4
    assert parsed.design().modules["m"].nets[0] is \
        base.design().modules["m"].nets[0]


def test_a_moved_region_keeps_its_base_coordinates():
    from repro.live.parser_live import LiveParser

    source = "module top (input clk);\nendmodule\n\n" + ALWAYS_SRC + "\n"
    parser = LiveParser(source)
    parser.region_parse("m").design()
    # An edit above the module moves it; then the module is edited.
    moved = source.replace("input clk);", "input clk);\n  wire a;\n  wire b;")
    parser.commit(parser.analyze(moved))
    edited = moved.replace("assign y = q;", "assign y = q + 8'd1;")
    result = parser.analyze(edited)
    parse = result.parses["m"]
    assert parser.header_line("m") == 6 and parse.line == 4
    assert parse.design().modules["m"].line == 4
    check_region(_region(edited.split("\n\n", 1)[1].rstrip("\n"), 6),
                 parser.region_parse("m"))
    # Errors come out in file coordinates.
    broken = moved.replace("assign y = q;", "assign y = q +;")
    with pytest.raises(HDLError) as raised:
        parser.analyze(broken).parses["m"].design()
    assert raised.value.line == 10 and "line 10:" in str(raised.value)


def test_a_session_edit_stream_holds_no_token_lists():
    from repro.live.compiler_live import LiveCompiler

    source = build_pgas_source(2)
    compiler = LiveCompiler(source)
    compiler.compile_top(mesh_top_name(2))
    for edited in _livebench_edits(2, 3, 12):
        compiler.update_source(edited)
        compiler.compile_top(mesh_top_name(2))
        for name in compiler.parser.module_names():
            parse = compiler.parser.region_parse(name)
            assert parse._design is not None
            assert parse._tokens is None and parse._parts is None
            assert parse.items
