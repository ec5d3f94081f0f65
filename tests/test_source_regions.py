"""Source-region splitting tests (LiveParser's substrate)."""

from pathlib import Path

import pytest

from repro.hdl.source_regions import (
    _DIRECTIVE_RE,
    _ENDMODULE_RE,
    _MODULE_RE,
    DIRECTIVE_REGION,
    MODULE_REGION,
    TOPLEVEL_REGION,
    SourceRegion,
    _strip_line_comment,
    module_regions,
    region_at_line,
    splice_modules,
    split_regions,
)
from repro.riscv.patches import PATCHES
from repro.riscv.pgas import build_pgas_source

SOURCE = """\
// top comment
`define W 8

module alpha (input clk);
  wire x;
endmodule

`ifdef W
module beta (input clk);
endmodule
`endif
"""


def test_module_regions_found():
    regions = module_regions(SOURCE)
    assert set(regions) == {"alpha", "beta"}


def test_module_region_bounds():
    region = module_regions(SOURCE)["alpha"]
    assert region.start_line == 4
    assert region.end_line == 6
    assert region.text.startswith("module alpha")
    assert region.text.rstrip().endswith("endmodule")


def test_directive_regions_found():
    directives = [r for r in split_regions(SOURCE) if r.kind == DIRECTIVE_REGION]
    assert [d.name for d in directives] == ["`define W 8", "`ifdef W", "`endif"]


def test_toplevel_comment_region():
    tops = [r for r in split_regions(SOURCE) if r.kind == TOPLEVEL_REGION]
    assert any("top comment" in r.text for r in tops)


def test_region_at_line():
    regions = split_regions(SOURCE)
    assert region_at_line(regions, 5).name == "alpha"
    assert region_at_line(regions, 2).kind == DIRECTIVE_REGION


def test_commented_module_keyword_ignored():
    source = "// module fake (input x);\nmodule real_one (input x);\nendmodule\n"
    regions = module_regions(source)
    assert set(regions) == {"real_one"}


def test_single_line_module():
    source = "module tiny (input x); endmodule"
    region = module_regions(source)["tiny"]
    assert region.start_line == region.end_line == 1


def test_unterminated_module_runs_to_eof():
    source = "module broken (input x);\n  wire w;\n"
    region = module_regions(source)["broken"]
    assert region.end_line == 2


def test_adjacent_modules_have_disjoint_spans():
    source = (
        "module a (input x);\nendmodule\nmodule b (input y);\nendmodule\n"
    )
    regions = module_regions(source)
    assert regions["a"].end_line < regions["b"].start_line


def test_directive_inside_module_body_not_split():
    # Only directives at statement level split regions; a directive
    # line inside a module belongs to the module region boundary scan.
    source = "`define A 1\nmodule m (input x);\n  wire [`A:0] w;\nendmodule\n"
    regions = split_regions(source)
    kinds = [r.kind for r in regions]
    assert kinds.count(MODULE_REGION) == 1
    assert kinds.count(DIRECTIVE_REGION) == 1


def test_splice_replaces_in_place_and_appends_the_rest():
    library = (
        "module beta (input clk, output y);\n  assign y = clk;\nendmodule\n"
        "\n// a new one\nmodule gamma (input clk);\nendmodule\n"
    )
    merged = splice_modules(SOURCE, library)
    regions = split_regions(merged)
    assert [r.name for r in regions if r.kind == MODULE_REGION] == [
        "alpha", "beta", "gamma"
    ]
    # beta stays where it was, between its directives, with the new body.
    beta = module_regions(merged)["beta"]
    assert "assign y = clk;" in beta.text
    assert [r.name for r in regions if r.kind == DIRECTIVE_REGION] == [
        "`define W 8", "`ifdef W", "`endif"
    ]
    assert merged.index("`ifdef W") < merged.index("module beta")
    assert merged.index("module beta") < merged.index("`endif")
    assert merged.index("`endif") < merged.index("// a new one")


def test_splice_with_nothing_redefined_appends_the_text():
    library = "module gamma (input clk);\nendmodule\n"
    assert splice_modules(SOURCE, library) == SOURCE.rstrip() + "\n\n" + library


# ---------------------------------------------------------------------------
# The scanner that runs every regex on every line (PR 21's loop, kept
# verbatim): the substring tests in front of the regexes may skip work,
# never change a boundary.
# ---------------------------------------------------------------------------


def reference_split_regions(source):
    lines = source.splitlines()
    regions = []
    i = 0
    pending_start = None

    def flush_toplevel(upto):
        nonlocal pending_start
        if pending_start is None:
            return
        text = "\n".join(lines[pending_start - 1 : upto])
        if text.strip():
            regions.append(
                SourceRegion(TOPLEVEL_REGION, "", pending_start, upto, text)
            )
        pending_start = None

    while i < len(lines):
        raw = lines[i]
        stripped = _strip_line_comment(raw)
        directive = _DIRECTIVE_RE.match(stripped)
        if directive:
            flush_toplevel(i)
            regions.append(
                SourceRegion(
                    DIRECTIVE_REGION, stripped.strip(), i + 1, i + 1, raw
                )
            )
            i += 1
            continue
        module = _MODULE_RE.match(stripped)
        if module:
            flush_toplevel(i)
            start = i
            name = module.group(1)
            while i < len(lines):
                if _ENDMODULE_RE.search(_strip_line_comment(lines[i])):
                    break
                i += 1
            end = min(i, len(lines) - 1)
            text = "\n".join(lines[start : end + 1])
            regions.append(SourceRegion(MODULE_REGION, name, start + 1, end + 1, text))
            i = end + 1
            continue
        if pending_start is None:
            pending_start = i + 1
        i += 1

    flush_toplevel(len(lines))
    return regions


CORNER_CASES = [
    SOURCE,
    "// module fake (input x);\nmodule real_one (input x);\nendmodule\n",
    "module tiny (input x); endmodule",
    "module broken (input x);\n  wire w;\n",
    "module a (input x);\nendmodule\nmodule b (input y);\nendmodule\n",
    "`define A 1\nmodule m (input x);\n  wire [`A:0] w;\nendmodule\n",
    # ``endmodule`` in a comment does not close; in a longer word neither.
    "module m (input x);\n  // endmodule\n  wire endmodule_q;\nendmodule\n"
    "trailing filler\n",
    # A directive only counts at the start of its line, outside comments.
    "  `ifdef A // `else\n// `define B\nwire `X;\n`endif\n`timescale 1ns\n",
    "module\nmodule 9x;\n  module  spaced (input x);\r\nendmodule // module z\n",
    "",
    "\n\n// only filler\n",
]


def _sources():
    for index, source in enumerate(CORNER_CASES):
        yield pytest.param(source, id=f"corner{index}")
    mesh = build_pgas_source(2)
    yield pytest.param(mesh, id="mesh2")
    yield pytest.param(build_pgas_source(4), id="mesh4")
    for name, patch in PATCHES.items():
        yield pytest.param(patch.inject(mesh), id=name)
    designs = Path(__file__).resolve().parent.parent / "examples" / "designs"
    for path in sorted(designs.glob("*.v")):
        yield pytest.param(path.read_text(), id=path.name)


@pytest.mark.parametrize("source", _sources())
def test_regions_equal_the_every_line_scanner(source):
    assert split_regions(source) == reference_split_regions(source)
