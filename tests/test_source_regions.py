"""Source-region splitting tests (LiveParser's substrate)."""

from repro.hdl.source_regions import (
    DIRECTIVE_REGION,
    MODULE_REGION,
    TOPLEVEL_REGION,
    module_regions,
    region_at_line,
    splice_modules,
    split_regions,
)

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
