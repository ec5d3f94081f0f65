"""The comb-loop finding against a brute-force oracle.

Random modules of assigns plus one child, whose outputs each read a
drawn subset of its inputs (none: a register-sourced output the
scheduler may early-bind) or are registered, over random read graphs
with self-loops.  The oracle builds the signal graph from the drawn
reads alone and closes it transitively: every signal strongly
connected component with a cycle is one finding, whose path is a
shortest cycle through the component's smallest signal and lies inside
one of the scheduler's loops (``ModuleIR.loops``).  A reader added
outside the loop leaves the rendering as it was.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analyze import COMB_LOOP, Analyzer
from repro.hdl import elaborate, parse

WIRES = ["w0", "w1", "w2", "w3", "w4"]
PORTS = ["0", "1", "2"]


def _xor(names):
    return " ^ ".join(sorted(names)) or "a"


@st.composite
def loop_design(draw):
    """(source, signal -> the signals it reads) for one drawn design."""
    wires = WIRES[:draw(st.integers(2, len(WIRES)))]
    ports = PORTS[:draw(st.integers(1, len(PORTS)))]
    targets = ["c" + p for p in ports]
    names = wires + targets
    wire_reads = {
        w: draw(st.sets(st.sampled_from(names), max_size=3)) for w in wires
    }
    conn_reads = {
        p: draw(st.sets(st.sampled_from(names), max_size=2)) for p in ports
    }
    # Per output: "reg", or the child inputs it reads (empty: from a
    # child register, so it depends on no input).
    outputs = {
        p: draw(st.one_of(st.just("reg"),
                          st.sets(st.sampled_from(ports), max_size=2)))
        for p in ports
    }
    child = ["module c(input clk, "
             + ", ".join(f"input [3:0] i{p}" for p in ports) + ", "
             + ", ".join(("output reg" if outputs[p] == "reg" else "output")
                         + f" [3:0] o{p}" for p in ports) + ");",
             "  reg [3:0] r;",
             f"  always @(posedge clk) r <= i{ports[0]};"]
    for p, deps in outputs.items():
        if deps == "reg":
            child.append(f"  always @(posedge clk) o{p} <= r ^ i{p};")
        else:
            child.append(f"  assign o{p} = "
                         + " ^ ".join(["r"] + [f"i{d}" for d in sorted(deps)])
                         + ";")
    top = ["module top(input clk, input [3:0] a, output [3:0] y);"]
    top += [f"  wire [3:0] {n};" for n in names]
    top.append("  c u (.clk(clk), "
               + ", ".join(f".i{p}({_xor(conn_reads[p])})" for p in ports)
               + ", " + ", ".join(f".o{p}(c{p})" for p in ports) + ");")
    top += [f"  assign {w} = {_xor(wire_reads[w])};" for w in wires]
    top.append(f"  assign y = {_xor(names)};")
    source = "\n".join(child + ["endmodule", ""] + top + ["endmodule", ""])
    reads = dict(wire_reads)
    for p, deps in outputs.items():
        reads["c" + p] = (set() if deps == "reg" else
                          {n for d in deps for n in conn_reads[d]})
    return source, reads


def comb_loops(source):
    netlist = elaborate(parse(source), "top")
    report = Analyzer().analyze_netlist(netlist)
    return netlist.top_module, [
        d for d in report.diagnostics
        if d.kind == COMB_LOOP and d.module == "top"
    ]


def _distances(reads):
    """Shortest path length between every pair, by Floyd-Warshall."""
    inf = float("inf")
    dist = {(u, v): 1 if v in reads[u] else inf for u in reads for v in reads}
    for k in reads:
        for u in reads:
            for v in reads:
                dist[u, v] = min(dist[u, v], dist[u, k] + dist[k, v])
    return dist


@settings(max_examples=150, deadline=None)
@given(loop_design())
def test_one_finding_per_cyclic_component_on_a_scheduler_loop(design):
    source, reads = design
    ir, found = comb_loops(source)
    dist = _distances(reads)
    cyclic = {
        frozenset(v for v in reads if dist[u, v] + dist[v, u] < 1e9)
        for u in reads if dist[u, u] < 1e9
    }
    assert sorted(d.path[0] for d in found) == sorted(min(c) for c in cyclic)
    loops = [{n for unit in units for n in ir.unit_defines(unit)}
             for units in ir.loops]
    for diag in found:
        path = diag.path
        assert path[0] == path[-1] and len(set(path)) == len(path) - 1
        assert all(b in reads[a] for a, b in zip(path, path[1:]))
        assert len(path) - 1 == dist[path[0], path[0]]  # a shortest cycle
        assert any(set(path) <= loop for loop in loops)
        assert diag.message == ("combinational loop through "
                                + " -> ".join(path))

    # A new reader outside every loop, named to sort first.
    for diag in found:
        extra = source.replace(
            "  assign y =", f"  wire [3:0] a0;\n  assign a0 = {diag.path[1]};"
            "\n  assign y = a0 ^")
        _, again = comb_loops(extra)
        assert [(d.message, d.line) for d in again] == [
            (d.message, d.line) for d in found]


def test_a_loop_with_no_signal_cycle_has_no_finding():
    # The instance joins the scheduler's loop through ``b``, but ``x``
    # feeds only ``o2``, which nothing on the loop reads back.
    ir, found = comb_loops("""
module c(input [3:0] a, input [3:0] b, output [3:0] o1, output [3:0] o2);
  assign o1 = a + 4'd1;
  assign o2 = b + 4'd2;
endmodule

module top(input [3:0] in, output [3:0] out);
  wire [3:0] x;
  wire [3:0] y;
  wire [3:0] z;
  c u (.a(in), .b(x), .o1(y), .o2(z));
  assign x = y;
  assign out = z;
endmodule
""")
    assert ir.loops and found == []
