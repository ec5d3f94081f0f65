"""The call plan on its own, with no source generated.

In one cycle each instance's settled comb body runs once, with its
final arguments, before its ``cycle`` (:mod:`repro.codegen.callplan`).
On the plan that reads: walk each module's parts in the order one cycle
runs them (the parts its parent calls, ``eval_out`` for the top, then
``cycle``); each child's calls chain from nothing to all of its comb
ports.  The chain may stop short only for a child whose ``cycle`` is
skipped (a pure subtree), and a call on a comb loop the parent repeats
starts from nothing on each pass.  Every mesh design (each
``riscv.patches`` variant too) and every ``examples/designs`` top is
checked under the plans of each build the pipeline makes, and under no
plan at all.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.codegen.build import OPT_LEVELS, BuildConfig
from repro.codegen.callplan import Wiring, edge_plan, edge_units, part_demand, part_name
from repro.hdl import elaborate, parse
from repro.passes import PassData, PassPipeline, build_compile_pipeline
from tests.test_call_order import SRC as CALL_ORDER_SRC
from tests.test_codegen_seam import _digests_tool

# A child on a comb loop that settles in ``cycle`` (only a register
# reads it, and it reads the reset), after ``eval_out`` has called the
# part of the child its output needs: each pass calls it from nothing.
LOOP_IN_CYCLE = """
module two (input [7:0] p, input [7:0] m, output [7:0] o, output [7:0] e);
  assign e = p + 8'd1;
  assign o = p | m;
endmodule

module top (input clk, input rst, input [7:0] a, output [7:0] y);
  wire [7:0] lm, lo, e;
  reg [7:0] acc;
  assign lm = {lo[6:0], 1'b0} & (rst ? 8'hff : 8'h00);
  two u (.p(a), .m(lm), .o(lo), .e(e));
  assign y = e ^ acc;
  always @(posedge clk) acc <= acc + lo;
endmodule
"""
SHIPPED = [(name, source, top) for name, source, top in _digests_tool().designs(None)]
DESIGNS = SHIPPED + [("call_order", CALL_ORDER_SRC, "top"), ("loop_in_cycle", LOOP_IN_CYCLE, "top")]
BUILDS = [BuildConfig(), BuildConfig(opt="full"), BuildConfig(sanitize=True, opt="full")]


def plans_of(netlist, build: BuildConfig):
    """The optimization plans the pipeline hands the generator."""
    before_codegen = PassPipeline(build_compile_pipeline().passes[:-1])
    return before_codegen.run(PassData(netlist=netlist, build=build)).plans


def check_calls(wirings, key: str, chain, cycled: bool, seen: Counter) -> None:
    """Module ``key`` runs the parts ``chain`` in order, then its
    ``cycle`` if ``cycled``: check every child's calls, then each
    child's own under the chain its calls make."""
    wiring: Wiring = wirings[key]
    runs = [(lo, hi, False) for lo, hi in chain]
    if cycled:
        runs.append((wiring.comb, wiring.all, True))
    for index, inst in enumerate(wiring.ir.instances):
        child = wirings[inst.child_key]
        at, calls = None, []  # how far the child is computed: nothing yet
        for lo, hi, in_cycle in runs:
            if lo is None:
                at = None  # a part from nothing computes its children from nothing
            for step in wiring.walk(lo, hi, in_cycle):
                if index not in step.calls:
                    continue
                start, end = part = step.calls[index]
                where = (key, inst.name, lo, hi, in_cycle)
                if step.settle:
                    assert start is None, where  # each pass starts again
                    seen["restarted"] += at is not None
                else:
                    assert start == at, where
                seen["prepass"] += end == frozenset() and start is None
                assert start is None or start < end, where
                assert part_name(child.ir, part) == "eval_out" or part in child.parts, where
                at = end
                calls.append(part)
        child_cycled = cycled and index not in wiring.skip
        if child_cycled:
            assert at == child.comb, (key, inst.name, at)
        else:
            seen["skipped"] += 1
        check_calls(wirings, inst.child_key, calls, child_cycled, seen)


def check_netlist(netlist, plans, seen: Counter) -> None:
    wirings = part_demand(netlist, plans)
    top = wirings[netlist.top]
    check_calls(wirings, netlist.top, [(None, top.comb)], True, seen)


@pytest.mark.parametrize("name, source, top", DESIGNS, ids=[d[0] for d in DESIGNS])
def test_each_child_runs_its_settled_body_once_per_cycle(name, source, top):
    netlist = elaborate(parse(source), top)
    seen = Counter()
    check_netlist(netlist, None, seen)
    for build in BUILDS:
        check_netlist(netlist, plans_of(netlist, build), seen)


def test_the_designs_hold_every_shape_the_chain_allows():
    """The designs above reach a looped call that restarts a child
    already called, an early-bind prepass and a skipped pure child, so
    each rule of the chain is exercised."""
    seen = Counter()
    for _, source, top in DESIGNS:
        netlist = elaborate(parse(source), top)
        check_netlist(netlist, plans_of(netlist, BUILDS[0]), seen)
    assert seen["restarted"] and seen["prepass"] and seen["skipped"], seen


# -- the edge plan: which registers ``cycle`` reads the old value of -------

# ``q`` reads ``hidden``, which the statement before it writes: run
# second, that statement would clash; run first, neither does.  ``acc``
# reads itself only before its write; ``pair`` is written by two
# statements, which keep their order, and read by a child argument.
# ``sunk`` is read only by the last statement, so it may be written
# there: its read is a read of ``late``, which that statement writes
# first.  ``late`` and ``pair`` are read through their old value.
EDGE = """
module sink (input clk, input [7:0] v, output [7:0] o);
  assign o = v;
endmodule
module m (input clk, input rst, input [7:0] d, input en, output [7:0] y, output [7:0] z);
  reg [7:0] hidden, q, acc, pair, late;
  wire [7:0] sunk;
  assign sunk = late + 8'd1;
  sink u (.clk(clk), .v(pair), .o(z));
  assign y = q ^ acc;
  always @(posedge clk) begin
    hidden <= rst ? 8'd1 : hidden + d;
    q <= rst ? 8'd0 : q + hidden;
  end
  always @(posedge clk) begin
    acc <= acc + d;
    pair <= d;
  end
  always @(posedge clk) begin
    if (en) pair <= 8'd7;
    if (en) begin
      late <= d;
      acc[0] <= sunk[0];
    end
  end
endmodule
"""


def test_the_edge_plan_orders_readers_before_writers():
    netlist = elaborate(parse(EDGE), "m")
    ir = netlist.modules["m"]
    units = edge_units(ir)
    assert [block for block, _ in units] == [0, 0, 1, 1, 2, 2]
    plan = edge_plan(ir)
    lines = [stmt.line for _, stmt in plan.order]
    # q's statement runs before hidden's; the two writers of pair, and
    # of acc, stay in their order.
    assert lines.index(units[1][1].line) < lines.index(units[0][1].line)
    assert lines.index(units[3][1].line) < lines.index(units[4][1].line)
    assert lines.index(units[2][1].line) < lines.index(units[5][1].line)
    assert plan.reads_old == {"pair", "late"}
    # Under the plan every build of the module makes, ``sink`` is a pure
    # subtree whose ``cycle`` is not called, so its argument is read
    # only in the comb body, before any write of ``pair``.
    for build in BUILDS:
        wiring = part_demand(netlist, plans_of(netlist, build))["m"]
        assert wiring.edge.reads_old == {"late"}


@pytest.mark.parametrize("sanitize", [False, True], ids=["clean", "sanitized"])
def test_no_shipped_design_reads_a_register_after_its_write(sanitize):
    """No register of any shipped design (the meshes, each patch variant,
    each ``examples/designs`` top) is read after its write, under the
    plan of each opt level: none needs an old-value local."""
    for name, source, top in SHIPPED:
        netlist = elaborate(parse(source), top)
        for opt in OPT_LEVELS:
            build = BuildConfig(sanitize=sanitize, opt=opt)
            wirings = part_demand(netlist, plans_of(netlist, build))
            for key, wiring in wirings.items():
                assert wiring.edge.reads_old == frozenset(), (name, opt, key)
