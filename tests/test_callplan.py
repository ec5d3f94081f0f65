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

from repro.codegen.build import BuildConfig
from repro.codegen.callplan import Wiring, part_demand, part_name
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
DESIGNS = [(name, source, top) for name, source, top in _digests_tool().designs(None)]
DESIGNS += [("call_order", CALL_ORDER_SRC, "top"), ("loop_in_cycle", LOOP_IN_CYCLE, "top")]
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
