"""Work budgets: exact counts of the work the simulator does, pinned as
data in one table.

A wall-clock bound cannot see a few per cent; a count can.  Each row of
``BUDGET`` is one count, measured the same way on every host:

- ``cycle.2x2.*``: the Python-level ``call`` and ``c_call`` events
  (``sys.setprofile``) a clean 2x2 mesh cycle makes outside generated
  (``<lhdl:...>``) code, driven by livebench's boot testbench once past
  reset — with no check (``unwatched``), with a check that never
  stops the run (``watched``), and with no check but ``sim_allon2``'s
  8 probes captured into a trace buffer (``traced``).  A call into
  generated code counts; the calls generated code makes do not.
- ``cycle.<n>x<n>.lines``: the line events (``sys.settrace``) in
  generated code per clean cycle of the 2x2 and 4x4 mesh, over 20
  cycles after cycle 200 of livebench's boot testbench: how many
  statements the kernel runs, not how long they take.
- ``entries.4x4.<module>.<entry>``: the calls per clean 4x4 mesh cycle
  into each generated function (``sys.settrace`` ``call`` events), by
  module name and function name, over the same 20 cycles: how often
  each entry point is entered, the calling protocol's share of a cycle.
- ``setup.*``: the ``repro`` modules, their source lines and the
  ``@dataclass`` classes they define that the live loop (set-up, run,
  peek and one edit; ``test_public_api.LIVE_LOOP_SCRIPT``) loads up to
  its report, in a fresh interpreter.
- ``codegen.lines.*``: the lines of generated source of a clean
  ``opt=none`` build, summed over the library, for the 2x2 and 4x4
  mesh and every module of ``examples/designs/*.v`` as a top, named
  and counted as ``tools/source_digests.py`` names and counts them.
- ``compile.4x4.wirings``: the call plans (``callplan.Wiring``, counter
  ``codegen.wirings``) a clean ``compile_netlist`` of the 4x4 mesh
  builds: one per module, which plans each part's child calls once for
  the whole compile.
- ``edit.2x2.rv_ex.walks``: the walks (counter ``codegen.walks``) the
  codegen pass makes when a live compile of the 2x2 mesh is edited in
  ``rv_ex``'s body (``riscv.patches``' ``ex-forward-priority``): the
  edited module's own, the rest kept from the compile before.
- ``ckpt.2x2.*``: a clean 2x2 mesh on livebench's boot testbench,
  checkpointed at cycles 200 and 300 and rewound from cycle 400 to the
  first: the pages the second take compares (counter
  ``checkpoint.pages_compared``: the pages its interval wrote, and each
  single-page register file) and the words the rewind copies (counter
  ``checkpoint.words_restored``: the pages written since the second
  take, the pages the first differs from it in, and every register
  file).
- ``settle.*``: the runs of a comb loop's settle loop per cycle (the
  calls of its module's settled body, which holds the loop) in an
  unwatched run, with a sequential-only input (the reset) held at 1.

A change that lowers a count lowers its row in the same change; one that
raises a count says so in CHANGES.md with the reason.
"""

from __future__ import annotations

import gc
import json
import sys
from collections import Counter

from benchmarks.livebench.workloads import (
    WORKLOADS,
    boot_testbench,
    node_images,
    node_programs,
    probe_signals,
)
from repro import compile_design, obs
from repro.codegen.build import BuildConfig
from repro.hdl import elaborate, parse
from repro.live.checkpoint import CheckpointStore
from repro.live.compiler_live import LiveCompiler
from repro.passes import compile_netlist
from repro.riscv.patches import PATCHES
from repro.riscv.pgas import build_pgas_source, mesh_top_name
from repro.sim import Pipe
from repro.sim.testbench import CallbackTestbench
from repro.trace import TraceBuffer
from tests.test_codegen_seam import _digests_tool
from tests.test_public_api import LIVE_LOOP_SCRIPT, run_fresh
from tests.test_unwatched_cycle import LOOP_SRC, loop_inputs, wrapped

BUDGET = {
    "cycle.2x2.unwatched": 6,
    "cycle.2x2.watched": 9,
    "cycle.2x2.traced": 16,
    "cycle.2x2.lines": 1054.8,
    "cycle.4x4.lines": 4205.8,
    "entries.4x4.pgas_mesh_4x4.cycle": 1,
    "entries.4x4.pgas_mesh_4x4.eval_out": 1,
    "entries.4x4.pgas_node.cycle": 16,
    "entries.4x4.pgas_node.eval_out": 16,
    "entries.4x4.ring_stop.cycle": 16,
    # ring_stop and rv_mem: each body runs in two parts, each once per
    # instance, and never whole.  rv_mem's cycle is empty: not called.
    "entries.4x4.ring_stop.eval_0_3f": 16,
    "entries.4x4.ring_stop.eval_n_0": 16,
    "entries.4x4.ring_stop.eval_out": 0,
    "entries.4x4.rv_core.cycle": 16,
    "entries.4x4.rv_core.eval_out": 16,
    "entries.4x4.rv_ex.cycle": 16,
    "entries.4x4.rv_ex.eval_out": 16,
    "entries.4x4.rv_id.cycle": 16,
    "entries.4x4.rv_id.eval_out": 16,
    "entries.4x4.rv_if.cycle": 16,
    "entries.4x4.rv_if.eval_out": 16,
    "entries.4x4.rv_mem.cycle": 0,
    "entries.4x4.rv_mem.eval_3ff_7ff": 16,
    "entries.4x4.rv_mem.eval_n_3ff": 16,
    "entries.4x4.rv_mem.eval_out": 0,
    "entries.4x4.rv_memory.cycle": 16,
    "entries.4x4.rv_memory.eval_out": 16,
    "entries.4x4.rv_wb.cycle": 16,
    "entries.4x4.rv_wb.eval_out": 16,
    "setup.modules": 60,
    "setup.lines": 17_386,
    "setup.dataclasses": 52,
    "codegen.lines.mesh2x2": 527,
    "codegen.lines.mesh4x4": 635,
    "codegen.lines.counter.v:adder": 6,
    "codegen.lines.counter.v:counter": 17,
    "codegen.lines.counter.v:top": 29,
    "codegen.lines.pitfalls.v:pitfalls": 16,
    "codegen.lines.ranges.v:narrows": 6,
    "codegen.lines.ranges.v:ranges": 37,
    "codegen.lines.ring.v:ring": 18,
    "compile.4x4.wirings": 10,
    "edit.2x2.rv_ex.walks": 2,
    "settle.loop_child.unwatched": 1,
    "ckpt.2x2.take.pages_compared": 8,
    "ckpt.2x2.rewind.words_copied": 1_152,
}


def moved(measured):
    """The rows whose count is not the pinned one: name -> (pinned, now)."""
    return {
        name: (BUDGET[name], count)
        for name, count in measured.items() if count != BUDGET[name]
    }


def events(tb, pipe, cycles):
    """``call`` / ``c_call`` events outside generated code while
    ``tb`` runs ``cycles`` cycles, by kind and callee.  The garbage
    collector is off meanwhile: a collection calls whatever
    ``gc.callbacks`` another test left (hypothesis registers one),
    in one run and not the other."""
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call":
            callee = frame.f_code
            if not callee.co_filename.startswith("<lhdl:"):
                seen["call", callee.co_name] += 1
        elif event == "c_call" and not frame.f_code.co_filename.startswith("<lhdl:"):
            seen["c_call", getattr(arg, "__qualname__", repr(arg))] += 1

    gc.disable()
    sys.setprofile(profile)
    try:
        tb.run(pipe, cycles)
    finally:
        sys.setprofile(None)
        gc.enable()
    return seen


def test_a_clean_2x2_cycle_stays_within_its_call_budget(pgas2_netlist_library):
    _, netlist, library = pgas2_netlist_library
    images = node_images(node_programs(1, 4))
    measured, detail = {}, {}
    for row in ("unwatched", "watched", "traced"):
        pipe = Pipe(netlist.top, library)
        tb = boot_testbench(images)
        if row == "watched":
            tb = CallbackTestbench(tb.name, drive=tb.drive, check=lambda p, o: False)
        if row == "traced":
            pipe.attach_trace(TraceBuffer())
            for signal in probe_signals(WORKLOADS["sim_allon2"]):
                pipe.trace_buffer.watch(pipe, signal)
        tb.run(pipe, 20)  # past reset: the inputs hold from here on
        # A run's own events cancel out of the difference of two runs.
        per_cycle = events(tb, pipe, 20) - events(tb, pipe, 10)
        total = sum(per_cycle.values())
        assert total % 10 == 0, per_cycle
        measured[f"cycle.2x2.{row}"] = total // 10
        detail[row] = {f"{kind} {name}": n // 10 for (kind, name), n in per_cycle.items()}
    assert not moved(measured), f"per-cycle calls moved (pinned, now): {moved(measured)}; {detail}"


def generated_lines(tb, pipe, cycles):
    """Line events in generated (``<lhdl:...>``) frames while ``tb``
    runs ``cycles`` cycles."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith("<lhdl:") else None

    sys.settrace(trace)
    try:
        tb.run(pipe, cycles)
    finally:
        sys.settrace(None)
    return count


def test_a_clean_mesh_cycle_stays_within_its_line_budget():
    measured = {}
    for n in (2, 4):
        netlist = elaborate(parse(build_pgas_source(n)), mesh_top_name(n))
        pipe = Pipe(netlist.top, compile_netlist(netlist))
        tb = boot_testbench(node_images(node_programs(1, n * n)))
        tb.run(pipe, 200)
        measured[f"cycle.{n}x{n}.lines"] = generated_lines(tb, pipe, 20) / 20
    assert not moved(measured), f"per-cycle lines moved (pinned, now): {moved(measured)}"


def entries(tb, pipe, cycles):
    """Calls into each generated function while ``tb`` runs ``cycles``
    cycles, by (module name, function name)."""
    seen = Counter()

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename.startswith("<lhdl:"):  # <lhdl:spec@digest>
            module = filename[6:].partition("@")[0].partition("#")[0]
            seen[module, frame.f_code.co_name] += 1
        return None

    sys.settrace(trace)
    try:
        tb.run(pipe, cycles)
    finally:
        sys.settrace(None)
    return seen


def test_a_clean_4x4_cycle_enters_each_generated_function_as_pinned():
    netlist = elaborate(parse(build_pgas_source(4)), mesh_top_name(4))
    pipe = Pipe(netlist.top, compile_netlist(netlist))
    tb = boot_testbench(node_images(node_programs(1, 16)))
    tb.run(pipe, 200)
    measured = {
        f"entries.4x4.{module}.{entry}": calls / 20
        for (module, entry), calls in entries(tb, pipe, 20).items()
    }
    pinned = {name for name in BUDGET if name.startswith("entries.")}
    for name in pinned - measured.keys():
        measured[name] = 0  # pinned, no longer entered
    unpinned = measured.keys() - pinned
    assert not unpinned, f"entry points not pinned: {sorted(unpinned)}"
    assert not moved(measured), f"per-cycle entries moved (pinned, now): {moved(measured)}"


SETUP_REPORT = """
import dataclasses
import inspect
import pathlib

modules = [m for name, m in sys.modules.items() if name.startswith("repro")]
print(json.dumps({
    "setup.modules": len(modules),
    "setup.lines": sum(
        len(pathlib.Path(m.__file__).read_text().splitlines())
        for m in modules
    ),
    "setup.dataclasses": sum(
        inspect.isclass(v) and dataclasses.is_dataclass(v)
        and v.__module__ == m.__name__
        for m in modules for v in vars(m).values()
    ),
}))
"""


def test_the_live_loop_stays_within_its_setup_budget():
    loop, marker, _ = LIVE_LOOP_SCRIPT.partition("loaded = ")
    assert marker, "the live loop script no longer reports what it loaded"
    measured = json.loads(run_fresh(loop + SETUP_REPORT))
    assert not moved(measured), f"set-up budget moved (pinned, now): {moved(measured)}"


def test_generated_source_stays_within_its_line_budget():
    measured = {}
    for name, source, top in _digests_tool().designs(None):
        if f"codegen.lines.{name}" not in BUDGET:
            continue  # a patched mesh
        library = compile_netlist(elaborate(parse(source), top), BuildConfig(opt="none"))
        measured[f"codegen.lines.{name}"] = sum(
            code.source.count("\n") for code in library.values()
        )
    assert measured.keys() == {name for name in BUDGET if name.startswith("codegen.")}
    assert not moved(measured), f"generated lines moved (pinned, now): {moved(measured)}"


def test_a_clean_4x4_compile_plans_each_module_once():
    netlist = elaborate(parse(build_pgas_source(4)), mesh_top_name(4))
    metrics = obs.get_metrics()
    before = metrics.counter("codegen.wirings")
    compile_netlist(netlist)
    measured = {"compile.4x4.wirings": metrics.counter("codegen.wirings") - before}
    assert not moved(measured), f"call plans moved (pinned, now): {moved(measured)}"


def test_an_rv_ex_edit_walks_only_rv_ex():
    source, top = build_pgas_source(2), mesh_top_name(2)
    compiler = LiveCompiler(source)
    compiler.compile_top(top)
    metrics = obs.get_metrics()
    before = metrics.counter("codegen.walks")
    compiler.update_source(PATCHES["ex-forward-priority"].inject(source))
    assert compiler.compile_top(top).report.recompiled_keys == ["rv_ex"]
    measured = {"edit.2x2.rv_ex.walks": metrics.counter("codegen.walks") - before}
    assert not moved(measured), f"walks moved (pinned, now): {moved(measured)}"


def test_a_comb_loop_child_settles_once_per_cycle():
    """``LOOP_SRC``'s ``m`` under a one-instance top: its settled body,
    which holds the loop, takes only the inputs its output reads, so
    the reset the parent cannot pass from its own ``eval_out`` does not
    call it again, and its loop settles once a cycle."""
    netlist, library = compile_design(*wrapped(LOOP_SRC, 1))
    code = library["m"]
    assert "for _pass" in code.source.split("def cycle")[0]
    runs = []
    for name in ("eval_out_fn", *code.parts_fn):
        def counted(*args, _inner=getattr(code, name)):
            runs.append(1)
            return _inner(*args)

        setattr(code, name, counted)  # calls from the parent
    pipe = Pipe(netlist.top, library)

    def drive(p):
        p.set_inputs(**loop_inputs(p.cycle))
        p.set_inputs(rst=1)

    pipe.step(5, driver=drive)
    runs.clear()
    pipe.step(10, driver=drive)
    measured = {"settle.loop_child.unwatched": sum(runs) / 10}
    assert not moved(measured), f"settle runs moved (pinned, now): {moved(measured)}"


def test_a_2x2_checkpoint_moves_only_what_changed(pgas2_netlist_library):
    _, netlist, library = pgas2_netlist_library
    pipe = Pipe(netlist.top, library)
    tb = boot_testbench(node_images(node_programs(1, 4)))
    store = CheckpointStore(interval=100)
    metrics = obs.get_metrics()
    tb.run(pipe, 200)
    first = store.take(pipe, "1.0", 0)
    tb.run(pipe, 100)
    before = metrics.counter("checkpoint.pages_compared")
    store.take(pipe, "1.0", 0)
    compared = metrics.counter("checkpoint.pages_compared") - before
    tb.run(pipe, 100)
    before = metrics.counter("checkpoint.words_restored")
    pipe.restore_transformed(first.snapshot)
    measured = {
        "ckpt.2x2.take.pages_compared": compared,
        "ckpt.2x2.rewind.words_copied": metrics.counter("checkpoint.words_restored") - before,
    }
    assert not moved(measured), f"checkpoint work moved (pinned, now): {moved(measured)}"
