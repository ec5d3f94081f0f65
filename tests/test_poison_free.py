"""Poison-free bodies: a sanitized module pays for its register and
memory hooks only while one of its registers or memory words is
poisoned.

Under ``san_elide`` each generated function of a sanitized module that
reads a poison bitmap comes in two bodies
(:mod:`repro.codegen.pygen`): the hooked one, ``_pz_<name>``, and the
poison-free one under the function's own name, which hands the call to
the hooked one while one of the instance's bitmaps it reads is nonzero.  The counts here
are exact, taken the way ``tests/test_work_budget.py`` takes its own:
``sys.setprofile`` ``call`` events, into generated functions by module
and function name and into the sanitizer runtime by method name.

- A cold sanitized 2x2 mesh (``report``, ``opt=full``) past reset makes
  no hook call and enters no hooked body, ``rv_memory``'s included.
- One poisoned memory word sends its ``rv_memory`` instance, and only
  it, to its hooked bodies until the design writes the word.
- An ``rv_ex`` edit that creates a register poisons it in every
  ``rv_ex`` instance: those run their hooked bodies for the cycle that
  first writes it, and report the findings and hits the plain-hook
  build (``san_elide=False``) reports.
- Once written, the register is defined: every instance is back on its
  poison-free bodies, with every bitmap zero.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter

import pytest

from benchmarks.livebench.workloads import boot_testbench, node_images, node_programs
from repro.codegen.build import BuildConfig
from repro.hdl import elaborate, parse
from repro.live.session import LiveSession
from repro.passes import compile_netlist
from repro.riscv.pgas import build_pgas_source, mesh_top_name
from repro.sanitize import SanitizerRuntime, runtime
from repro.sanitize.runtime import SAN_UNINIT
from repro.sim import Pipe

HOOKS = ("rr", "mr", "ob", "tr", "nw")
NODES = 4  # of the 2x2 mesh: one rv_ex each

MESH = build_pgas_source(2)
# A register of rv_ex that reads itself before its first write.
ANCHOR = "  wire [63:0] link;\n"
CREATE = MESH.replace(ANCHOR, (
    "  reg [63:0] fold_q;\n"
    "  always @(posedge clk) fold_q <= fold_q ^ alu_result;\n"
) + ANCHOR, 1)


def calls(run) -> Counter:
    """The calls made while ``run()`` runs: into generated functions by
    (module name, function name), into the sanitizer's hooks by
    ``("_san", hook)``."""
    seen = Counter()

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename.startswith("<lhdl:"):  # <lhdl:spec@digest>
            module = code.co_filename[6:].partition("@")[0].partition("#")[0]
            seen[module, code.co_name] += 1
        elif code.co_filename == runtime.__file__ and code.co_name in HOOKS:
            seen["_san", code.co_name] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def hooked(seen: Counter) -> Counter:
    """The hook calls and hooked-body entries of ``seen``."""
    return Counter({at: n for at, n in seen.items()
                    if at[0] == "_san" or at[1].startswith("_pz_")})


def poisoned(pipe) -> list:
    """The instances of ``pipe`` with a register poisoned."""
    return [path for path, inst in pipe.top.walk()
            if inst.state[inst.code.layout.reg_poison_slot]]


def tb():
    return boot_testbench(node_images(node_programs(1, NODES)))


def cold_mesh():
    """A sanitized 2x2 mesh past reset, and its boot testbench."""
    netlist = elaborate(parse(MESH), mesh_top_name(2))
    library = compile_netlist(netlist, BuildConfig(sanitize=True, opt="full"),
                              sanitize_runtime=SanitizerRuntime("report"))
    pipe = Pipe(netlist.top, library)
    bench = tb()
    bench.run(pipe, 200)
    return pipe, bench


def test_a_cold_sanitized_mesh_runs_no_hook():
    pipe, bench = cold_mesh()
    for name in ("rv_ex", "rv_memory"):  # each has hooked bodies
        code = next(code for code in pipe.library.values() if code.name == name)
        assert {"_pz_eval_out", "_pz_cycle"} <= set(code.cycle_fn.__globals__)
    seen = calls(lambda: bench.run(pipe, 20))
    assert not hooked(seen), hooked(seen)
    for name in ("rv_ex", "rv_memory"):  # the poison-free bodies
        assert seen[name, "cycle"] == 20 * NODES
    assert not poisoned(pipe)


def test_a_poisoned_memory_word_runs_its_instance_hooked_until_written():
    pipe, bench = cold_mesh()
    twin, twin_bench = cold_mesh()
    # The first word node 0's program stores to from here on.
    words = twin.find("n_0.u_mem").memory("mem")
    before, store = list(words), []
    while not store:
        twin_bench.run(twin, 1)
        store = [at for at, (old, new) in enumerate(zip(before, words)) if old != new]
    mem = pipe.find("n_0.u_mem")
    slot = mem.code.mem_specs["mem"].poison_slot
    mem.state[slot] = 1 << store[0]
    pipe.invalidate()
    cycles = twin.cycle - pipe.cycle
    seen = calls(lambda: bench.run(pipe, cycles))
    # Only that instance ran its hooked bodies, and the memory commit
    # of the store cleared the word: it is back on the fast bodies.
    entered = {at: n for at, n in hooked(seen).items() if at[0] != "_san"}
    assert entered == {("rv_memory", "_pz_eval_out"): cycles,
                       ("rv_memory", "_pz_cycle"): cycles}
    assert mem.state[slot] == 0
    assert not hooked(calls(lambda: bench.run(pipe, 20)))


def _session(san_elide: bool):
    session = LiveSession(MESH, checkpoint_interval=10, sanitize="report", opt="full")
    session.set_build(dataclasses.replace(session.compiler.build, san_elide=san_elide))
    session.inst_pipe("p0", session.stage_handle_for(mesh_top_name(2)))
    bench = session.load_testbench(tb())
    session.run(bench, "p0", 25)
    return session, bench


@pytest.fixture(scope="module")
def created():
    """For the elided and the plain-hook build: the calls the edit made
    (its replay), the runtime's hits and findings after it, and the
    calls of 20 cycles after those."""
    out = {}
    for san_elide in (True, False):
        session, bench = _session(san_elide)
        edit = calls(lambda: session.apply_change(CREATE))
        san = session.sanitize_runtime
        hits, findings = dict(san.hits), list(san.findings)
        after = calls(lambda: session.run(bench, "p0", 20))
        out[san_elide] = edit, hits, findings, after, session.pipe("p0")
    return out


def test_the_poisoned_instances_run_their_hooked_bodies(created):
    edit, hits, findings, _, _ = created[True]
    entered = {at: n for at, n in hooked(edit).items() if at[0] != "_san"}
    # Every rv_ex runs its hooked cycle once: the cycle that writes fold_q.
    assert {module for module, _ in entered} == {"rv_ex"}
    assert entered["rv_ex", "_pz_cycle"] == NODES
    # The one rr hook that runs is the one that reports, in each.
    assert edit["_san", "rr"] == hits[SAN_UNINIT] == NODES
    assert [f.message.split(":")[0] for f in findings] == ["fold_q"]


def test_findings_and_hits_are_the_plain_hooks(created):
    _, hits, findings, _, _ = created[True]
    _, plain_hits, plain_findings, _, _ = created[False]
    assert hits == plain_hits
    assert findings == plain_findings


def test_a_written_register_puts_its_instance_back_on_the_fast_body(created):
    _, _, _, after, pipe = created[True]
    assert not poisoned(pipe)
    assert not hooked(after), hooked(after)
    assert after["rv_ex", "cycle"] == 20 * NODES
    # The plain-hook build calls its hooks on every cycle.
    assert created[False][3]["_san", "rr"] > 0
