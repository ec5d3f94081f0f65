"""Public-API integrity: every exported name resolves and the
documented entry points work as advertised."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from tests.conftest import COUNTER_SRC

ROOT = Path(__file__).resolve().parent.parent

PACKAGES = [
    "repro",
    "repro.hdl",
    "repro.ir",
    "repro.codegen",
    "repro.sim",
    "repro.live",
    "repro.baseline",
    "repro.hostmodel",
    "repro.riscv",
    "repro.bench",
    "repro.obs",
    "repro.passes",
    "repro.sanitize",
    "repro.analyze",
]

# What opening a session, running it and editing it never import: the
# verifier pool (multiprocessing and what it pulls in), regression, the
# baseline compiler and its flat generator, the cost model, the
# cosimulator and its golden model, trace reports, live trace capture,
# the sanitizer's instrumenter, the optimizer, the preprocessor (the
# mesh has no directive), the analyzer's JSON report, checkpoint files
# (pickle) and rename guesses (difflib: no edit drops a register).
OFF_THE_LIVE_LOOP = [
    "multiprocessing", "concurrent.futures", "socket", "selectors",
    "subprocess", "logging", "pickle", "difflib",
    "repro.live.consistency", "repro.live.regression",
    "repro.baseline", "repro.codegen.flatgen", "repro.codegen.cost",
    "repro.riscv.cosim", "repro.riscv.golden",
    "repro.obs.report",
    "repro.trace", "repro.trace.buffer", "repro.trace.probes",
    "repro.trace.vcd", "repro.sanitize.instrument", "repro.passes.optimize",
    "repro.hdl.preprocessor", "repro.analyze.report",
]

LIVE_LOOP_SCRIPT = """
import json
import sys

from repro.live.commands import CommandInterpreter
from repro.live.session import LiveSession
from repro.riscv.patches import single_stage_patches
from repro.riscv.pgas import build_pgas_source, mesh_top_name
from repro.riscv.programs import boot_program, busy_counter

source = build_pgas_source(2)
session = LiveSession(source, checkpoint_interval=20, reload_distance=20)
session.inst_pipe("p0", session.stage_handle_for(mesh_top_name(2)))
tb = session.load_testbench(boot_program(busy_counter(), count=4))
session.run(tb, "p0", 60)
CommandInterpreter(session).execute("peek p0")
report = session.apply_change(single_stage_patches()[0].inject(source))
loaded = [name for name in json.loads(sys.argv[1]) if name in sys.modules]
print(json.dumps({
    "recompiled": report.recompiled_keys,
    "loaded": loaded,
    "verdict": session.verify_consistency("p0").verdict,
}))
"""


def run_fresh(script, *args):
    """``script`` in a new interpreter, without a bytecode cache (every
    import compiles its source); returns what it printed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return done.stdout


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_package_has_docstring(package):
    module = importlib.import_module(package)
    assert module.__doc__ and len(module.__doc__.strip()) > 20


def test_version_string():
    assert repro.__version__ == "1.0.0"


def test_compile_design_entry_point():
    netlist, library = repro.compile_design(COUNTER_SRC, "top")
    assert netlist.top in library
    pipe = repro.Pipe(netlist.top, library)
    pipe.set_inputs(rst=0)
    pipe.step(3)
    assert pipe.outputs()["c0"] == 3


def test_compile_design_after_importing_only_repro():
    out = run_fresh(
        "import sys, repro\n"
        "netlist, library = repro.compile_design(sys.argv[1], 'top')\n"
        "print(netlist.top in library)",
        COUNTER_SRC,
    )
    assert out.split() == ["True"]


def test_obs_report_stays_the_function_once_the_schema_loads():
    # Importing repro.obs.report binds the submodule on the package,
    # under the name of the package's report() function.
    out = run_fresh(
        "from repro import obs\n"
        "assert obs.SCHEMA_ID == obs.report()['schema']\n"
        "print(callable(obs.report))"
    )
    assert out.split() == ["True"]


def test_the_live_loop_imports_only_what_it_runs():
    """Set-up, run, peek and an edit on the 2x2 mesh load none of
    ``OFF_THE_LIVE_LOOP``; verification then imports what it needs."""
    out = json.loads(run_fresh(LIVE_LOOP_SCRIPT, json.dumps(OFF_THE_LIVE_LOOP)))
    assert out["recompiled"] == ["rv_ex"]
    assert out["loaded"] == []
    assert out["verdict"] == "consistent"


# Each subsystem a clean session never runs, and what first runs it: the
# lines before that leave it unloaded, the lines after load it and work.
# A line is a shell command, or "open", "edit" (the edited source applied),
# "vcd" (the pipe's trace written as VCD) or "verify".
FIRST_USE_SCRIPT = """
import json
import pathlib
import sys
import tempfile

from repro.live.commands import CommandInterpreter
from repro.live.session import LiveSession
from repro.sim.testbench import reset_sequence

module, source, edited, before, after = json.loads(sys.argv[1])
scratch = tempfile.mkdtemp()
session = commands = None


def execute(line):
    global session, commands
    if line == "open":
        session = LiveSession(source, checkpoint_interval=10)
        session.load_testbench(reset_sequence("rst", 2))
        commands = CommandInterpreter(session)
        return None
    if line == "edit":
        return session.apply_change(edited).recompiled_keys
    if line == "vcd":
        path = pathlib.Path(scratch, "p0.vcd")
        session.trace_buffer("p0").to_vcd(str(path))
        return "$enddefinitions" in path.read_text()
    if line == "verify":
        return session.verify_consistency("p0").verdict
    stage = session.stage_handle_for("top")
    return commands.execute(line.format(stage=stage, scratch=scratch)).value


for line in before:
    execute(line)
loaded_before = module in sys.modules
values = [execute(line) for line in after]
print(json.dumps({
    "before": loaded_before, "after": module in sys.modules, "values": values,
}, default=repr))
"""

RUNNING = ["open", "instPipe p0, {stage}", "run tb0, p0, 30"]
AFTER_RUNNING = {"c0": 28, "c1": 84}  # 2 reset cycles, then 28 counted
WITH_A_DEFINE = "`define STEP0 8'd1\n" + COUNTER_SRC.replace(
    ".step(8'd1)", ".step(`STEP0)"
)
EDITED = COUNTER_SRC.replace("assign sum = a + b;", "assign sum = a + b + 1;")
# difflib's guess pairs the vanished register with its new name.
RENAMED = COUNTER_SRC.replace("count_q", "count_r")

# subsystem -> (module, source, edited source, lines before, lines
# after, what the values of the lines after must satisfy)
FIRST_USES = {
    "trace": ("repro.trace", COUNTER_SRC, EDITED, RUNNING, [
        "watch p0, c0", "run tb0, p0, 10", "replay p0, 32, 36", "vcd",
    ], lambda values: values[2]["signals"]["c0"] == [
        [cycle, cycle - 2] for cycle in range(32, 36)
    ] and values[3] is True),
    "instrumenter": ("repro.sanitize.instrument", COUNTER_SRC, EDITED, RUNNING, [
        "san report", "run tb0, p0, 10", "san",
    ], lambda values: values[2]["mode"] == "report"
        and values[2]["instrumented"]),
    "optimizer": ("repro.passes.optimize", COUNTER_SRC, EDITED, RUNNING, [
        "opt full", "edit", "peek p0",
    ], lambda values: values[0]["level"] == "full"
        and values[1] == ["adder#(W=8)"]),
    "pickle": ("pickle", COUNTER_SRC, EDITED, RUNNING, [
        "peek p0", "chkp p0, {scratch}/p0.ckpt", "run tb0, p0, 5",
        "ldch p0, {scratch}/p0.ckpt", "peek p0",
    ], lambda values: values[0] == values[-1] == AFTER_RUNNING),
    "difflib": ("difflib", COUNTER_SRC, RENAMED, RUNNING, ["edit", "peek p0"],
                lambda values: values == [["counter#(W=8)"], AFTER_RUNNING]),
    "preprocessor": ("repro.hdl.preprocessor", WITH_A_DEFINE, EDITED, [],
                     RUNNING, lambda values: values[-1] == AFTER_RUNNING),
    "consistency": ("repro.live.consistency", COUNTER_SRC, EDITED, RUNNING,
                    ["verify"], lambda values: values == ["consistent"]),
}


@pytest.mark.parametrize("subsystem", sorted(FIRST_USES))
def test_a_subsystem_loads_at_its_first_use(subsystem):
    """A fresh interpreter without a bytecode cache: the subsystem is
    not loaded before its first use, and that use loads it and works."""
    module, source, edited, before, after, works = FIRST_USES[subsystem]
    out = json.loads(run_fresh(
        FIRST_USE_SCRIPT,
        json.dumps([module, source, edited, before, after]),
    ))
    assert (out["before"], out["after"]) == (False, True)
    assert works(out["values"]), out["values"]


WORKER_SCRIPT = """
import json
import sys
import tempfile

from repro.server.service import summarize
from repro.server.shard import SessionWorker, WorkerConfig



class Frontend:
    \"\"\"The worker's end of the pipe: events are kept, not sent.\"\"\"

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


source = sys.argv[1]
with tempfile.TemporaryDirectory() as state:
    worker = SessionWorker(Frontend(), WorkerConfig(
        worker_id=0, state_root=state, checkpoint_interval=10,
    ))
    opened = worker._dispatch(1, "open", {"session": "s", "source": source})
    stage = opened["handles"]["top"]
    for line in (f"instPipe p0, {stage}", "run tb0, p0, 35", "peek p0",
                 "chkp p0"):
        worker._dispatch(2, "cmd", {"session": "s", "line": line})
    worker._dispatch(3, "reload", {
        "session": "s", "source": source.replace("a + b", "a + b + 1"),
    })
    loaded = "repro.live.consistency" in sys.modules
    session = worker._get("s").session
    report = summarize(session.verify_consistency("p0"))
    worker._dispatch(4, "close", {"session": "s"})
print(json.dumps({"loaded": loaded, "report": report}))
"""


def test_a_worker_that_never_verifies_never_imports_verification():
    """A shard worker opens, runs, checkpoints and edits a session
    without loading ``repro.live.consistency``; a verify loads it, and
    its report still goes on the wire as a ConsistencyReport."""
    out = json.loads(run_fresh(WORKER_SCRIPT, COUNTER_SRC))
    assert out["loaded"] is False
    assert out["report"]["_type"] == "ConsistencyReport"
    # The edit changed what the adder computes: the checkpoints the old
    # design took diverge from a replay under the new one.
    assert out["report"]["verdict"] == "divergent"


def test_compile_design_with_params():
    source = """
module m #(parameter W = 8) (input clk, output [W-1:0] y);
  reg [W-1:0] q;
  assign y = q;
  always @(posedge clk) q <= q + 1;
endmodule
"""
    netlist, library = repro.compile_design(source, "m", params={"W": 12})
    assert netlist.top == "m#(W=12)"


def test_readme_quickstart_flow():
    """The exact flow the README shows."""
    from repro import LiveSession
    from repro.sim.testbench import hold_inputs

    session = LiveSession(COUNTER_SRC)
    pipe = session.inst_pipe("p0", session.stage_handle_for("top"))
    tb = session.load_testbench(hold_inputs(rst=0))
    session.run(tb, "p0", 1_000)

    edited = COUNTER_SRC.replace("assign sum = a + b;",
                                 "assign sum = a + b + 8'd1;")
    report = session.apply_change(edited)
    assert report.recompiled_keys == ["adder#(W=8)"]
    assert report.total_seconds < 2.0
    assert pipe.outputs()["c0"] > 0

    verdict = session.verify_consistency("p0", repair=True)
    assert verdict is not None


def test_exceptions_exported_and_catchable():
    from repro import HDLError, ParseError

    with pytest.raises(HDLError):
        repro.parse("module broken (")
    with pytest.raises(ParseError):
        repro.parse("module broken (")
