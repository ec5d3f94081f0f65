"""Shared fixtures: canonical small designs and compiled artifacts.

Expensive artifacts (the PGAS netlist/library) are session-scoped;
tests that mutate state build their own pipes from the shared library,
which is cheap.
"""

from __future__ import annotations

import ast
import contextlib

import pytest

from repro import compile_design
from repro.hdl import elaborate, parse
from repro.passes import compile_netlist
from repro.riscv.pgas import build_pgas_source, mesh_top_name
from repro.sim import Pipe

COUNTER_SRC = """
module adder #(parameter W = 8) (
  input clk,
  input [W-1:0] a,
  input [W-1:0] b,
  output [W-1:0] sum
);
  assign sum = a + b;
endmodule

module counter #(parameter W = 8) (
  input clk,
  input rst,
  input [W-1:0] step,
  output [W-1:0] count
);
  reg [W-1:0] count_q;
  wire [W-1:0] next;
  adder #(.W(W)) u_add (.clk(clk), .a(count_q), .b(step), .sum(next));
  assign count = count_q;
  always @(posedge clk) begin
    if (rst)
      count_q <= 0;
    else
      count_q <= next;
  end
endmodule

module top (
  input clk,
  input rst,
  output [7:0] c0,
  output [7:0] c1
);
  counter #(.W(8)) u0 (.clk(clk), .rst(rst), .step(8'd1), .count(c0));
  counter #(.W(8)) u1 (.clk(clk), .rst(rst), .step(8'd3), .count(c1));
endmodule
"""

# Two counters, one per module; an edit renames both registers.
TWO_COUNTERS = """
module ma (input clk, output [7:0] q);
  reg [7:0] cnt_a;
  assign q = cnt_a;
  always @(posedge clk) cnt_a <= cnt_a + 8'd1;
endmodule

module mb (input clk, output [7:0] q);
  reg [7:0] cnt_b;
  assign q = cnt_b;
  always @(posedge clk) cnt_b <= cnt_b + 8'd3;
endmodule

module top (input clk, output [7:0] y);
  wire [7:0] a;
  wire [7:0] b;
  ma ua (.clk(clk), .q(a));
  mb ub (.clk(clk), .q(b));
  assign y = a + b;
endmodule
"""


# -- the LiveSim server, in both hostings ------------------------------------


@contextlib.contextmanager
def running_server(tmp, workers, **kwargs):
    """Boot the server with its store and state dir under ``tmp``:
    ``workers=0`` hosts the worker on a thread, ``N`` in N processes."""
    from repro.server.frontend import ShardedFrontend

    server = ShardedFrontend(
        workers=workers,
        store_root=str(tmp / "store"),
        state_root=str(tmp / "state"),
        **kwargs,
    )
    server.start()
    try:
        yield server
    finally:
        server.shutdown()


@pytest.fixture(scope="module", params=[0, 2], ids=["thread", "procs"])
def server(request, tmp_path_factory):
    """One server per test module and hosting (spawning workers is the
    expensive part); tests clean up the sessions they open."""
    tmp = tmp_path_factory.mktemp("server")
    with running_server(tmp, request.param) as srv:
        yield srv


# For tests that need worker processes (kill, migrate, resize): run on
# the process-hosted ``server`` only.
worker_processes_only = pytest.mark.parametrize(
    "server", [2], indirect=True, ids=["procs"]
)


def connect(server, **kwargs):
    from repro.server.client import LiveSimClient

    host, port = server.address
    kwargs.setdefault("read_timeout", 120.0)
    return LiveSimClient(host, port, timeout=30.0, **kwargs)


@pytest.fixture
def client(server):
    """A connection that closes every session the test left open."""
    with connect(server) as conn:
        yield conn
        for entry in conn.sessions():
            conn.close_session(entry["session"])


def names_on_each_worker(prefix, workers=2):
    """Session names (one per worker) a ``workers``-wide ring places
    on workers 0..workers-1, in worker order."""
    from repro.server.shard import HashRing

    ring = HashRing(range(workers))
    names, i = {}, 0
    while len(names) < workers:
        name = f"{prefix}-{i}"
        names.setdefault(ring.lookup(name), name)
        i += 1
    return [names[w] for w in range(workers)]


@pytest.fixture
def counter_source() -> str:
    return COUNTER_SRC


@pytest.fixture
def counter_design(counter_source):
    netlist, library = compile_design(counter_source, "top")
    return netlist, library


@pytest.fixture
def counter_pipe(counter_design) -> Pipe:
    netlist, library = counter_design
    pipe = Pipe(netlist.top, library)
    pipe.set_inputs(rst=1)
    pipe.step(1)
    pipe.set_inputs(rst=0)
    return pipe


@pytest.fixture(scope="session")
def pgas1_netlist_library():
    source = build_pgas_source(1)
    netlist = elaborate(parse(source), mesh_top_name(1))
    return source, netlist, compile_netlist(netlist)


@pytest.fixture(scope="session")
def pgas2_netlist_library():
    source = build_pgas_source(2)
    netlist = elaborate(parse(source), mesh_top_name(2))
    return source, netlist, compile_netlist(netlist)


@pytest.fixture
def pgas1_pipe(pgas1_netlist_library) -> Pipe:
    _, netlist, library = pgas1_netlist_library
    return Pipe(netlist.top, library)


@pytest.fixture
def pgas2_pipe(pgas2_netlist_library) -> Pipe:
    _, netlist, library = pgas2_netlist_library
    return Pipe(netlist.top, library)


def assert_between_edges(pipe: Pipe) -> None:
    """The state layout's invariant (:mod:`repro.codegen.module`): with
    no clock edge in flight, no memory write is pending, in every
    instance."""
    for path, inst in pipe.top.walk():
        for spec in inst.code.mem_specs.values():
            assert inst.state[spec.pending_slot] == [], (path, spec.name)


def assert_marks_hold(pipe: Pipe) -> int:
    """The page marks' invariant (:mod:`repro.codegen.module`): every
    memory with page marks equals the image they were last synced with
    outside its marked pages, in every instance.  Returns how many
    memories had an image to hold to."""
    held = 0
    for path, inst in pipe.top.walk():
        for spec in inst.code.mem_order:
            if spec.marks_slot < 0:
                continue
            marks = inst.state[spec.marks_slot]
            if marks.image is None:
                continue
            held += 1
            words = inst.state[spec.slot]
            for index, page in enumerate(marks.image.pages):
                if index not in marks:
                    start = index * len(marks.image.pages[0])
                    assert words[start : start + len(page)] == page, (path, spec.name, index)
    return held


def _bodies(source: str, hooked: bool) -> str:
    """``source`` with one body of each function that has two."""
    tree = ast.parse(source)
    names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    lines = source.splitlines(keepends=True)
    for node in reversed(tree.body):
        if isinstance(node, ast.FunctionDef) and (
                f"_pz_{node.name}" in names if hooked else node.name.startswith("_pz_")):
            del lines[node.lineno - 1:node.end_lineno]
    text = "".join(lines)
    return text.replace("def _pz_", "def ") if hooked else text


def hooked_source(source: str) -> str:
    """A sanitized module's generated source as its hooked bodies: where
    a function has two bodies (``repro.codegen.pygen``), the hooked one
    under the function's own name and the poison-free one left out;
    what the hook counts count."""
    return _bodies(source, hooked=True)


def free_source(source: str) -> str:
    """A module's generated source as its poison-free bodies (with
    their opening dispatch): every ``_pz_`` function left out."""
    return _bodies(source, hooked=False)


def child_record(record, name: str):
    """The child record of ``record`` for instance ``name``."""
    return next(child for child in record.children if child.name == name)


def run_cycles(pipe: Pipe, cycles: int, **inputs: int) -> dict:
    """Drive constant inputs for N cycles; return final outputs."""
    if inputs:
        pipe.set_inputs(**inputs)
    pipe.step(cycles)
    return pipe.outputs()


def damaged_copies(good: bytes):
    """``good`` cut at 200 points, then with bit 0 and bit 7 of each
    byte flipped in turn: the damage a sealed file must be refused
    under."""
    for n in range(200):
        yield good[: len(good) * n // 200]
    for at in range(len(good)):
        for bit in (0, 7):
            flipped = bytearray(good)
            flipped[at] ^= 1 << bit
            yield bytes(flipped)
