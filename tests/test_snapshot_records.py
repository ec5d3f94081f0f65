"""Snapshot records: one immutable record per instance, shared with the
previous checkpoint wherever the interval left it unchanged.

(a) sharing is by identity, (b) no record aliases live state, (c) a
restore of a record as captured, name tuples shared with the compiled
module, leaves the tree exactly as a restore of its copy read back from
a file does, and (d) a store file written when a snapshot was a
dataclass of name-keyed dicts still loads, restores and verifies.
"""

import copy
import pickle
import random
from pathlib import Path

import pytest

from repro.codegen.build import BuildConfig
from repro.hdl.elaborate import elaborate
from repro.hdl.parser import parse
from repro.live.checkpoint import CheckpointStore
from repro.live.session import LiveSession
from repro.passes import compile_netlist
from repro.riscv import build_pgas_source
from repro.riscv.pgas import mesh_top_name
from repro.riscv.programs import load_same_program
from repro.sanitize import SanitizerRuntime
from repro.sim import Pipe
from repro.sim.stage import StateSnapshot
from repro.sim.testbench import hold_inputs
from tests.conftest import assert_between_edges

ROOT = Path(__file__).resolve().parent.parent

# Counts forever in a register and stores nothing: the cores change,
# their memories and the network do not.
SPIN = """
    li   s1, 0
loop:
    addi s1, s1, 1
    j    loop
"""


def _pipe(source, top, sanitize=False):
    """A fresh pipe of ``top``, clean or sanitized, and a maker of more
    pipes of the same compiled library."""
    netlist = elaborate(parse(source), top)
    library = compile_netlist(
        netlist,
        BuildConfig(sanitize=sanitize, san_elide=False),
        sanitize_runtime=(
            SanitizerRuntime(mode="report") if sanitize else None
        ),
    )
    return lambda: Pipe(netlist.top, library)


@pytest.fixture(scope="module")
def mesh2_source():
    return build_pgas_source(2)


def _spinning_mesh(source, sanitize=False):
    pipe = _pipe(source, mesh_top_name(2), sanitize)()
    load_same_program(pipe, 4, SPIN)
    pipe.set_inputs(rst=1)
    pipe.step(2)
    pipe.set_inputs(rst=0)
    pipe.step(20)
    return pipe


def _records(state, path="top"):
    """``{path: record}`` over a record tree."""
    found = {path: state}
    for child in state.children:
        found.update(_records(child, f"{path}.{child.name}"))
    return found


class TestSharing:
    def test_a_take_with_no_cycle_between_is_the_previous_tree(
        self, mesh2_source
    ):
        pipe = _spinning_mesh(mesh2_source)
        store = CheckpointStore(interval=1)
        first = store.take(pipe, "1.0", 0)
        second = store.take(pipe, "1.0", 0)
        assert store.all() == [second]  # a same-cycle recapture replaces
        old, new = _records(first.snapshot.state), _records(second.snapshot.state)
        assert old.keys() == new.keys() and len(new) == 37
        assert all(new[path] is old[path] for path in new)

    def test_an_interval_that_changes_only_the_cores(self, mesh2_source):
        pipe = _spinning_mesh(mesh2_source)
        store = CheckpointStore(interval=1)
        before = _records(store.take(pipe, "1.0", 0).snapshot.state)
        pipe.step(10)
        after = _records(store.take(pipe, "1.0", 0).snapshot.state)
        for node in range(4):
            stop, core = f"top.r_{node}", f"top.n_{node}"
            assert after[stop] is before[stop]
            assert after[f"{core}.u_mem"] is before[f"{core}.u_mem"]
            # The node's own registers did not change, its core did.
            assert after[core].values is before[core].values
            assert after[core] is not before[core]
            ex = f"{core}.u_core.u_ex"
            assert after[ex] is not before[ex]
            assert after[ex].values != before[ex].values
            # Every record of one compiled module shares its names.
            assert after[ex].reg_names is before[ex].reg_names
            assert after[ex].reg_names is pipe.find(
                f"n_{node}.u_core.u_ex"
            ).code.reg_names
        store_bytes = store.resident_bytes()
        assert store_bytes < store.total_bytes()

    def test_poison_alone_is_a_change(self, mesh2_source):
        pipe = _spinning_mesh(mesh2_source, sanitize=True)
        store = CheckpointStore(interval=1)
        before = _records(store.take(pipe, "1.0", 0).snapshot.state)
        stop = pipe.find("r_0")
        name, slot = next(iter(stop.code.reg_slots.items()))
        stop.state[stop.code.layout.reg_poison_slot] |= 1 << slot
        mem = pipe.find("n_1.u_mem")
        mem.state[mem.code.mem_specs["mem"].poison_slot] = 0b100
        after = _records(store.take(pipe, "1.0", 0).snapshot.state)
        assert after["top.r_0"] is not before["top.r_0"]
        assert after["top.r_0"].values is before["top.r_0"].values
        assert after["top.r_0"].reg_poison == (name,)
        assert after["top.n_1.u_mem"].images is before["top.n_1.u_mem"].images
        assert after["top.n_1.u_mem"].mem_poison == {"mem": 0b100}
        assert after["top.r_1"] is before["top.r_1"]


@pytest.mark.parametrize("sanitize", [False, True], ids=["clean", "sanitize"])
def test_no_record_aliases_live_state(mesh2_source, sanitize):
    pipe = _spinning_mesh(mesh2_source, sanitize)
    store = CheckpointStore(interval=1)
    copies = {}
    for _ in range(3):
        checkpoint = store.take(pipe, "1.0", 0)
        copies[checkpoint.cycle] = copy.deepcopy(checkpoint.snapshot)
        pipe.step(7)
    pipe.step(100)
    ex = pipe.find("n_1.u_core.u_ex")
    ex.poke_reg(next(iter(ex.code.reg_slots)), 0x55)
    pipe.find("n_2.u_mem").write_memory("mem", 5, [0xDEAD, 0xBEEF])
    pipe.find("n_3.u_core.u_id").memory("rf")[7] = 0x77
    store.take(pipe, "1.0", 0)
    pipe.step(3)
    for checkpoint in store.all()[:-1]:
        reference = copies[checkpoint.cycle]
        assert checkpoint.snapshot.state == reference.state
        assert checkpoint.snapshot.inputs == reference.inputs


def _poison_some(pipe, rng):
    """Mark a few registers and memory words poisoned, tree-wide."""
    for _, inst in pipe.top.walk():
        code = inst.code
        for slot in code.reg_slots.values():
            if rng.random() < 0.3:
                inst.state[code.layout.reg_poison_slot] |= 1 << slot
        for spec in code.mem_specs.values():
            inst.state[spec.poison_slot] = rng.getrandbits(spec.depth)


def _differential_designs():
    yield "mesh2x2", build_pgas_source(2), mesh_top_name(2)
    for path in sorted((ROOT / "examples" / "designs").glob("*.v")):
        source = path.read_text()
        for top in parse(source).modules:
            yield f"{path.name}:{top}", source, top


DESIGNS = list(_differential_designs())


def _driven(new_pipe, top, sanitize):
    """A pipe driven by seeded random inputs, and its snapshot at
    cycle 30 (some state marked poisoned first, under the sanitizer)
    taken 17 cycles before the pipe's state now."""
    rng = random.Random(37)
    pipe = new_pipe()
    if top == mesh_top_name(2):
        load_same_program(pipe, 4, SPIN)

    def drive(cycles):
        for _ in range(cycles):
            pipe.set_inputs(**{
                name: rng.getrandbits(16) for name in pipe.input_names
            })
            pipe.step(1)

    drive(30)
    if sanitize:
        _poison_some(pipe, rng)
    snap = pipe.snapshot()
    drive(17)
    return pipe, snap


@pytest.mark.parametrize("sanitize", [False, True], ids=["clean", "sanitize"])
@pytest.mark.parametrize(
    "source,top", [(s, t) for _, s, t in DESIGNS], ids=[n for n, _, _ in DESIGNS]
)
def test_a_restore_of_a_record_equals_a_restore_of_its_file_copy(
    source, top, sanitize
):
    new_pipe = _pipe(source, top, sanitize)
    pipe, snap = _driven(new_pipe, top, sanitize)
    twin, _ = _driven(new_pipe, top, sanitize)
    assert _tree(pipe) == _tree(twin)
    # The same record under name tuples that are not the compiled
    # module's own, as a store file or a pool worker holds it.
    foreign = pickle.loads(pickle.dumps(snap))
    assert foreign.state == snap.state

    pipe.restore_transformed(snap)
    twin.restore_transformed(foreign)
    assert_between_edges(pipe)
    assert _tree(pipe) == _tree(twin)
    assert pipe.snapshot().state == twin.snapshot().state == snap.state


def _tree(pipe):
    """Every instance's state list, memo slots, pending writes and
    sanitizer slots included."""
    return [(path, inst.state) for path, inst in pipe.top.walk()]


# -- a store file written before records were slotted --------------------

PARENT_STORE = ROOT / "tests" / "data" / "store_before_records.ckpt"

# Registers, a paged memory and child instances, under the sanitizer.
FIXTURE_SRC = """
module cell (input clk, input rst, input [7:0] d, output [7:0] q);
  reg [7:0] acc;
  assign q = acc;
  always @(posedge clk) begin
    if (rst) acc <= 0; else acc <= acc + d;
  end
endmodule

module top (input clk, input rst, output [63:0] q);
  reg [9:0] ptr;
  reg [63:0] m [0:299];
  wire [7:0] a_q, b_q;
  cell u_a (.clk(clk), .rst(rst), .d(8'd3), .q(a_q));
  cell u_b (.clk(clk), .rst(rst), .d(a_q), .q(b_q));
  assign q = m[ptr] + {56'd0, b_q};
  always @(posedge clk) begin
    if (rst) ptr <= 0;
    else begin
      ptr <= (ptr == 10'd299) ? 10'd0 : ptr + 10'd1;
      m[ptr] <= {56'd0, b_q} + {54'd0, ptr};
    end
  end
endmodule
"""
FIXTURE_INTERVAL = 25
FIXTURE_CYCLES = 150


def fixture_session():
    """The session the fixture file was saved from, run to its end."""
    session = LiveSession(
        FIXTURE_SRC, checkpoint_interval=FIXTURE_INTERVAL, sanitize="report"
    )
    session.inst_pipe("p0", session.stage_handle_for("top"))
    tb = session.load_testbench(hold_inputs(rst=0))
    session.run(tb, "p0", FIXTURE_CYCLES)
    return session, tb


def write_parent_store(path):
    """Write the fixture: ``fixture_session``'s store, saved."""
    session, _ = fixture_session()
    session.store("p0").save(str(path))


def test_a_store_file_written_before_records_loads_and_verifies():
    session, tb = fixture_session()
    own = session.store("p0").all()
    loaded = CheckpointStore()
    loaded.load(str(PARENT_STORE))
    assert [c.cycle for c in loaded.all()] == [c.cycle for c in own]
    for old, new in zip(loaded.all(), own, strict=True):
        state = old.snapshot.state
        assert type(state) is StateSnapshot
        assert type(state.values) is tuple and type(state.children) is tuple
        assert state == new.snapshot.state
        assert old.total_bytes() == new.total_bytes()

    pipe = session.pipe("p0")
    session.store("p0").invalidate_after(-1)
    session.ldch("p0", str(PARENT_STORE))
    assert pipe.cycle == FIXTURE_CYCLES
    assert pipe.snapshot().state == own[-1].snapshot.state
    assert session.verify_consistency("p0").verdict == "consistent"
    session.run(tb, "p0", 2 * FIXTURE_INTERVAL)
    assert session.verify_consistency("p0").verdict == "consistent"
