"""Page marks: a checkpoint moves only what changed.

Each memory deeper than one page keeps the pages written since it last
equalled an image (:class:`repro.codegen.module.PageMarks`).  A take
compares only the pages where the words can differ from its base, and a
rewind copies only those; every other page is shared or left as it is.

The differentials run each scenario twice on the same compiled code:
once as is, and once with the marks ignored and every record loaded by
name (``full_path``), which is the capture and the load that compare
and copy every word.  The two runs must agree on every take's content,
every rewind's state and outputs, the trace window and the sanitizer's
findings, and a take must keep resident no more than the full compare's.
"""

from __future__ import annotations

import pytest

from benchmarks.livebench.workloads import (
    RESET_CYCLES,
    WORKLOADS,
    EditGenerator,
    boot_testbench,
    mesh_edit_targets,
    node_images,
    node_programs,
    probe_signals,
)
from repro import obs
from repro.codegen.flatgen import compile_flat
from repro.codegen.module import PAGE_WORDS
from repro.hdl import elaborate, parse
from repro.live import session as session_module
from repro.live.checkpoint import CheckpointStore
from repro.live.session import LiveSession
from repro.live.transform import RegisterTransform, TransformOp, translate
from repro.riscv.patches import PATCHES
from repro.riscv.pgas import build_pgas_source, mesh_top_name
from repro.sim import Pipe, stage
from repro.sim.stage import MemImage
from tests.conftest import assert_marks_hold
from tests.test_checkpoint import make_mem_pipe
from tests.test_unwatched_cycle import state_of

PIPE = "uut"
INTERVAL = 100


def record_rows(snap, codes, path=None):
    """A record tree as :func:`~tests.test_unwatched_cycle.state_of`
    reads the live instances it was captured from (``codes`` maps each
    instance path to its compiled module)."""
    path = path or snap.name
    code = codes[path]
    poison = []
    if code.build.sanitize:
        bits = 0
        for name in snap.reg_poison:
            bits |= 1 << code.reg_slots[name]
        poison = [bits, *(snap.poison_words or [0] * len(snap.mem_names))]
    rows = [(path, snap.key, list(snap.values), [list(image) for image in snap.images],
             poison)]
    for child in snap.children:
        rows += record_rows(child, codes, f"{path}.{child.name}")
    return rows


def live_rows(pipe):
    """:func:`~tests.test_unwatched_cycle.state_of`, its memories copied
    (it hands out the live lists)."""
    return [(path, key, regs, [list(words) for words in mems], poison)
            for path, key, regs, mems, poison in state_of(pipe)]


class Recorder:
    """Every take (its content against the live state, the bytes it
    keeps that no earlier checkpoint holds) and every rewind (the state
    and outputs it leaves)."""

    def __init__(self, monkeypatch):
        self.takes, self.kept, self.rewinds = [], [], []
        take, rewind = CheckpointStore.take, session_module.rewind

        def recording_take(store, pipe, version, op_index):
            checkpoint = take(store, pipe, version, op_index)
            live = live_rows(pipe)
            codes = {path: inst.code for path, inst in pipe.top.walk()}
            assert record_rows(checkpoint.snapshot.state, codes) == live
            seen = set()
            for earlier in store.all():
                if earlier is not checkpoint:
                    earlier.snapshot.resident_bytes(seen)
            self.takes.append(live)
            self.kept.append(checkpoint.snapshot.resident_bytes(seen))
            return checkpoint

        def recording_rewind(pipe, base):
            rewind(pipe, base)
            self.rewinds.append((pipe.cycle, live_rows(pipe), pipe.eval()))

        monkeypatch.setattr(CheckpointStore, "take", recording_take)
        monkeypatch.setattr(session_module, "rewind", recording_rewind)


def full_path(monkeypatch):
    """Ignore the marks and load every record by name: every take
    compares every page against its base, every rewind copies every
    word."""
    monkeypatch.setattr(stage, "_unsynced", lambda marks, image: None)
    monkeypatch.setattr(stage, "_fits", lambda snap, code: False)


def assert_same_runs(full, marked):
    assert marked["takes"] == full["takes"]
    assert marked["rewinds"] == full["rewinds"]
    assert all(m <= f for m, f in zip(marked["kept"], full["kept"])), (
        marked["kept"], full["kept"])
    for key in ("outputs", "trace", "findings"):
        assert marked[key] == full[key], key


# -- the edit stream and every patch, through a live session -----------------

BUILDS = {
    "clean": {},
    "sanitized": {"sanitize": "report", "opt": "full"},
}


def edit_stream(monkeypatch, build, edits):
    """``edit_loop2``'s edit stream on the 2x2 mesh (seed 1), then every
    ``riscv.patches`` variant in and out, one checkpoint interval of
    cycles before each edit."""
    recorder = Recorder(monkeypatch)
    workload = WORKLOADS["edit_loop2"]
    base = build_pgas_source(2)
    session = LiveSession(base, checkpoint_interval=INTERVAL,
                          reload_distance=INTERVAL, **BUILDS[build])
    try:
        session.inst_pipe(PIPE, session.stage_handle_for(mesh_top_name(2)))
        tb = session.load_testbench(boot_testbench(node_images(node_programs(1, 4))))
        signals = probe_signals(WORKLOADS["sim_allon2"])
        for signal in signals:
            session.watch(PIPE, signal)
        session.run(tb, PIPE, RESET_CYCLES)
        stream = EditGenerator(base, mesh_edit_targets(), workload.edit_block, 1)
        sources = [stream.next().source for _ in range(edits)]
        for patch in PATCHES.values():
            sources += [patch.inject(base), base]
        behavioral = 0
        for source in sources:
            for _ in range(INTERVAL // 20):
                session.run(tb, PIPE, 20)
            behavioral += session.apply_change(source).behavioral
            assert_marks_hold(session.pipe(PIPE))
        pipe = session.pipe(PIPE)
        buffer = session.trace_buffer(PIPE)
        return {
            "takes": recorder.takes, "kept": recorder.kept,
            "rewinds": recorder.rewinds, "behavioral": behavioral,
            "outputs": pipe.outputs(),
            "trace": {name: buffer.window(name) for name in signals},
            "findings": [repr(f) for f in session.sanitize_runtime.findings],
        }
    finally:
        session.close()


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_the_edit_stream_takes_and_rewinds_as_the_full_path_does(build):
    runs = {}
    for name in ("full", "marked"):
        with pytest.MonkeyPatch.context() as patched:
            if name == "full":
                full_path(patched)
            runs[name] = edit_stream(patched, build, edits=12)
    assert len(runs["marked"]["rewinds"]) == runs["marked"]["behavioral"] > 2 * len(PATCHES)
    assert len(runs["marked"]["takes"]) > len(runs["marked"]["rewinds"])
    assert_same_runs(runs["full"], runs["marked"])


# -- the flat generator ---------------------------------------------------------


@pytest.fixture(scope="module")
def flat_mesh():
    return compile_flat(elaborate(parse(build_pgas_source(2)), mesh_top_name(2)))


def flat_run(monkeypatch, flat):
    """The flat 2x2 mesh, a checkpoint every 50 cycles, and after every
    third a rewind two checkpoints back."""
    recorder = Recorder(monkeypatch)
    pipe = Pipe(flat.key, {flat.key: flat})
    tb = boot_testbench(node_images(node_programs(1, 4)), flat=True)
    store = CheckpointStore(interval=50)
    for round_ in range(12):
        tb.run(pipe, 50)
        store.take(pipe, "1.0", 0)
        if round_ % 3 == 2:
            session_module.rewind(pipe, store.all()[-3])
        assert_marks_hold(pipe)
    return {"takes": recorder.takes, "kept": recorder.kept,
            "rewinds": recorder.rewinds, "outputs": pipe.outputs(),
            "trace": None, "findings": None}


def test_the_flat_generator_takes_and_rewinds_as_the_full_path_does(flat_mesh):
    assert any(spec.marks_slot >= 0 for spec in flat_mesh.mem_order)
    runs = {}
    for name in ("full", "marked"):
        with pytest.MonkeyPatch.context() as patched:
            if name == "full":
                full_path(patched)
            runs[name] = flat_run(patched, flat_mesh)
    assert len(runs["marked"]["rewinds"]) == 4
    assert_same_runs(runs["full"], runs["marked"])


# -- the rules, one at a time ---------------------------------------------------


def counted(name):
    return obs.get_metrics().counter(name)


def marks_of(pipe):
    spec = pipe.top.code.mem_specs["m"]
    return pipe.top.state[spec.marks_slot]


def write_at(pipe, address):
    """One cycle out of reset: ``mem_design`` writes ``address + 1`` at
    ``address``."""
    pipe.top.poke_reg("ptr", address)
    pipe.set_inputs(rst=0)
    pipe.step(1)
    pipe.set_inputs(rst=1)


def test_a_take_compares_only_the_pages_written_since_its_base():
    pipe = make_mem_pipe()
    store = CheckpointStore(interval=10)
    first = store.take(pipe, "1.0", 0)
    assert marks_of(pipe) == set()
    assert marks_of(pipe).image is first.snapshot.state.images[0]
    write_at(pipe, 2 * PAGE_WORDS + 1)
    assert marks_of(pipe) == {2}
    before = counted("checkpoint.pages_compared")
    second = store.take(pipe, "1.0", 0)
    assert counted("checkpoint.pages_compared") - before == 1
    old, new = first.snapshot.state.images[0], second.snapshot.state.images[0]
    assert [a is b for a, b in zip(old.pages, new.pages)] == [True, True, False, True]
    assert new[2 * PAGE_WORDS + 1] == 2 * PAGE_WORDS + 2


def test_a_rewind_copies_the_marked_pages_and_those_the_target_changed():
    pipe = make_mem_pipe()
    store = CheckpointStore(interval=10)
    first = store.take(pipe, "1.0", 0)
    write_at(pipe, PAGE_WORDS)
    store.take(pipe, "1.0", 0)  # the synced image: page 1 differs from the first
    write_at(pipe, 3 * PAGE_WORDS)  # page 3 is marked
    before = counted("checkpoint.words_restored")
    pipe.restore_transformed(first.snapshot)
    assert counted("checkpoint.words_restored") - before == 2 * PAGE_WORDS
    assert list(pipe.top.memory("m")) == list(first.snapshot.state.images[0])


def test_write_memory_marks_the_pages_it_writes():
    pipe = make_mem_pipe()
    CheckpointStore(interval=10).take(pipe, "1.0", 0)
    pipe.top.write_memory("m", PAGE_WORDS - 1, [1, 2])
    assert marks_of(pipe) == {0, 1}
    assert assert_marks_hold(pipe) == 1


def test_the_live_words_handed_out_are_compared_whole():
    pipe = make_mem_pipe()
    store = CheckpointStore(interval=10)
    store.take(pipe, "1.0", 0)
    pipe.top.memory("m")[3 * PAGE_WORDS] = 4
    assert marks_of(pipe).image is None
    before = counted("checkpoint.pages_compared")
    taken = store.take(pipe, "1.0", 0)
    assert counted("checkpoint.pages_compared") - before == 4
    assert taken.snapshot.state.images[0][3 * PAGE_WORDS] == 4


def test_a_record_of_a_wider_module_is_masked():
    """Same key and names, wider values: the record is not this
    module's, so its registers go by name and its pages are masked."""
    pipe = make_mem_pipe()
    taken = CheckpointStore(interval=10).take(pipe, "1.0", 0).snapshot.state
    wide = MemImage.capture([(1 << 70) - 1] * (4 * PAGE_WORDS))
    foreign = type(taken)(
        taken.key, taken.name, taken.reg_names, (0xFFFF,) * len(taken.values),
        taken.mem_names, (wide,), taken.children, (), (),
    )
    pipe.top.load(foreign)
    assert pipe.top.peek_reg("ptr") == 0x3FF
    assert set(pipe.top.memory("m")) == {(1 << 64) - 1}


def test_a_translated_record_loads_by_name():
    pipe = make_mem_pipe()
    write_at(pipe, 5)
    taken = CheckpointStore(interval=10).take(pipe, "1.0", 0).snapshot.state
    renamed = translate(RegisterTransform([
        TransformOp("rename", "ptr", "gone_q"), TransformOp("create", "ptr", init_value=1),
    ]), taken)
    assert renamed.reg_names != pipe.top.code.reg_names
    pipe.top.load(renamed)
    assert pipe.top.peek_reg("ptr") == 1
    assert list(pipe.top.memory("m")) == list(taken.images[0])
