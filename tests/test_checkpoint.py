"""Checkpoint store tests: capture cadence, selection, GC (Fig. 2),
page-shared memory images and persistence."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro import compile_design
from repro.hdl.errors import SimulationError
from repro.live.checkpoint import Checkpoint, CheckpointStore, GCPolicy
from repro.live.replay import rewind
from repro.live.session import LiveSession
from repro.sim import Pipe
from repro.sim.pipeline import PipeSnapshot
from repro.sim.stage import PAGE_WORDS
from repro.sim.testbench import hold_inputs
from tests.conftest import COUNTER_SRC


def make_pipe():
    netlist, library = compile_design(COUNTER_SRC, "top")
    pipe = Pipe(netlist.top, library)
    pipe.set_inputs(rst=1)
    pipe.step(1)
    pipe.set_inputs(rst=0)
    return pipe


def mem_design(depth: int = 4 * PAGE_WORDS, name: str = "m") -> str:
    """One memory of ``depth`` 64-bit words; out of reset, cycle c
    writes word ``c % 1024``, so an interval writes a run of pages."""
    return f"""
module top (
  input clk,
  input rst,
  output [63:0] q
);
  reg [9:0] ptr;
  reg [63:0] {name} [0:{depth - 1}];
  assign q = {name}[ptr];
  always @(posedge clk) begin
    if (rst)
      ptr <= 0;
    else begin
      ptr <= ptr + 10'd1;
      {name}[ptr] <= ptr + 64'd1;
    end
  end
endmodule
"""


def make_mem_pipe():
    """A pipe of :func:`mem_design` held in reset: its memory is idle."""
    netlist, library = compile_design(mem_design(), "top")
    pipe = Pipe(netlist.top, library)
    pipe.set_inputs(rst=1)
    pipe.step(1)
    return pipe


def page_ids(checkpoint):
    """``id`` of every memory page the checkpoint's tree holds."""
    ids, stack = set(), [checkpoint.snapshot.state]
    while stack:
        state = stack.pop()
        for words in state.mems.values():
            ids.update(map(id, words.pages))
        stack.extend(state.children)
    return ids


def shadow(state):
    """The sanitizer's poison over a snapshot tree."""
    return (
        set(state.reg_poison), state.mem_poison,
        [shadow(child) for child in state.children],
    )


def flattened(state):
    """``state`` with plain-list memory images, as a store file written
    before images were paged holds them."""
    return replace(
        state,
        mems={name: list(words) for name, words in state.mems.items()},
        children=[flattened(child) for child in state.children],
    )


class TestCapture:
    def test_take_records_cycle_and_state(self):
        pipe = make_pipe()
        store = CheckpointStore(interval=10)
        pipe.step(7)
        cp = store.take(pipe, version="1.0", op_index=0)
        assert cp.cycle == 8  # 1 reset cycle + 7
        assert cp.snapshot.state.child("u0").regs["count_q"] == 7

    def test_maybe_take_honours_interval(self):
        pipe = make_pipe()
        store = CheckpointStore(interval=5)
        for _ in range(21):
            pipe.step(1)
            store.maybe_take(pipe, "1.0", 0)
        assert store.cycles() == [5, 10, 15, 20]

    def test_maybe_take_reads_the_store_once(self):
        """A background verify's collector can empty the store
        (``invalidate_after`` before the first checkpoint) while a run
        asks whether to take one: the question reads the list once."""
        pipe = make_pipe()
        store = CheckpointStore(interval=5)
        pipe.step(5)
        store.take(pipe, "1.0", 0)

        class CollectedOnRead(list):
            def __bool__(self):
                store.invalidate_after(0)  # the collector, between reads
                return True

        store._checkpoints = CollectedOnRead(store.all())
        pipe.step(1)
        assert store.maybe_take(pipe, "1.0", 0) is None
        assert len(store) == 0

    def test_disabled_store_takes_nothing(self):
        pipe = make_pipe()
        store = CheckpointStore(interval=5, enabled=False)
        for _ in range(12):
            pipe.step(1)
            store.maybe_take(pipe, "1.0", 0)
        assert len(store) == 0

    def test_same_cycle_recapture_replaces(self):
        pipe = make_pipe()
        store = CheckpointStore(interval=10)
        store.take(pipe, "1.0", 0)
        before = len(store)
        store.take(pipe, "1.1", 1)
        assert len(store) == before
        assert store.all()[0].version == "1.1"

    def test_capture_stats_accumulate(self):
        pipe = make_pipe()
        store = CheckpointStore(interval=10)
        store.take(pipe, "1.0", 0)
        pipe.step(1)
        store.take(pipe, "1.0", 0)
        assert store.total_captured == 2
        assert store.total_capture_seconds > 0

    def test_checkpoint_is_deep_copy(self):
        pipe = make_pipe()
        store = CheckpointStore(interval=10)
        cp = store.take(pipe, "1.0", 0)
        before = dict(cp.snapshot.state.child("u0").regs)
        pipe.step(10)
        assert cp.snapshot.state.child("u0").regs == before

        # A memory image, and the pages the next checkpoint shares
        # with it, survive every way the live memory is written.
        pipe = make_mem_pipe()
        pipe.top.write_memory("m", 0, list(range(1, 4 * PAGE_WORDS + 1)))
        store = CheckpointStore(interval=10)
        first = store.take(pipe, "1.0", 0)
        pipe.step(1)
        second = store.take(pipe, "1.0", 0)
        image = first.snapshot.state.mems["m"]
        assert second.snapshot.state.mems["m"].pages == image.pages
        words = list(image)
        pipe.top.write_memory("m", 0, [7] * (4 * PAGE_WORDS))
        pipe.set_inputs(rst=0)
        pipe.step(10)
        pipe.top.memory("m")[-1] = 9
        assert list(image) == words
        assert list(second.snapshot.state.mems["m"]) == words

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            CheckpointStore(interval=0)


@pytest.mark.parametrize("sanitize", ["off", "report"])
class TestPageSharing:
    """A checkpoint holds the memory pages its interval wrote: the rest
    are the previous checkpoint's page objects, and sharing never
    changes what a checkpoint restores."""

    INTERVAL = 50

    def _open(self, sanitize):
        session = LiveSession(
            mem_design(), checkpoint_interval=self.INTERVAL,
            sanitize=sanitize,
        )
        session.inst_pipe("p0", session.stage_handle_for("top"))
        tb = session.load_testbench(hold_inputs(rst=0))
        return session, tb

    def _run_intervals(self, session, tb, count, references):
        """Run ``count`` intervals; after each, check the checkpoint it
        took page by page against the live memory and keep an unshared
        snapshot of the pipe as that cycle's reference."""
        pipe = session.pipe("p0")
        for _ in range(count):
            session.run(tb, "p0", self.INTERVAL)
            newest = session.checkpoints("p0")[-1]
            assert newest.cycle == pipe.cycle
            for name, image in newest.snapshot.state.mems.items():
                live = pipe.top.memory(name)
                assert len(image) == len(live)
                for index, page in enumerate(image.pages):
                    start = index * PAGE_WORDS
                    assert page == live[start : start + PAGE_WORDS]
            references[pipe.cycle] = pipe.snapshot()

    def _assert_restores_exactly(self, session, references):
        pipe = session.pipe("p0")
        for checkpoint in session.checkpoints("p0"):
            reference = references.get(checkpoint.cycle)
            if reference is None:
                continue  # taken before the last edit
            rewind(pipe, checkpoint)
            now = pipe.snapshot()
            assert now.state.equal_state(reference.state)
            assert shadow(now.state) == shadow(reference.state)
        rewind(pipe, session.checkpoints("p0")[-1])

    def test_consecutive_checkpoints_share_what_was_not_written(
        self, sanitize
    ):
        session, tb = self._open(sanitize)
        references = {}
        self._run_intervals(session, tb, 8, references)
        checkpoints = session.checkpoints("p0")
        assert [c.cycle for c in checkpoints] == list(range(50, 401, 50))
        for older, newer in zip(checkpoints, checkpoints[1:]):
            # Cycle c writes word c (pointer out of reset at 0).
            written = {
                address // PAGE_WORDS
                for address in range(older.cycle, newer.cycle)
            }
            old_pages = older.snapshot.state.mems["m"].pages
            new_pages = newer.snapshot.state.mems["m"].pages
            for index, (old, new) in enumerate(zip(old_pages, new_pages)):
                assert (old is new) == (index not in written), index
        store = session.store("p0")
        assert store.resident_bytes() < store.total_bytes() / 2
        self._assert_restores_exactly(session, references)

    @pytest.mark.parametrize(
        "edited",
        [mem_design(depth=5 * PAGE_WORDS), mem_design(name="mm")],
        ids=["depth", "rename"],
    )
    def test_the_first_take_after_a_memory_edit_shares_nothing(
        self, sanitize, edited
    ):
        session, tb = self._open(sanitize)
        references = {}
        self._run_intervals(session, tb, 3, references)
        before = set().union(*map(page_ids, session.checkpoints("p0")))
        session.apply_change(edited)
        # No checkpoint from before the edit has an image of the same
        # length under the memory's new name to share pages with (the
        # longer memory keeps the old words, the renamed one starts at
        # zero); to the sanitizer what was not carried is poisoned.
        references.clear()
        self._run_intervals(session, tb, 3, references)
        first, second, third = session.checkpoints("p0")[-3:]
        assert not page_ids(first) & before
        (image,) = first.snapshot.state.mems.values()
        (image_after,) = second.snapshot.state.mems.values()
        assert any(a is b for a, b in zip(image.pages, image_after.pages))
        if sanitize == "report":
            assert first.snapshot.state.mem_poison
        self._assert_restores_exactly(session, references)


class TestSelection:
    def _store_with_cycles(self, cycles):
        pipe = make_pipe()
        store = CheckpointStore(interval=1)
        for cycle in cycles:
            pipe.step(cycle - pipe.cycle)
            store.take(pipe, "1.0", 0)
        return store

    def test_nearest_before(self):
        store = self._store_with_cycles([10, 20, 30])
        assert store.nearest_before(25).cycle == 20
        assert store.nearest_before(30).cycle == 30
        assert store.nearest_before(5) is None

    def test_reload_candidate_targets_distance(self):
        # Paper §III-D: reload the checkpoint closest to 10k cycles
        # before the stop point.
        store = self._store_with_cycles([10, 20, 30, 40, 50])
        cp = store.reload_candidate(stop_cycle=50, distance=25)
        assert cp.cycle == 30  # closest to 50-25=25

    def test_reload_candidate_never_after_stop(self):
        store = self._store_with_cycles([10, 20, 30, 40, 50])
        cp = store.reload_candidate(stop_cycle=35, distance=0)
        assert cp.cycle <= 35

    def test_reload_candidate_empty_store(self):
        store = CheckpointStore(interval=10)
        assert store.reload_candidate(100) is None

    def test_invalidate_after(self):
        store = self._store_with_cycles([10, 20, 30, 40])
        removed = store.invalidate_after(25)
        assert removed == 2
        assert store.cycles() == [10, 20]


class TestGCPolicy:
    @staticmethod
    def _fake_checkpoints(cycles):
        return [
            Checkpoint(id=i, cycle=c, snapshot=None, version="1.0", op_index=0)
            for i, c in enumerate(cycles)
        ]

    def test_under_limit_no_victims(self):
        policy = GCPolicy(keep_latest=100, older_budget=100)
        cps = self._fake_checkpoints(range(0, 500, 10))
        assert policy.select_victims(cps) == []

    def test_latest_always_survive(self):
        policy = GCPolicy(keep_latest=10, older_budget=5)
        cps = self._fake_checkpoints(range(0, 1000, 10))
        victims = {c.id for c in policy.select_victims(cps)}
        newest_ids = {c.id for c in cps[-10:]}
        assert not (victims & newest_ids)

    def test_older_thinned_to_budget(self):
        policy = GCPolicy(keep_latest=10, older_budget=5)
        cps = self._fake_checkpoints(range(0, 1000, 10))
        victims = policy.select_victims(cps)
        survivors_old = len(cps) - 10 - len(victims)
        assert survivors_old <= 5

    def test_survivors_roughly_equally_spaced(self):
        policy = GCPolicy(keep_latest=4, older_budget=4)
        cps = self._fake_checkpoints(range(0, 400, 10))
        victims = {c.id for c in policy.select_victims(cps)}
        old_survivors = [c.cycle for c in cps[:-4] if c.id not in victims]
        gaps = [b - a for a, b in zip(old_survivors, old_survivors[1:])]
        assert max(gaps) <= 3 * min(gaps)

    @given(cycles=st.lists(st.integers(0, 10_000), min_size=1, max_size=300,
                           unique=True))
    @settings(max_examples=30, deadline=None)
    def test_gc_invariants(self, cycles):
        cycles.sort()
        policy = GCPolicy(keep_latest=20, older_budget=15)
        cps = self._fake_checkpoints(cycles)
        victims = policy.select_victims(cps)
        victim_ids = {c.id for c in victims}
        survivors = [c for c in cps if c.id not in victim_ids]
        # Invariant 1: the newest keep_latest always survive.
        assert all(c.id not in victim_ids for c in cps[-20:])
        # Invariant 2: population bounded.
        assert len(survivors) <= 20 + 15
        # Invariant 3: victims only ever come from the older section.
        assert all(v in cps[:-20] for v in victims)

    def test_clustered_cycles_keep_full_budget(self):
        # Clustered cycles used to collapse the keep set: several
        # equally-spaced targets resolved to the same nearest
        # checkpoint, so fewer than older_budget survived.
        policy = GCPolicy(keep_latest=2, older_budget=4)
        cps = self._fake_checkpoints([0, 1, 2, 3, 1000, 2000, 2001])
        victims = policy.select_victims(cps)
        older = cps[:-2]
        survivors = len(older) - len(victims)
        assert survivors == 4  # exactly min(older_budget, len(older))

    def test_keep_set_never_collapses(self):
        # Degenerate span: every older checkpoint at the same cycle.
        # Every target resolves to the same nearest checkpoint unless
        # the keep set dedupes, so the old code kept exactly one.
        policy = GCPolicy(keep_latest=1, older_budget=3)
        cps = self._fake_checkpoints([7, 7, 7, 7, 7, 900])
        victims = policy.select_victims(cps)
        assert len(cps[:-1]) - len(victims) == 3

    def test_store_gc_applies_policy(self):
        pipe = make_pipe()
        store = CheckpointStore(
            interval=1, policy=GCPolicy(keep_latest=5, older_budget=3)
        )
        for _ in range(30):
            pipe.step(1)
            store.maybe_take(pipe, "1.0", 0)
        assert len(store) <= 8
        assert store.total_collected > 0


class TestPersistence:
    def test_save_and_load_roundtrip(self, tmp_path):
        pipe = make_pipe()
        store = CheckpointStore(interval=10)
        pipe.step(3)
        store.take(pipe, "1.0", 0)
        pipe.step(3)
        store.take(pipe, "1.0", 1)
        path = str(tmp_path / "checkpoints.pkl")
        store.save(path)

        loaded = CheckpointStore(interval=99)
        loaded.load(path)
        assert loaded.interval == 10
        assert loaded.cycles() == store.cycles()
        regs = loaded.all()[0].snapshot.state.child("u0").regs
        assert regs["count_q"] == 3

    def test_total_bytes_counts_payload(self):
        pipe = make_pipe()
        store = CheckpointStore(interval=10)
        store.take(pipe, "1.0", 0)
        assert store.total_bytes() > 0

    def test_load_preserves_overhead_stats(self, tmp_path):
        # A session reload must not zero the §V-B overhead accounting.
        pipe = make_pipe()
        store = CheckpointStore(
            interval=1, policy=GCPolicy(keep_latest=3, older_budget=2)
        )
        for _ in range(10):
            pipe.step(1)
            store.take(pipe, "1.0", 0)
        assert store.total_collected > 0
        path = str(tmp_path / "checkpoints.pkl")
        store.save(path)

        loaded = CheckpointStore(interval=99)
        loaded.load(path)
        assert loaded.total_captured == store.total_captured == 10
        assert loaded.total_capture_seconds == store.total_capture_seconds
        assert loaded.total_collected == store.total_collected

    def test_load_reapplies_current_policy(self, tmp_path):
        # A store saved under a loose policy must be GC'd on load when
        # the loading store's policy is tighter.
        pipe = make_pipe()
        loose = CheckpointStore(interval=1)
        for _ in range(12):
            pipe.step(1)
            loose.take(pipe, "1.0", 0)
        path = str(tmp_path / "checkpoints.pkl")
        loose.save(path)

        tight = CheckpointStore(
            interval=1, policy=GCPolicy(keep_latest=3, older_budget=2)
        )
        tight.load(path)
        assert len(tight) <= 5
        assert tight.total_collected > 0

    @pytest.mark.parametrize(
        "payload",
        [
            ["not", "a", "dict"],
            {"interval": 10, "checkpoints": [], "next_id": 1},
            {"interval": 10, "checkpoints": [], "next_id": 1,
             "stats": {"total_captured": 0}},
        ],
        ids=["not_a_dict", "no_stats", "partial_stats"],
    )
    def test_load_rejects_a_payload_without_the_current_keys(
        self, tmp_path, payload
    ):
        import pickle

        path = str(tmp_path / "other.pkl")
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)
        loaded = CheckpointStore(interval=99)
        with pytest.raises(SimulationError, match="other.pkl"):
            loaded.load(path)
        assert loaded.interval == 99 and len(loaded) == 0

    @pytest.mark.parametrize("damage", ["truncated", "empty", "garbled"])
    def test_ldch_of_an_unreadable_file_is_a_command_error(
        self, tmp_path, damage
    ):
        from repro.live.commands import CommandError, CommandInterpreter
        from repro.live.session import LiveSession
        from repro.sim.testbench import hold_inputs

        session = LiveSession(COUNTER_SRC, checkpoint_interval=10)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        tb = session.load_testbench(hold_inputs(rst=0))
        session.run(tb, "p0", 25)
        path = tmp_path / "cut.ckpt"
        session.chkp("p0", str(path))
        good = path.read_bytes()
        path.write_bytes({
            "truncated": good[: len(good) // 2],
            "empty": b"",
            "garbled": bytes(b ^ 0x5A for b in good),
        }[damage])
        interp = CommandInterpreter(session, read_file={}.__getitem__)
        # The shell and the server report a CommandError as a failed
        # command; an UnpicklingError would have been an internal error.
        with pytest.raises(CommandError, match="cut.ckpt"):
            interp.execute(f"ldch p0, {path}")
        # Nothing moved: the pipe, its store and its history are intact.
        assert session.pipe("p0").cycle == 25
        assert session.store("p0").cycles() == [10, 20, 25]
        assert session.ops("p0")[-1].end_cycle == 25

    def test_a_save_that_dies_midway_leaves_the_previous_file(
        self, tmp_path, monkeypatch
    ):
        import pickle

        pipe = make_pipe()
        store = CheckpointStore(interval=10)
        store.take(pipe, "1.0", 0)
        path = tmp_path / "recovery.ckpt"
        store.save(str(path))
        before = path.read_bytes()

        pipe.step(5)
        store.take(pipe, "1.0", 1)

        def dies_midway(payload, fh, *args, **kwargs):
            fh.write(b"half a pick")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(pickle, "dump", dies_midway)
        with pytest.raises(OSError, match="No space"):
            store.save(str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["recovery.ckpt"]

    def test_a_saved_store_writes_a_shared_page_once(self, tmp_path):
        # An idle memory of distinct 64-bit words: each checkpoint after
        # the first shares every page, and so does the file.
        pipe = make_mem_pipe()
        rng = random.Random(33)
        pipe.top.write_memory(
            "m", 0, [rng.getrandbits(64) for _ in range(4 * PAGE_WORDS)]
        )
        store = CheckpointStore(interval=1)
        store.take(pipe, "1.0", 0)
        one, many = tmp_path / "one.ckpt", tmp_path / "many.ckpt"
        store.save(str(one))
        for _ in range(19):
            pipe.step(1)
            store.take(pipe, "1.0", 0)
        store.save(str(many))
        assert len(store) == 20
        assert many.stat().st_size < 2 * one.stat().st_size
        image_bytes = 8 * 4 * PAGE_WORDS
        assert store.resident_bytes() == store.total_bytes() - 19 * image_bytes
        loaded = CheckpointStore(interval=1)
        loaded.load(str(many))
        assert loaded.resident_bytes() == store.resident_bytes()

    def test_a_store_file_with_flat_images_still_loads(self, tmp_path):
        session = LiveSession(mem_design(), checkpoint_interval=50)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        tb = session.load_testbench(hold_inputs(rst=0))
        session.run(tb, "p0", 200)
        paged, flat = tmp_path / "paged.ckpt", tmp_path / "flat.ckpt"
        session.store("p0").save(str(paged))
        store = CheckpointStore(interval=50)
        store.load(str(paged))
        for checkpoint in store.all():
            snapshot = checkpoint.snapshot
            checkpoint.snapshot = PipeSnapshot(
                snapshot.cycle, snapshot.inputs, flattened(snapshot.state)
            )
        store.save(str(flat))
        assert b"MemImage" not in flat.read_bytes()
        assert b"MemImage" in paged.read_bytes()

        from_flat, from_paged = CheckpointStore(), CheckpointStore()
        from_flat.load(str(flat))
        from_paged.load(str(paged))
        for a, b in zip(from_flat.all(), from_paged.all(), strict=True):
            assert type(a.snapshot.state.mems["m"]) is list
            assert a.snapshot.state.equal_state(b.snapshot.state)
            assert b.snapshot.state.equal_state(a.snapshot.state)

        pipe = session.pipe("p0")
        session.ldch("p0", str(paged))
        restored = pipe.snapshot()
        session.ldch("p0", str(flat))
        assert pipe.cycle == restored.cycle == 200
        assert pipe.snapshot().state.equal_state(restored.state)

        # A store of flat images only verifies, and the checkpoint taken
        # against one (nothing to share) verifies with it.
        session.store("p0").invalidate_after(-1)
        session.ldch("p0", str(flat))
        assert all(
            type(c.snapshot.state.mems["m"]) is list
            for c in session.checkpoints("p0")
        )
        assert session.verify_consistency("p0").verdict == "consistent"
        session.run(tb, "p0", 50)
        assert session.verify_consistency("p0").verdict == "consistent"
