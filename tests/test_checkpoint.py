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
from tests.conftest import COUNTER_SRC, child_record


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
    return state.replace(
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
        assert child_record(cp.snapshot.state, "u0").regs["count_q"] == 7

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

    def test_order_and_recapture_whether_a_take_appends_or_not(self):
        # A take after the newest checkpoint appends; a recapture (of
        # the newest or of an older cycle, after a rewind) replaces in
        # place, and an adopted older checkpoint lands in cycle order.
        pipe = make_pipe()
        store = CheckpointStore(interval=1)
        snapshots = {}
        for cycle in (10, 20, 30):
            pipe.step(cycle - pipe.cycle)
            store.take(pipe, "1.0", 0)
            snapshots[cycle] = pipe.snapshot()
        assert store.cycles() == [10, 20, 30]
        store.take(pipe, "1.1", 1)
        pipe.restore(snapshots[20])
        store.take(pipe, "1.2", 2)
        adopted = Checkpoint(
            id=-1, cycle=15, snapshot=snapshots[10], version="1.3",
            op_index=3,
        )
        assert store.adopt([adopted]) == 1
        pipe.restore(snapshots[30])
        pipe.step(10)
        store.take(pipe, "1.4", 4)
        assert store.cycles() == [10, 15, 20, 30, 40]
        assert [c.version for c in store.all()] == [
            "1.0", "1.3", "1.2", "1.1", "1.4",
        ]
        ids = [c.id for c in store.all()]
        assert len(set(ids)) == 5 and max(ids) == ids[-1]

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
        before = dict(child_record(cp.snapshot.state, "u0").regs)
        pipe.step(10)
        assert child_record(cp.snapshot.state, "u0").regs == before

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

    @staticmethod
    def _scan_victims(policy, checkpoints):
        """The policy as a linear scan per target: each target claims the
        first remaining checkpoint of least distance.  The oracle for the
        bisecting :meth:`GCPolicy.select_victims`."""
        if len(checkpoints) <= policy.keep_latest:
            return []
        older = checkpoints[: -policy.keep_latest]
        if len(older) <= policy.older_budget:
            return []
        first, last = older[0].cycle, older[-1].cycle
        span = max(last - first, 1)
        budget = min(policy.older_budget, len(older))
        remaining = list(older)
        keep_ids = set()
        for i in range(budget):
            target = first + span * i / max(budget - 1, 1)
            best = min(remaining, key=lambda c: abs(c.cycle - target))
            keep_ids.add(best.id)
            remaining.remove(best)
        return [c for c in older if c.id not in keep_ids]

    @staticmethod
    def _cycle_lists(rnd):
        """Sorted cycle lists: random, clustered, tied (duplicates, and
        targets halfway between two checkpoints)."""
        for _ in range(40):
            n = rnd.randrange(1, 400)
            yield sorted(rnd.sample(range(100_000), n))
            yield sorted(rnd.randrange(60) for _ in range(n))  # duplicates
            clusters = [rnd.randrange(100_000) for _ in range(rnd.randrange(1, 6))]
            yield sorted(c + rnd.randrange(8) for c in rnd.choices(clusters, k=n))
        for step in (1, 2, 3, 10):
            for n in (7, 9, 33, 201, 400):
                yield [step * i for i in range(n)]
                yield [step * (i // 2) for i in range(n)]  # each cycle twice
        yield [7] * 50 + [900]
        yield [0, 1, 2, 3, 1000, 2000, 2001]

    def test_bisection_keeps_what_the_scan_keeps(self):
        rnd = random.Random(41)
        policies = [GCPolicy(keep_latest=k, older_budget=b)
                    for k, b in ((1, 3), (2, 4), (5, 5), (10, 100), (100, 100), (20, 15))]
        compared = 0
        for cycles in self._cycle_lists(rnd):
            cps = self._fake_checkpoints(cycles)
            for policy in policies:
                expected = self._scan_victims(policy, cps)
                assert policy.select_victims(cps) == expected, (policy, cycles)
                compared += bool(expected)
        assert compared > 300  # most cases thin something

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
        regs = child_record(loaded.all()[0].snapshot.state, "u0").regs
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
        import os

        pipe = make_pipe()
        store = CheckpointStore(interval=10)
        store.take(pipe, "1.0", 0)
        path = tmp_path / "recovery.ckpt"
        store.save(str(path))
        before = path.read_bytes()

        pipe.step(5)
        store.take(pipe, "1.0", 1)

        class DiesMidway:
            """The sealed file's handle: the header goes through, the
            body's write stops halfway with a full disk."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 1:
                    return self.fh.write(data)
                self.fh.write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")

        fdopen = os.fdopen
        monkeypatch.setattr(
            os, "fdopen", lambda fd, mode: DiesMidway(fdopen(fd, mode))
        )
        with pytest.raises(OSError, match="No space"):
            store.save(str(path))
        monkeypatch.undo()
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
        # The pipe is idle, so each later checkpoint's record tree is
        # the first one's: only its cycle and inputs are its own.
        first = store.all()[0].snapshot.state
        assert all(c.snapshot.state is first for c in store.all())
        tree_bytes = first.total_bytes()
        assert tree_bytes > 8 * 4 * PAGE_WORDS
        assert store.resident_bytes() == store.total_bytes() - 19 * tree_bytes
        loaded = CheckpointStore(interval=1)
        loaded.load(str(many))
        assert loaded.resident_bytes() == store.resident_bytes()

    def test_a_store_file_with_flat_images_is_refused(self, tmp_path):
        """A store file from before images were paged (plain-list
        memories, no header) is refused by ``ldch`` before a byte of it
        is unpickled, and the session is unchanged."""
        import pickle

        from repro.codegen.build import STORE_FORMAT
        from repro.live.commands import CommandError, CommandInterpreter

        session = LiveSession(mem_design(), checkpoint_interval=50)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        tb = session.load_testbench(hold_inputs(rst=0))
        session.run(tb, "p0", 200)
        store = session.store("p0")
        flat = tmp_path / "flat.ckpt"
        with open(flat, "wb") as fh:  # as such a file was written
            pickle.dump({
                "interval": store.interval,
                "checkpoints": [
                    replace(c, snapshot=PipeSnapshot(
                        c.snapshot.cycle, c.snapshot.inputs,
                        flattened(c.snapshot.state),
                    ))
                    for c in store.all()
                ],
                "next_id": len(store) + 1,
                "stats": {"total_captured": len(store),
                          "total_capture_seconds": 0.0,
                          "total_collected": 0},
            }, fh)
        pipe, held = session.pipe("p0"), store.all()
        state, ops = pipe.snapshot().state, session.ops("p0")

        interp = CommandInterpreter(session, read_file={}.__getitem__)
        with pytest.raises(CommandError) as refused:
            interp.execute(f"ldch p0, {flat}")
        assert str(flat) in str(refused.value)
        assert f"not a {STORE_FORMAT} checkpoint file" in str(refused.value)
        assert "found no header" in str(refused.value)
        assert pipe.cycle == 200
        assert list(map(id, store.all())) == list(map(id, held))
        assert pipe.snapshot().state == state
        assert session.ops("p0") == ops
        assert session.verify_consistency("p0").verdict == "consistent"
