"""Checkpoint store tests: capture cadence, selection, GC (Fig. 2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import compile_design
from repro.hdl.errors import SimulationError
from repro.live.checkpoint import Checkpoint, CheckpointStore, GCPolicy
from repro.sim import Pipe
from tests.conftest import COUNTER_SRC


def make_pipe():
    netlist, library = compile_design(COUNTER_SRC, "top")
    pipe = Pipe(netlist.top, library)
    pipe.set_inputs(rst=1)
    pipe.step(1)
    pipe.set_inputs(rst=0)
    return pipe


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

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            CheckpointStore(interval=0)


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
