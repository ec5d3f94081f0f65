"""The measured loop does what the metrics assume, on a 1x1 mesh."""

from dataclasses import replace

import pytest

from benchmarks.livebench import metrics
from benchmarks.livebench.session_run import PIPE, SessionRun
from benchmarks.livebench.workloads import (
    TAIL_ITERATIONS,
    WARMUP_ITERATIONS,
    WORKLOADS,
)

TINY = replace(
    WORKLOADS["edit_loop2"], name="tiny", mesh=1, interval=50,
    cmds_per_edit=20, chunks_per_edit=8, chunk_cycles=5,
    edit_block=(6, 2, 1), edit_blocks=1, warmup_edits=1,
)


class SteadyHost:
    """A host that always runs at the reference speed."""

    def slowdown(self, start, seconds):
        return 1.0


def test_typical_counts_every_class_at_its_median():
    at = 0.0  # start times do not matter to a steady host
    samples = {
        0: [(at, 1.0), (at, 9.0), (at, 1.0)],
        1: [(at, 1.0), (at, 1.0), (at, 7.0)],
        2: [(at, 5.0), (at, 5.0), (at, 6.0)],
    }
    # The class that alone carries extra work (the checkpoint) counts.
    assert metrics.typical(samples, SteadyHost()) == (1.0 + 1.0 + 5.0) / 3
    # Classes weigh by their counts.
    assert metrics.typical(
        {"a": [(at, 2.0)] * 3, "b": [(at, 8.0)]}, SteadyHost()
    ) == 14.0 / 4


def test_a_sample_is_read_against_the_probes_around_it():
    host = metrics.HostProbe()
    host()
    assert host.seconds[0] > 0.0
    fast, slow = metrics.PROBE_REFERENCE_S, 2 * metrics.PROBE_REFERENCE_S
    # Probes at t = 0, 1, ..., 9; the host is slow from t = 4 on.
    host.starts = [float(t) for t in range(10)]
    host.seconds = [fast] * 4 + [slow] * 6
    approx = pytest.approx
    assert host.slowdown(2.1, 0.5) == approx(1.25)  # probes 1, 2 | 3, 4
    assert host.slowdown(5.1, 2.5) == approx(2.0)  # probes 4, 5 | 8, 9
    assert host.slowdown(0.5, 0.1) == approx(1.0)  # one probe before it
    # The same operation, twice as slow on a host twice as slow.
    samples = {"op": [(1.1, 0.3), (6.1, 0.6), (7.1, 0.6)]}
    assert metrics.typical(samples, host) == approx(0.3)


def test_every_iteration_is_one_interval_one_checkpoint_one_replay():
    run = SessionRun(TINY, seed=4)
    run.setup()
    try:
        store = run.session.store(PIPE)
        run.measure()
        iterations = WARMUP_ITERATIONS + TINY.edits + TAIL_ITERATIONS
        assert run.session.pipe(PIPE).cycle == 2 + iterations * TINY.interval
        # One checkpoint per interval, each taken by the last chunk.
        assert [c.cycle for c in store.all()] == [
            2 + i * TINY.interval for i in range(1, iterations + 1)
        ]
        # Every behavioural edit replays exactly one interval.
        behavioural = [r for r in run.reports if r.behavioral]
        assert len(behavioural) == 8
        assert {r.cycles_replayed for r in behavioural} == {TINY.interval}
        # Every position is a class with one sample per iteration.
        assert sorted(run.chunk_s) == list(range(TINY.chunks_per_edit))
        assert sorted(run.cmd_s) == list(range(TINY.cmds_per_edit))
        assert {len(v) for v in run.chunk_s.values()} == {
            TINY.edits + TAIL_ITERATIONS
        }
        assert sum(len(v) for v in run.edit_s.values()) == TINY.edits
        run.check()
        assert run.failures == []
        assert all(value > 0 for value in run.end_to_end().values())
    finally:
        run.close()


def test_what_a_checkpoint_costs_is_in_sim_hz(monkeypatch):
    """A dearer snapshot must move the bounded metric: the chunk that
    takes it is a class of its own, counted in every interval."""
    import time

    from repro.live.checkpoint import CheckpointStore

    def rate(extra_s):
        take = CheckpointStore.take

        def slow_take(self, *args, **kwargs):
            time.sleep(extra_s)
            return take(self, *args, **kwargs)

        monkeypatch.setattr(CheckpointStore, "take", slow_take)
        # A sleep is as long on a slow host: read the clock as it is.
        monkeypatch.setattr(
            metrics.HostProbe, "slowdown", SteadyHost.slowdown
        )
        run = SessionRun(TINY, seed=4)
        run.setup()
        try:
            run.measure()
            return run.end_to_end()["sim_hz"], run.chunk_s
        finally:
            run.close()
            monkeypatch.undo()

    base_hz, _ = rate(0.0)
    extra_s = 0.02
    slow_hz, chunk_s = rate(extra_s)
    last = TINY.chunks_per_edit - 1
    fastest = {
        position: min(seconds for _, seconds in samples)
        for position, samples in chunk_s.items()
    }
    assert fastest[last] >= extra_s > max(
        fastest[p] for p in range(last)
    )
    # One snapshot per chunks_per_edit chunks of chunk_cycles cycles.
    per_chunk = TINY.chunk_cycles / slow_hz - TINY.chunk_cycles / base_hz
    assert per_chunk >= 0.9 * extra_s / TINY.chunks_per_edit
