"""Checkpoint consistency verification (paper §III-F, Fig. 6).

After a code change the stored checkpoints — produced by the *old*
code — may no longer describe states the *new* code would reach.
Instead of re-running from cycle 0, LiveSim verifies checkpoint deltas
independently: for each interval ``[cp_k, cp_{k+1}]``, reload ``cp_k``
under the patched design, replay the recorded operations to
``cp_{k+1}``'s cycle, and compare the resulting state against the
stored ``cp_{k+1}`` (the store is retargeted to the new version's
names at every edit, :mod:`repro.live.transform`).

Because every segment is independent, the work parallelizes across as
many cores as there are checkpoints.  When the checkpoints are not
consistent, the earliest divergent segment localizes where the
divergence occurred — "which may also be useful for debugging".

Verification is a managed subsystem, not a one-shot function:

* :class:`VerifierPool` — a persistent process pool that survives
  across verify calls *and* across edits.  Each worker process keeps a
  compiled-design cache keyed by a design fingerprint (source hash +
  top + params + mux style), so verifying again — or verifying the
  next edit of an unchanged specialization — skips the parse /
  elaborate / compile that otherwise dominates worker startup.
* Per-segment futures with dynamic scheduling: a straggler segment no
  longer serializes a whole statically-assigned batch; idle workers
  pull the next segment.
* :class:`BackgroundVerifier` — runs a verify without blocking the
  session.  Results stream in via a completion callback on a collector
  thread; a superseding edit cancels in-flight segments.

The paper §III-F: stored checkpoints are re-verified *in the
background* while the user keeps simulating.
"""

from __future__ import annotations

import hashlib
import importlib
import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import (
    CancelledError,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..hdl.errors import SimulationError
from ..sim.pipeline import Pipe
from ..sim.testbench import Testbench
from .checkpoint import Checkpoint
from .replay import SessionOp, recorded_from, replay_ops, rewind

# How many compiled designs one worker process keeps around.  Edits
# ping-pong between a handful of fingerprints (inject/fix pairs), so a
# small bound holds the useful set without unbounded memory growth.
WORKER_DESIGN_CACHE_SIZE = 8


@dataclass
class SegmentResult:
    """Outcome of verifying one checkpoint delta."""

    index: int
    start_cycle: int
    end_cycle: int
    consistent: bool
    seconds: float = 0.0
    detail: str = ""
    # Dense worker index assigned by the parent from the worker's pid
    # (-1 = verified in-process).  Dynamic scheduling means any worker
    # may pick up any segment.
    worker: int = -1
    # True when handling this segment made the worker compile the
    # design (a fingerprint cache miss).
    compiled: bool = False


@dataclass
class ConsistencyReport:
    """Fig. 6 outcome: per-segment verdicts plus aggregate timing."""

    segments: List[SegmentResult] = field(default_factory=list)
    workers: int = 1
    wall_seconds: float = 0.0
    # Segments cancelled before they ran (superseding edit); they have
    # no SegmentResult.
    cancelled_segments: int = 0
    status: str = "complete"  # "complete" | "cancelled"
    # Checkpoint deltas with no recorded history between their ends
    # (cycles a migration did not carry, or run behind the session's
    # back): nothing can be replayed across them, so they have no
    # SegmentResult either.
    unverifiable_segments: int = 0
    # Segments whose verification died (a worker crashed, a testbench
    # raised), and a completion callback that did.
    errors: List[str] = field(default_factory=list)

    @property
    def all_consistent(self) -> bool:
        return not self.errors and all(s.consistent for s in self.segments)

    @property
    def verdict(self) -> str:
        """``failed`` | ``divergent`` | ``consistent`` | ``unverifiable``.

        ``consistent`` takes at least one verified delta, or a store
        with nothing to verify: checkpoints none of whose deltas could
        be checked are ``unverifiable``, not fine.
        """
        if self.errors:
            return "failed"
        if not self.all_consistent:
            return "divergent"
        if self.unverifiable_segments and not self.segments:
            return "unverifiable"
        return "consistent"

    @property
    def cpu_seconds(self) -> float:
        return sum(s.seconds for s in self.segments)

    @property
    def first_divergent(self) -> Optional[SegmentResult]:
        for segment in sorted(self.segments, key=lambda s: s.start_cycle):
            if not segment.consistent:
                return segment
        return None

    @property
    def divergence_cycle(self) -> Optional[int]:
        """Earliest cycle known-good state ends (start of the first bad
        segment); simulation must be re-established from there."""
        bad = self.first_divergent
        return bad.start_cycle if bad is not None else None


@dataclass
class VerifyStatus:
    """Point-in-time view of a (possibly in-flight) verification."""

    # "idle" | "running" | "cancelled" | a ConsistencyReport.verdict
    state: str
    total_segments: int = 0
    completed_segments: int = 0
    cancelled_segments: int = 0
    unverifiable_segments: int = 0
    consistent: Optional[bool] = None
    divergence_cycle: Optional[int] = None
    error: Optional[str] = None  # the first, when state is "failed"
    wall_seconds: float = 0.0


@dataclass
class _Segment:
    index: int
    base: Optional[Checkpoint]  # None => power-on
    end: Checkpoint

    @property
    def start_cycle(self) -> int:
        return self.base.cycle if self.base is not None else 0

    @property
    def end_cycle(self) -> int:
        return self.end.cycle


class ConsistencyChecker:
    """Verifies checkpoint deltas under the current (patched) design."""

    def __init__(
        self,
        build_pipe: Callable[[], Pipe],
        tb_lookup: Callable[[str], Testbench],
    ):
        self._build_pipe = build_pipe
        self._tb_lookup = tb_lookup

    # -- segment construction ---------------------------------------------------

    @staticmethod
    def make_segments(
        checkpoints: Sequence[Checkpoint], ops: Sequence[SessionOp]
    ) -> Tuple[List[_Segment], int]:
        """One segment per checkpoint delta ``ops`` can replay, and the
        number of deltas they cannot (no recorded history across)."""
        segments: List[_Segment] = []
        previous: Optional[Checkpoint] = None
        for i, checkpoint in enumerate(
            sorted(checkpoints, key=lambda c: c.cycle)
        ):
            start = previous.cycle if previous is not None else 0
            if recorded_from(ops, checkpoint.cycle, start) <= start:
                segments.append(_Segment(i, previous, checkpoint))
            previous = checkpoint
        return segments, len(checkpoints) - len(segments)

    # -- serial verification --------------------------------------------------------

    def verify(
        self,
        checkpoints: Sequence[Checkpoint],
        ops: Sequence[SessionOp],
        workers: int = 1,
        worker_context: "Optional[WorkerContext]" = None,
        pool: "Optional[VerifierPool]" = None,
    ) -> ConsistencyReport:
        """Verify every checkpoint delta, blocking until done.

        ``workers > 1`` runs segments in worker processes and needs a
        :class:`WorkerContext` (everything a fresh process requires to
        rebuild the simulator); otherwise segments run serially in this
        process.  Passing ``pool`` reuses a persistent
        :class:`VerifierPool` (warm workers, warm design caches);
        without one a transient pool is spun up and torn down.
        """
        started = time.perf_counter()
        with obs.span("consistency.verify", workers=max(workers, 1)):
            segments, unverifiable = self.make_segments(checkpoints, ops)
            report = ConsistencyReport(
                workers=max(workers, 1), unverifiable_segments=unverifiable
            )
            if not segments:
                report.wall_seconds = time.perf_counter() - started
                return report
            if workers > 1 and worker_context is not None:
                report.segments = self._verify_parallel(
                    segments, ops, workers, worker_context, pool
                )
            else:
                report.workers = 1
                report.segments = [
                    self._verify_segment(segment, ops) for segment in segments
                ]
            report.wall_seconds = time.perf_counter() - started
        obs.incr("consistency.segments_verified", len(report.segments))
        divergent = sum(1 for s in report.segments if not s.consistent)
        if divergent:
            obs.incr("consistency.divergences", divergent)
        return report

    def _verify_segment(
        self, segment: _Segment, ops: Sequence[SessionOp]
    ) -> SegmentResult:
        seg_started = time.perf_counter()
        with obs.span("consistency.segment", index=segment.index,
                      end_cycle=segment.end_cycle):
            pipe = self._build_pipe()
            result = _run_segment(pipe, segment, ops, self._tb_lookup)
        result.seconds = time.perf_counter() - seg_started
        return result

    # -- parallel verification ---------------------------------------------------------

    def _verify_parallel(
        self,
        segments: List[_Segment],
        ops: Sequence[SessionOp],
        workers: int,
        context: "WorkerContext",
        pool: "Optional[VerifierPool]" = None,
    ) -> List[SegmentResult]:
        owned = pool is None
        if pool is None:
            pool = VerifierPool(workers)
        try:
            futures = pool.submit_segments(context, ops, segments)
            results: List[SegmentResult] = []
            for future in as_completed(futures):
                result, pid = future.result()
                result.worker = pool.worker_index(pid)
                _note_segment_result(result)
                results.append(result)
        finally:
            if owned:
                pool.shutdown()
        results.sort(key=lambda r: r.index)
        return results


def _run_segment(
    pipe: Pipe,
    segment: _Segment,
    ops: Sequence[SessionOp],
    tb_lookup: Callable[[str], Testbench],
) -> SegmentResult:
    """Replay one delta and compare final state to the stored end."""
    rewind(pipe, segment.base)
    replay_ops(pipe, ops, segment.end_cycle, tb_lookup)
    actual = pipe.top.snapshot()
    # Canonicalize the stored end snapshot into the current design's
    # layout (widths, depths) by loading it the same way.
    pipe.restore_transformed(segment.end.snapshot)
    expected = pipe.top.snapshot()
    consistent = actual.equal_state(expected)
    detail = ""
    if not consistent:
        detail = _describe_divergence(actual, expected)
    return SegmentResult(
        index=segment.index,
        start_cycle=segment.start_cycle,
        end_cycle=segment.end_cycle,
        consistent=consistent,
        detail=detail,
    )


def _ordered_union(first, second) -> List[str]:
    return list(first) + [name for name in second if name not in first]


def _describe_divergence(actual, expected, path: str = "top") -> str:
    # Registers/memories present in either side count: a name only in
    # `expected` means the replayed design dropped state (and vice
    # versa), which is exactly the divergence worth naming.
    for name in _ordered_union(actual.regs, expected.regs):
        a = actual.regs.get(name)
        b = expected.regs.get(name)
        if a != b:
            return f"{path}.{name}: replayed={a} stored={b}"
    for name in _ordered_union(actual.mems, expected.mems):
        a = actual.mems.get(name)
        b = expected.mems.get(name)
        if a == b:
            continue
        if a is None or b is None:
            return (
                f"{path}.{name}: memory "
                f"{'missing from replayed state' if a is None else 'missing from stored state'}"
            )
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return f"{path}.{name}[{i}]: replayed={x} stored={y}"
        return (
            f"{path}.{name}: length mismatch "
            f"replayed={len(a)} stored={len(b)}"
        )
    if len(actual.children) != len(expected.children):
        return (
            f"{path}: child count replayed={len(actual.children)} "
            f"stored={len(expected.children)}"
        )
    for child_a, child_b in zip(actual.children, expected.children):
        if child_a.name != child_b.name:
            return (
                f"{path}: child name replayed={child_a.name!r} "
                f"stored={child_b.name!r}"
            )
        if not child_a.equal_state(child_b):
            return _describe_divergence(
                child_a, child_b, f"{path}.{child_a.name}"
            )
    return "states differ"


def _note_segment_result(result: SegmentResult) -> None:
    """Surface a worker-verified segment in the parent's obs stream."""
    if result.compiled:
        obs.incr("consistency.worker_compiles")
    else:
        obs.incr("consistency.worker_cache_hits")
    obs.record(
        "consistency.segment",
        int(result.seconds * 1e9),
        index=result.index,
        worker=result.worker,
    )


# ----------------------------------------------------------------------------
# Process-parallel worker support
# ----------------------------------------------------------------------------


@dataclass
class WorkerContext:
    """Everything a fresh process needs to rebuild the simulator.

    ``tb_specs`` maps testbench handle -> ("package.module:factory",
    kwargs); the factory is imported and called in the worker to
    recreate the testbench.  Factories must build replay-safe
    testbenches (stimulus a pure function of the rebased cycle) —
    workers cache them across verify calls.
    """

    source: str
    top: str
    params: Dict[str, int]
    mux_style: str
    tb_specs: Dict[str, Tuple[str, Dict]]

    def fingerprint(self) -> str:
        """Design identity for the worker-side compiled cache."""
        digest = hashlib.sha256(self.source.encode("utf-8"))
        digest.update(b"\x00" + self.top.encode("utf-8"))
        digest.update(
            b"\x00" + repr(sorted(self.params.items())).encode("utf-8")
        )
        digest.update(b"\x00" + self.mux_style.encode("utf-8"))
        return digest.hexdigest()


class VerifierPool:
    """A process pool that outlives individual verify calls.

    The executor is created lazily on first submit and reused until
    :meth:`shutdown` (or :meth:`resize`).  Keeping the workers alive is
    what makes the per-worker design cache effective: a verify after an
    edit ships only the context (cheap) and each worker compiles the
    new fingerprint once, instead of every verify paying a process
    spawn plus a full recompile per worker.
    """

    def __init__(self, workers: int):
        self.workers = max(int(workers), 1)
        self._executor: Optional[Executor] = None
        self._lock = threading.Lock()
        self._worker_indices: Dict[int, int] = {}

    def _ensure_executor(self) -> Executor:
        with self._lock:
            if self._executor is None:
                if multiprocessing.current_process().daemon:
                    # A daemonic process (a sharded server worker) may
                    # not fork children; run segments on threads in
                    # this process instead.  Same payload protocol —
                    # only the parallelism degrades (GIL-serialized).
                    self._executor = ThreadPoolExecutor(
                        max_workers=self.workers,
                        thread_name_prefix="livesim-verify",
                    )
                else:
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.workers
                    )
                self._worker_indices.clear()
                obs.incr("consistency.pool_spawns")
            else:
                obs.incr("consistency.pool_reuses")
            return self._executor

    def submit_segments(
        self,
        context: WorkerContext,
        ops: Sequence[SessionOp],
        segments: Sequence[_Segment],
    ) -> List[Future]:
        """One future per segment — dynamic scheduling.

        The context and ops are pickled once and shared by every
        submission; segments are pickled individually so a worker only
        deserializes the snapshots it actually verifies.
        """
        executor = self._ensure_executor()
        context_payload = pickle.dumps(context)
        ops_payload = pickle.dumps(list(ops))
        return [
            executor.submit(
                _pool_verify_segment,
                context_payload,
                ops_payload,
                pickle.dumps(segment),
            )
            for segment in segments
        ]

    def worker_index(self, pid: int) -> int:
        """Dense index for a worker process id (stable for the pool's
        lifetime; assigned in order of first completed result)."""
        with self._lock:
            if pid not in self._worker_indices:
                self._worker_indices[pid] = len(self._worker_indices)
            return self._worker_indices[pid]

    def resize(self, workers: int) -> None:
        """Change the worker count; tears down the old executor (and
        with it the worker-side caches) lazily."""
        workers = max(int(workers), 1)
        if workers == self.workers and self._executor is not None:
            return
        self.shutdown()
        self.workers = workers
        obs.incr("consistency.pool_resizes")

    def shutdown(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
            self._worker_indices.clear()
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)


class VerifyJob:
    """Handle to one background verification run."""

    def __init__(self, total_segments: int, workers: int,
                 unverifiable_segments: int):
        self.total_segments = total_segments
        self.workers = workers
        self.unverifiable_segments = unverifiable_segments
        self.started = time.perf_counter()
        self.superseded = False
        self._futures: List[Future] = []
        self._results: List[SegmentResult] = []
        self._cancelled = 0
        self._errors: List[str] = []
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._report: Optional[ConsistencyReport] = None

    # -- control -------------------------------------------------------------

    def cancel(self) -> int:
        """Cancel segments that have not started (a superseding edit).

        Running segments finish but the job is marked superseded, so
        its verdict must not be acted on.  Returns the number of
        segments cancelled.
        """
        with self._lock:
            if self._done.is_set():
                return 0
            self.superseded = True
            cancelled = sum(1 for f in self._futures if f.cancel())
            self._cancelled += cancelled
        if cancelled:
            obs.incr("consistency.segments_cancelled", cancelled)
        obs.incr("consistency.jobs_superseded")
        return cancelled

    # -- observation ---------------------------------------------------------

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> Optional[ConsistencyReport]:
        """Block until the job completes; None on timeout."""
        if not self._done.wait(timeout):
            return None
        return self._report

    def status(self) -> VerifyStatus:
        with self._lock:
            completed = len(self._results)
            cancelled = self._cancelled
            report = self._report
        if not self._done.is_set():
            return VerifyStatus(
                state="running",
                total_segments=self.total_segments,
                completed_segments=completed,
                cancelled_segments=cancelled,
                unverifiable_segments=self.unverifiable_segments,
                wall_seconds=time.perf_counter() - self.started,
            )
        assert report is not None
        state = "cancelled" if self.superseded else report.verdict
        return VerifyStatus(
            state=state,
            total_segments=self.total_segments,
            completed_segments=completed,
            cancelled_segments=cancelled,
            unverifiable_segments=self.unverifiable_segments,
            # Cancelled or unverifiable: nothing is known either way.
            consistent=(
                None if state in ("cancelled", "unverifiable")
                else report.all_consistent
            ),
            divergence_cycle=report.divergence_cycle,
            error=report.errors[0] if report.errors else None,
            wall_seconds=report.wall_seconds,
        )

    # -- collection (runs on the collector thread) ---------------------------

    def _collect(self, pool: VerifierPool, on_complete) -> None:
        for future in as_completed(list(self._futures)):
            try:
                result, pid = future.result()
            except CancelledError:
                continue  # counted when cancel() revoked it
            except Exception as exc:  # worker died / testbench raised
                with self._lock:
                    self._errors.append(f"{type(exc).__name__}: {exc}")
                obs.incr("consistency.worker_errors")
                continue
            result.worker = pool.worker_index(pid)
            _note_segment_result(result)
            with self._lock:
                self._results.append(result)
        self._finish(on_complete)

    def _finish(self, on_complete) -> None:
        with self._lock:
            results = sorted(self._results, key=lambda r: r.index)
            report = ConsistencyReport(
                segments=results,
                workers=self.workers,
                wall_seconds=time.perf_counter() - self.started,
                cancelled_segments=self._cancelled,
                status="cancelled" if self.superseded else "complete",
                unverifiable_segments=self.unverifiable_segments,
                errors=self._errors,
            )
            self._report = report
        obs.record(
            "consistency.background",
            int(report.wall_seconds * 1e9),
            segments=len(results),
            cancelled=report.cancelled_segments,
        )
        obs.incr("consistency.segments_verified", len(results))
        divergent = sum(1 for s in results if not s.consistent)
        if divergent:
            obs.incr("consistency.divergences", divergent)
        try:
            if on_complete is not None:
                on_complete(self, report)
        except Exception as exc:  # acting on the verdict failed: say so
            report.errors.append(
                f"on_complete: {type(exc).__name__}: {exc}"
            )
            obs.incr("consistency.callback_errors")
        finally:
            self._done.set()


class BackgroundVerifier:
    """Streams a verification through a :class:`VerifierPool` without
    blocking the caller (§III-F's "re-verified in the background")."""

    def __init__(self, pool: VerifierPool):
        self._pool = pool

    def start(
        self,
        checkpoints: Sequence[Checkpoint],
        ops: Sequence[SessionOp],
        context: WorkerContext,
        on_complete=None,
        label: str = "verify",
    ) -> VerifyJob:
        """Submit every verifiable delta and return immediately.

        ``on_complete(job, report)`` fires on a collector thread once
        all segments completed or were cancelled.
        """
        segments, unverifiable = ConsistencyChecker.make_segments(
            checkpoints, ops
        )
        job = VerifyJob(len(segments), self._pool.workers, unverifiable)
        obs.incr("consistency.background_jobs")
        if not segments:
            job._finish(on_complete)
            return job
        job._futures = self._pool.submit_segments(context, ops, segments)
        thread = threading.Thread(
            target=job._collect,
            args=(self._pool, on_complete),
            name=f"livesim-{label}",
            daemon=True,
        )
        thread.start()
        return job


# -- worker-process side -----------------------------------------------------

# Per-process caches; populated lazily, survive across verify calls for
# as long as the pool keeps the worker alive.
_WORKER_DESIGNS: "Dict[str, Tuple[str, Dict]]" = {}
_WORKER_TESTBENCHES: Dict[Tuple, Testbench] = {}


def _cached_design(context: WorkerContext) -> Tuple[str, Dict, bool]:
    """(top key, compiled library, compiled-now flag) for the context's
    fingerprint, compiling at most once per fingerprint per worker."""
    from ..codegen.build import BuildConfig
    from ..codegen.pygen import compile_netlist
    from ..hdl.elaborate import elaborate
    from ..hdl.parser import parse

    fingerprint = context.fingerprint()
    entry = _WORKER_DESIGNS.get(fingerprint)
    if entry is not None:
        return entry[0], entry[1], False
    design = parse(context.source)
    netlist = elaborate(design, context.top, context.params)
    library = compile_netlist(
        netlist, BuildConfig(mux_style=context.mux_style)
    )
    while len(_WORKER_DESIGNS) >= WORKER_DESIGN_CACHE_SIZE:
        _WORKER_DESIGNS.pop(next(iter(_WORKER_DESIGNS)))
    _WORKER_DESIGNS[fingerprint] = (netlist.top, library)
    return netlist.top, library, True


def _cached_testbench(handle: str, factory_path: str, kwargs: Dict) -> Testbench:
    key = (handle, factory_path, repr(sorted(kwargs.items())))
    testbench = _WORKER_TESTBENCHES.get(key)
    if testbench is None:
        module_name, _, attr = factory_path.partition(":")
        factory = getattr(importlib.import_module(module_name), attr)
        testbench = factory(**kwargs)
        _WORKER_TESTBENCHES[key] = testbench
    return testbench


def _build_from_context(context: WorkerContext):
    """Build (build_pipe, tb_lookup, compiled) closures, serving the
    design and testbenches from the worker caches."""
    top_key, library, compiled = _cached_design(context)
    testbenches: Dict[str, Testbench] = {
        handle: _cached_testbench(handle, factory_path, kwargs)
        for handle, (factory_path, kwargs) in context.tb_specs.items()
    }

    def build_pipe() -> Pipe:
        return Pipe(top_key, library)

    def tb_lookup(handle: str) -> Testbench:
        testbench = testbenches.get(handle)
        if testbench is None:
            raise SimulationError(f"worker has no testbench {handle!r}")
        return testbench

    return build_pipe, tb_lookup, compiled


def _pool_verify_segment(
    context_payload: bytes, ops_payload: bytes, segment_payload: bytes
) -> Tuple[SegmentResult, int]:
    """Verify one segment inside a pool worker.

    Returns the result plus ``os.getpid()`` so the parent can attribute
    the work to the process that actually ran it (dynamic scheduling
    means submission order says nothing about worker identity).
    """
    context: WorkerContext = pickle.loads(context_payload)  # noqa: S301
    ops: List[SessionOp] = pickle.loads(ops_payload)  # noqa: S301
    segment: _Segment = pickle.loads(segment_payload)  # noqa: S301
    started = time.perf_counter()
    build_pipe, tb_lookup, compiled = _build_from_context(context)
    pipe = build_pipe()
    result = _run_segment(pipe, segment, ops, tb_lookup)
    result.seconds = time.perf_counter() - started
    result.compiled = compiled
    return result, os.getpid()
