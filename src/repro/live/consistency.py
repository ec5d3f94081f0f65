"""Checkpoint consistency verification (paper §III-F, Fig. 6).

After a code change the stored checkpoints — produced by the *old*
code — may no longer describe states the *new* code would reach.
Instead of re-running from cycle 0, LiveSim verifies checkpoint deltas
independently: for each interval ``[cp_k, cp_{k+1}]``, reload ``cp_k``
under the patched design, replay the recorded operations to
``cp_{k+1}``'s cycle, and compare the resulting state against the
stored ``cp_{k+1}`` (a stored checkpoint keeps the version it was taken
in; the session hands both over in the current version's names,
:mod:`repro.live.transform`).

Because every segment is independent, the work parallelizes across as
many cores as there are checkpoints.  When the checkpoints are not
consistent, the earliest divergent segment localizes where the
divergence occurred — "which may also be useful for debugging".

A verification is one thing, whoever asks for it and whether or not
they wait for it:

* :func:`make_segments` cuts the store into the deltas the recorded
  ops can replay.
* One :class:`VerifyJob` submits them.  Its :meth:`~VerifyJob.collect`
  is the only place that awaits a segment, catches one that died,
  builds the :class:`ConsistencyReport` and bumps the counters.  A
  blocking verify calls it on the caller's thread; a background verify
  gives it a thread of its own (§III-F: stored checkpoints are
  re-verified *in the background* while the user keeps simulating),
  and a superseding edit cancels the segments that have not started.
* A segment runs in one of two places, through :func:`_run_segment`
  both times: :class:`InProcess`, on the pipe's own compiled library
  and the session's testbenches, or the session's persistent
  :class:`VerifierPool`, whose workers each keep one
  :class:`~repro.live.compiler_live.LiveCompiler` in step with the
  session's text (:class:`_WorkerDesign`), build their own testbenches
  from factory specs and compile the plain flavour, so a background
  job shares no ``Testbench`` and no sanitizer runtime with the
  session thread.
"""

from __future__ import annotations

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
from ..codegen.build import BuildConfig
from ..sim.pipeline import Pipe
from ..sim.testbench import Testbench
from .checkpoint import Checkpoint
from .compiler_live import CompileResult, LiveCompiler
from .replay import SessionOp, recorded_from, replay_ops, rewind


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
    # Module specialisations the worker's LiveCompiler recompiled to
    # serve this segment: the whole design on a cold worker, the edited
    # module on the first segment after an edit, otherwise none.
    modules_compiled: int = 0

    @property
    def compiled(self) -> bool:
        """Handling this segment made the worker recompile something."""
        return self.modules_compiled > 0


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


def _run_segment(
    pipe: Pipe,
    segment: _Segment,
    ops: Sequence[SessionOp],
    tb_lookup: Callable[[str], Testbench],
) -> SegmentResult:
    """Replay one delta and compare final state to the stored end."""
    started = time.perf_counter()
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
        seconds=time.perf_counter() - started,
        detail=detail,
    )


def _ordered_union(first, second) -> List[str]:
    return list(first) + [name for name in second if name not in first]


def _describe_divergence(actual, expected, path: str = "top") -> str:
    # Registers/memories present in either side count: a name only in
    # `expected` means the replayed design dropped state (and vice
    # versa), which is exactly the divergence worth naming.  A memory
    # image is read as a sequence of words (`==` compares it by page).
    # A record is read by name through dicts built once here.
    regs_a, regs_b = actual.regs, expected.regs
    for name in _ordered_union(regs_a, regs_b):
        a = regs_a.get(name)
        b = regs_b.get(name)
        if a != b:
            return f"{path}.{name}: replayed={a} stored={b}"
    mems_a, mems_b = actual.mems, expected.mems
    for name in _ordered_union(mems_a, mems_b):
        a = mems_a.get(name)
        b = mems_b.get(name)
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


# -- the two places a segment runs -------------------------------------------


@dataclass
class WorkerContext:
    """Everything a pool worker needs to rebuild the simulator.

    ``build`` is the flavour the worker compiles: the session's, minus
    the sanitizer and the optimiser.  ``tb_specs`` maps testbench
    handle -> ("package.module:factory", kwargs); the factory is
    imported and called in the worker to recreate the testbench.
    Factories must build replay-safe testbenches (stimulus a pure
    function of the rebased cycle) — workers keep them across verify
    calls.
    """

    source: str
    top: str
    params: Dict[str, int]
    build: BuildConfig
    tb_specs: Dict[str, Tuple[str, Dict]]


class InProcess:
    """Runs a segment where it is submitted: on the calling thread, a
    fresh pipe on the session's own compiled library, the session's own
    testbenches.  What ``workers=1`` gets, and a history some testbench
    of which no worker could rebuild."""

    workers = 1

    def __init__(
        self,
        build_pipe: Callable[[], Pipe],
        tb_lookup: Callable[[str], Testbench],
    ):
        self._build_pipe = build_pipe
        self._tb_lookup = tb_lookup

    def submit_segments(
        self,
        context: None,
        ops: Sequence[SessionOp],
        segments: Sequence[_Segment],
    ) -> List[Future]:
        """One settled future per segment; like an executor's, it holds
        what the segment raised instead of raising it here."""
        futures: List[Future] = []
        for segment in segments:
            future: Future = Future()
            try:
                result = _run_segment(
                    self._build_pipe(), segment, ops, self._tb_lookup
                )
                future.set_result((result, None))
            except Exception as exc:  # collect() reports it
                future.set_exception(exc)
            futures.append(future)
        return futures


class VerifierPool:
    """A process pool that outlives individual verify calls.

    The executor is created lazily on first submit and reused until
    :meth:`shutdown`.  Keeping the workers alive is
    what keeps their compilers warm: a verify after an edit ships only
    the context (cheap) and each worker recompiles what the edit
    touched, instead of every verify paying a process spawn plus a
    from-scratch compile per worker.
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

    def shutdown(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
            self._worker_indices.clear()
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)


# -- the one job -------------------------------------------------------------


class VerifyJob:
    """One verification of a checkpoint history.

    Construction cuts the history into segments and submits them to
    ``place`` (an :class:`InProcess` or a :class:`VerifierPool`, which
    needs the :class:`WorkerContext`); :meth:`collect` awaits them and
    builds the report.  ``on_complete(job, report)`` fires at the end
    of ``collect``, on the thread that runs it.
    """

    def __init__(
        self,
        checkpoints: Sequence[Checkpoint],
        ops: Sequence[SessionOp],
        place,
        context: Optional[WorkerContext] = None,
        on_complete=None,
    ):
        segments, unverifiable = make_segments(checkpoints, ops)
        self.total_segments = len(segments)
        self.unverifiable_segments = unverifiable
        self.workers = place.workers
        self.started = time.perf_counter()
        self.superseded = False
        self._place = place
        self._on_complete = on_complete
        self._results: List[SegmentResult] = []
        self._cancelled = 0
        self._errors: List[str] = []
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._report: Optional[ConsistencyReport] = None
        self._futures: List[Future] = (
            place.submit_segments(context, ops, segments) if segments else []
        )

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
        done = self._done.is_set()  # read first: set after the report
        with self._lock:
            status = VerifyStatus(
                state="running",
                total_segments=self.total_segments,
                completed_segments=len(self._results),
                cancelled_segments=self._cancelled,
                unverifiable_segments=self.unverifiable_segments,
                wall_seconds=time.perf_counter() - self.started,
            )
            report = self._report
        if done:
            status.state = "cancelled" if self.superseded else report.verdict
            # Cancelled or unverifiable: nothing is known either way.
            if status.state not in ("cancelled", "unverifiable"):
                status.consistent = report.all_consistent
            status.divergence_cycle = report.divergence_cycle
            status.error = report.errors[0] if report.errors else None
            status.wall_seconds = report.wall_seconds
        return status

    # -- collection ----------------------------------------------------------

    def collect(self) -> ConsistencyReport:
        """Await every segment, build the report, fire ``on_complete``.

        Runs once per job: on the caller's thread for a blocking
        verify, on a thread of its own for a background one.
        """
        for future in as_completed(self._futures):
            try:
                result, pid = future.result()
            except CancelledError:
                continue  # counted when cancel() revoked it
            except Exception as exc:  # worker died / testbench raised
                with self._lock:
                    self._errors.append(f"{type(exc).__name__}: {exc}")
                obs.incr("consistency.worker_errors")
                continue
            if pid is not None:  # a pool worker ran it
                result.worker = self._place.worker_index(pid)
                obs.incr(
                    "consistency.worker_compiles" if result.compiled
                    else "consistency.worker_cache_hits"
                )
                obs.incr(
                    "consistency.worker_modules_compiled",
                    result.modules_compiled,
                )
            obs.record(
                "consistency.segment",
                int(result.seconds * 1e9),
                index=result.index,
                worker=result.worker,
            )
            with self._lock:
                self._results.append(result)
        with self._lock:
            report = self._report = ConsistencyReport(
                segments=sorted(self._results, key=lambda r: r.index),
                workers=self.workers,
                wall_seconds=time.perf_counter() - self.started,
                cancelled_segments=self._cancelled,
                status="cancelled" if self.superseded else "complete",
                unverifiable_segments=self.unverifiable_segments,
                errors=self._errors,
            )
        obs.record(
            "consistency.verify",
            int(report.wall_seconds * 1e9),
            workers=report.workers,
            segments=len(report.segments),
            cancelled=report.cancelled_segments,
        )
        obs.incr("consistency.segments_verified", len(report.segments))
        divergent = sum(1 for s in report.segments if not s.consistent)
        if divergent:
            obs.incr("consistency.divergences", divergent)
        try:
            if self._on_complete is not None:
                self._on_complete(self, report)
        except Exception as exc:  # acting on the verdict failed: say so
            report.errors.append(
                f"on_complete: {type(exc).__name__}: {exc}"
            )
            obs.incr("consistency.callback_errors")
        finally:
            self._done.set()
        return report


# -- worker side -------------------------------------------------------------


class _WorkerDesign:
    """A worker's copy of the session's design: one
    :class:`LiveCompiler` that follows the session's text edit by edit.

    One per process.  A pool of processes gives every worker its own; a
    pool of threads shares the hosting process's, hence the lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._compiler: Optional[LiveCompiler] = None
        # The last compile_top and the (top, params) it was of, while
        # it still describes the compiler's source and build.
        self._result: Optional[CompileResult] = None
        self._which: Optional[Tuple] = None

    def compiled(self, context: WorkerContext) -> Tuple[CompileResult, int]:
        """``context``'s design compiled, and how many module
        specialisations this call had to recompile for it."""
        which = (context.top, tuple(sorted(context.params.items())))
        with self._lock:
            compiler = self._compiler
            if compiler is None:
                compiler = self._compiler = LiveCompiler(
                    context.source, context.build
                )
            else:
                if compiler.build != context.build:
                    compiler.build = context.build
                    self._result = None
                if (
                    compiler.source != context.source
                    and compiler.update_source(context.source).behavioral
                ):
                    self._result = None
            if self._result is not None and self._which == which:
                return self._result, 0
            self._result = None  # stays so if the compile raises
            self._result = compiler.compile_top(context.top, context.params)
            self._which = which
            return self._result, len(self._result.report.recompiled_keys)


# Per-process worker state; populated lazily, lives for as long as the
# pool keeps the worker alive.
_WORKER_DESIGN = _WorkerDesign()
_WORKER_TESTBENCHES: Dict[Tuple, Testbench] = {}


def _cached_testbench(handle: str, factory_path: str, kwargs: Dict) -> Testbench:
    key = (handle, factory_path, repr(sorted(kwargs.items())))
    testbench = _WORKER_TESTBENCHES.get(key)
    if testbench is None:
        module_name, _, attr = factory_path.partition(":")
        factory = getattr(importlib.import_module(module_name), attr)
        testbench = factory(**kwargs)
        _WORKER_TESTBENCHES[key] = testbench
    return testbench


def _pool_verify_segment(
    context_payload: bytes, ops_payload: bytes, segment_payload: bytes
) -> Tuple[SegmentResult, int]:
    """Verify one segment inside a pool worker.

    Returns the result plus ``os.getpid()`` so the parent can attribute
    the work to the process that actually ran it (dynamic scheduling
    means submission order says nothing about worker identity).
    """
    # Bytes the parent process pickled a moment ago and handed over the
    # pool's pipe, never a file: the one unpickling that is not sealed.
    context: WorkerContext = pickle.loads(context_payload)  # noqa: S301
    ops: List[SessionOp] = pickle.loads(ops_payload)  # noqa: S301
    segment: _Segment = pickle.loads(segment_payload)  # noqa: S301
    started = time.perf_counter()
    compiled, recompiled = _WORKER_DESIGN.compiled(context)
    result = _run_segment(
        Pipe(compiled.netlist.top, compiled.library),
        segment,
        ops,
        lambda handle: _cached_testbench(handle, *context.tb_specs[handle]),
    )
    result.seconds = time.perf_counter() - started  # the compile counts
    result.modules_compiled = recompiled
    return result, os.getpid()
