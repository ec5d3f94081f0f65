"""LiveSession: the user-facing live simulation environment (§III-B).

Implements the paper's Table I command set::

    ldLib name, source          load a library (LHDL source text)
    instPipe name, pipe-handle  instantiate a pipeline
    instStage pipe, name, hdl   bind a stage name inside a pipeline
    copyPipe new, old           duplicate a pipeline including state
    run tb, pipe, cycles        run a testbench on a pipe
    chkp pipe [, path]          take (and optionally save) a checkpoint
    ldch pipe, path             load a checkpoint into a pipeline
    swapStage pipe, name, hdl   replace a stage with a new instance

plus the live entry point :meth:`apply_change`, which executes the full
edit-run-debug loop: LiveParser -> LiveCompiler -> hot reload ->
checkpoint reload -> replay — the under-2-seconds path of Figs. 7/8.
Its §III-F backstop is a separate step, :meth:`verify_consistency` /
:meth:`verify_background`: one
:class:`~repro.live.consistency.VerifyJob` either way, its segments run
in process or on the session's persistent worker pool.

Every per-pipe fact (the pipe, its checkpoints, ops, trace, accepted
findings and background verification) lives in the pipe's one row of
the Pipeline Table, and every compile reaches a pipe through
:meth:`_PipeSession.land`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .. import obs
from ..analyze import (
    AnalysisReport,
    Analyzer,
    Diagnostic,
    evaluate_gate,
    sort_diagnostics,
)
from ..codegen.build import OPT_LEVELS, BuildConfig
from ..hdl.errors import HDLError, SimulationError
from ..hdl.source_regions import splice_modules
from ..sanitize import SANITIZE_MODES, SanitizerRuntime
from ..sim.pipeline import Pipe, PipeSnapshot
from ..sim.testbench import Testbench
from .checkpoint import Checkpoint, CheckpointStore
from .compiler_live import CompileResult, LiveCompiler
from .hotreload import HotReloader, SwapReport
from .replay import SessionOp, ops_until, recorded_from, replay_ops, rewind
from .tables import (
    STAGE,
    TESTBENCH,
    ObjectEntry,
    ObjectLibraryTable,
    PipelineTable,
    StageTable,
)
from .transform import (
    RegisterTransform,
    RegisterTransformHistory,
    guess_transforms,
    translate_snapshot,
)

if TYPE_CHECKING:
    from ..trace import TraceBuffer
    from .consistency import (
        ConsistencyReport,
        VerifierPool,
        VerifyJob,
        VerifyStatus,
    )


def _build(base: BuildConfig, **changes) -> BuildConfig:
    """``base`` with ``changes``; an invalid value is the session's
    error type, not :class:`BuildConfig`'s ``ValueError``."""
    try:
        return replace(base, **changes)
    except ValueError as exc:
        raise SimulationError(str(exc)) from None


def _consistency():
    """:mod:`repro.live.consistency`, imported by the first verify."""
    from . import consistency

    return consistency


@dataclass
class ERDReport:
    """Timing breakdown of one edit-run-debug iteration (Fig. 8)."""

    behavioral: bool
    version: str
    parse_seconds: float = 0.0
    compile_seconds: float = 0.0
    swap_seconds: float = 0.0
    reload_seconds: float = 0.0
    replay_seconds: float = 0.0
    cycles_replayed: int = 0
    checkpoint_cycle: Optional[int] = None
    recompiled_keys: List[str] = field(default_factory=list)
    reused_keys: List[str] = field(default_factory=list)
    swapped_instances: int = 0
    pipes_updated: List[str] = field(default_factory=list)
    # Static analysis over the post-edit design (repro.analyze):
    # findings, cache accounting, and whether the gate was overridden.
    analyze_seconds: float = 0.0
    analyzed_keys: List[str] = field(default_factory=list)
    analysis_reused_keys: List[str] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)
    new_findings: List[Diagnostic] = field(default_factory=list)
    gate_overridden: bool = False
    # Whether this iteration compiled instrumented code.  The flag is
    # session-wide, so it holds for every key in recompiled/reused_keys.
    sanitize: bool = False
    # Pass-framework accounting (repro.passes): the active opt level
    # and, per optimization pass, which spec keys were recomputed vs
    # served from the pass's fingerprint cache this iteration.  A hot
    # reload under opt should recompute only the dirty module's passes.
    opt: str = "none"
    pass_computed_keys: Dict[str, List[str]] = field(default_factory=dict)
    pass_reused_keys: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return (
            self.parse_seconds
            + self.compile_seconds
            + self.analyze_seconds
            + self.swap_seconds
            + self.reload_seconds
            + self.replay_seconds
        )

    @property
    def within_two_seconds(self) -> bool:
        """The paper's responsiveness goal (§I)."""
        return self.total_seconds < 2.0


def _merge_diagnostics(
    into: List[Diagnostic], more: List[Diagnostic]
) -> List[Diagnostic]:
    """Append to ``into`` each of ``more`` it does not already hold
    (same identity, same line); returns the ones appended."""
    seen = {(d.identity(), d.line) for d in into}
    added = []
    for diag in more:
        if (diag.identity(), diag.line) not in seen:
            seen.add((diag.identity(), diag.line))
            added.append(diag)
    into.extend(added)
    return added


@dataclass
class _PipeSession:
    """One row of the session's Pipeline Table: an instantiated
    pipeline and its timeline.  The live pipe, the compile it runs, the
    checkpoints taken along the way, the recorded ops that connect
    them, the trace attached to the pipe, the findings the gate has
    accepted for it and its latest background verification.

    A checkpoint in ``store`` keeps the design version it was taken
    in, whatever edits come after.  Every restore reads it through
    :meth:`LiveSession.in_current_version`, which translates it into
    the session's current names when an edit since changed a register.
    """

    name: str
    handle: str
    module: str
    params: Dict[str, int]
    pipe: Pipe
    store: CheckpointStore
    compile_result: CompileResult
    ops: List[SessionOp] = field(default_factory=list)
    trace: Optional[TraceBuffer] = None
    # The gate blocks only findings new relative to these (seeded at
    # instPipe, replaced by every edit that lands).
    baseline: List[Diagnostic] = field(default_factory=list)
    verify_job: Optional[VerifyJob] = None

    def land(self, result: CompileResult, swap) -> SwapReport:
        """Move the pipe onto ``result``: the one path by which a
        compile reaches a pipe.  ``swap(pipe, library)`` replaces its
        instances; then the row records what the pipe runs and the
        trace re-resolves every probe by name (the swap may have
        renamed, resized or removed watched signals; vanished ones are
        marked missing, never fatal)."""
        report = swap(self.pipe, result.library)
        self.compile_result = result
        if self.trace is not None:
            self.trace.rebind(self.pipe)
        return report

    def base(self, cycle: int, distance: int = 0) -> Optional[Checkpoint]:
        """Where to :func:`~repro.live.replay.rewind` to so that
        replaying the recorded ops reaches ``cycle``: the stored
        checkpoint closest to ``cycle - distance`` among those the ops
        lead on from without a gap, or None for power-on when they
        reach back to cycle 0.

        Raises :class:`SimulationError` when neither exists: cycles
        before ``cycle`` were never recorded (stepped behind the
        session's back, or run before a migration, which carries
        checkpoints but not run history) and no checkpoint lies past
        them.
        """
        pick = self.store.reload_candidate(cycle, distance)
        floor = pick.cycle if pick is not None else 0
        recorded = recorded_from(self.ops, cycle, floor)
        if recorded > floor:
            pick = self.store.reload_candidate(cycle, distance, recorded)
            if pick is None:
                gap = max(
                    (op.end_cycle for op in self.ops
                     if op.end_cycle < recorded),
                    default=0,
                )
                raise SimulationError(
                    f"pipe {self.name!r} cannot be rewound to replay to "
                    f"cycle {cycle}: cycles {gap}..{recorded - 1} were "
                    "never recorded and there is no checkpoint in "
                    f"{recorded}..{cycle}"
                )
        return pick


class LiveSession:
    """One live development session over a single evolving design."""

    def __init__(
        self,
        source: str,
        checkpoint_interval: int = 10_000,
        reload_distance: int = 10_000,
        artifact_store=None,
        sanitize: str = "off",
        opt: str = "none",
    ):
        if sanitize not in SANITIZE_MODES:
            raise SimulationError(
                f"unknown sanitize mode {sanitize!r}; expected one of "
                f"{SANITIZE_MODES}"
            )
        # Refused before anything compiles: the first instPipe or edit
        # would otherwise fail (or replay nothing) long after set-up.
        if checkpoint_interval <= 0:
            raise SimulationError("checkpoint interval must be positive")
        if reload_distance < 0:
            raise SimulationError("reload distance must not be negative")
        # One runtime per session, forever: instrumented code exec'd at
        # any point binds this exact object, so mode flips are live in
        # already-compiled modules.
        self.sanitize_runtime = SanitizerRuntime(mode=sanitize)
        self.compiler = LiveCompiler(
            source,
            build=_build(
                BuildConfig(), sanitize=sanitize != "off", opt=opt
            ),
            store=artifact_store,
            sanitize_runtime=self.sanitize_runtime,
        )
        self.analyzer = Analyzer(cache=self.compiler.cache)
        self.objects = ObjectLibraryTable()
        self.pipelines = PipelineTable()
        self.stages = StageTable(self.pipelines)
        self.history = RegisterTransformHistory()
        self.version = self.history.root
        self.checkpoint_interval = checkpoint_interval
        self.reload_distance = reload_distance
        self._testbenches: Dict[str, Testbench] = {}
        self._tb_specs: Dict[str, Tuple[str, Dict]] = {}
        self._version_counter = 0
        self._verifier_pool: Optional[VerifierPool] = None
        self._register_source_modules("design")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut down the verification subsystem (jobs + worker pool).

        Safe to call multiple times; the session stays usable for
        simulation, and the pool respawns on the next parallel verify.
        """
        for name in self.pipelines.names():
            self.cancel_verify(name)
        if self._verifier_pool is not None:
            self._verifier_pool.shutdown()

    def __enter__(self) -> "LiveSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Table I commands
    # ------------------------------------------------------------------

    def ld_lib(self, name: str, source: Optional[str] = None) -> List[str]:
        """``ldLib`` — register the stage objects found in a library.

        With ``source``, the text is merged into the session design
        first: new modules are appended, a module it redefines replaces
        the old definition in place, so the session text always parses
        from scratch.  Redefining a module while pipes exist *is* an
        edit and goes through :meth:`apply_change` (compile, gate, swap,
        replay, or roll back whole); a library that only adds modules
        is a source update and replays nothing.  Returns the handles
        added.
        """
        if source is not None:
            merged = splice_modules(self.compiler.source, source)
            diff = (self.compiler.parser.analyze(merged)
                    if self.pipelines else None)
            if diff is not None and (
                    diff.changed_modules or diff.poisoned_modules):
                self.apply_change(merged)
            else:
                self.compiler.update_source(merged)
        return self._register_source_modules(name)

    def _register_source_modules(self, lib_name: str) -> List[str]:
        added = []
        known = {
            entry.payload for entry in self.objects.by_type(STAGE)
        }
        for module_name in sorted(self.compiler.design.modules):
            if module_name in known:
                continue
            handle = self.objects.fresh_handle(STAGE)
            self.objects.add(
                ObjectEntry(
                    handle=handle,
                    obj_type=STAGE,
                    code_path=f"{lib_name}.v#{module_name}",
                    object_path=f"<livesim>/{lib_name}#{module_name}",
                    payload=module_name,
                )
            )
            added.append(handle)
        return added

    def load_testbench(
        self,
        testbench: Testbench,
        factory: Optional[Tuple[str, Dict]] = None,
    ) -> str:
        """Register a testbench object; returns its handle.

        ``factory`` is an optional ``("pkg.module:callable", kwargs)``
        spec letting process-parallel consistency workers rebuild the
        testbench in a fresh interpreter.
        """
        handle = self.objects.fresh_handle(TESTBENCH)
        self.objects.add(
            ObjectEntry(
                handle=handle,
                obj_type=TESTBENCH,
                code_path=f"<python>#{type(testbench).__name__}",
                object_path=f"<livesim>/tb#{handle}",
                payload=testbench,
            )
        )
        self._testbenches[handle] = testbench
        if factory is not None:
            self._tb_specs[handle] = factory
        return handle

    def stage_handle_for(self, module_name: str) -> str:
        for entry in self.objects.by_type(STAGE):
            if entry.payload == module_name:
                return entry.handle
        raise SimulationError(f"no stage handle for module {module_name!r}")

    def inst_pipe(
        self,
        name: str,
        stage_handle: str,
        params: Optional[Dict[str, int]] = None,
    ) -> Pipe:
        """``instPipe`` — instantiate a pipeline from a stage handle.
        A taken name is refused before anything is compiled."""
        self.pipelines.require_free(name)
        entry = self.objects.get(stage_handle)
        if entry.obj_type != STAGE:
            raise SimulationError(f"{stage_handle!r} is not a stage handle")
        module = str(entry.payload)
        result = self.compiler.compile_top(module, params)
        pipe = Pipe(result.netlist.top, result.library, name=name)
        # Findings present at instantiation are accepted and never
        # block a later edit.
        analysis = self.analyzer.analyze_netlist(
            result.netlist, self.compiler.parser
        )
        self._add_row(_PipeSession(
            name=name,
            handle=stage_handle,
            module=module,
            params=dict(params or {}),
            pipe=pipe,
            store=CheckpointStore(interval=self.checkpoint_interval),
            compile_result=result,
            baseline=list(analysis.diagnostics),
        ))
        return pipe

    def _add_row(self, row: _PipeSession) -> None:
        """Enter ``row`` in the Pipeline Table and its stages in the
        Stage Table."""
        self.pipelines.add(row)
        for path, inst in row.pipe.top.walk(prefix=""):
            stage_path = path[len("top") :].lstrip(".")
            module_name = inst.code.name
            try:
                handle = self.stage_handle_for(module_name)
            except SimulationError:
                handle = module_name
            self.stages.register(row.name, stage_path, handle)

    def inst_stage(
        self, pipe_name: str, stage_name: str, stage_handle: str
    ) -> None:
        """``instStage`` — bind a session stage name to a hierarchy path.

        In this reproduction the pipeline's structure comes from the
        compiled RTL, so instStage registers an existing hierarchical
        stage under a session name rather than creating new hardware.
        """
        self.stages.resolve(pipe_name, stage_name)  # validates the path
        self.stages.register(pipe_name, stage_name, stage_handle)

    def copy_pipe(self, new_name: str, old_name: str) -> Pipe:
        """``copyPipe`` — duplicate a pipeline including its state and
        history (not its checkpoints, trace or verification).  A taken
        name is refused before anything is copied."""
        self.pipelines.require_free(new_name)
        old = self.timeline(old_name)
        row = replace(
            old,
            name=new_name,
            params=dict(old.params),
            pipe=old.pipe.copy(name=new_name),
            store=CheckpointStore(interval=self.checkpoint_interval),
            ops=list(old.ops),
            trace=None,
            baseline=list(old.baseline),
            verify_job=None,
        )
        self._add_row(row)
        return row.pipe

    def run(self, tb_handle: str, pipe_name: str, cycles: int) -> Dict[str, int]:
        """``run`` — apply a testbench for N cycles, recording history
        and taking checkpoints at the configured cadence.

        The cycles that ran are recorded however the run ends, so an
        exception (the testbench's, or an interrupt) leaves a history
        that reaches the pipe; an edge it tore is mended through that
        history (:meth:`_mend`) before the exception goes on."""
        session = self.timeline(pipe_name)
        testbench = self.testbench(tb_handle)
        pipe = session.pipe
        start_cycle = pipe.cycle
        testbench.rebase(start_cycle)
        target = start_cycle + cycles
        try:
            while pipe.cycle < target:
                chunk = min(session.store.interval, target - pipe.cycle)
                ran = testbench.run(pipe, chunk)
                session.store.maybe_take(pipe, self.version, len(session.ops))
                if ran == 0:
                    break  # testbench stopped itself
        finally:
            if pipe.cycle > start_cycle:
                # The registered handle, not the caller's copy of its
                # text: every op of a testbench shares one string.
                session.ops.append(SessionOp(
                    self.objects.get(tb_handle).handle, start_cycle, pipe.cycle
                ))
            if pipe.torn is not None:  # mended from where an edit would replay
                self._mend(session, session.base(pipe.torn, self.reload_distance))
        return dict(pipe.outputs())  # a copy: the pipe's is its cache

    def _mend(self, row: _PipeSession, base: Optional[Checkpoint]) -> None:
        """Put a torn pipe back at the cycle its interrupted edge started
        from, through the one rewind path: ``base``, the rewind, the
        recorded ops.  History past that cycle (an edit's replay that
        was cut short) is dropped with the checkpoints in it, as
        ``ldch`` drops it: the pipe writes new history from there."""
        cycle = row.pipe.torn
        row.ops = ops_until(row.ops, cycle)
        row.store.invalidate_after(cycle)
        rewind(row.pipe, self.in_current_version(base))
        replay_ops(row.pipe, row.ops, cycle, self.testbench)

    def chkp(self, pipe_name: str, path: Optional[str] = None):
        """``chkp`` — take a checkpoint now (optionally persist all)."""
        session = self.timeline(pipe_name)
        checkpoint = session.store.take(
            session.pipe, self.version, len(session.ops)
        )
        if path is not None:
            session.store.save(path)
        return checkpoint

    def ldch(self, pipe_name: str, checkpoint_or_path) -> None:
        """``ldch`` — load a checkpoint's state into a pipeline.

        A path rewinds to the newest checkpoint in the file.  History
        recorded after the checkpoint's cycle is truncated: the user is
        rewinding and will write new history from there.
        """
        session = self.timeline(pipe_name)
        if isinstance(checkpoint_or_path, str):
            store = CheckpointStore(interval=session.store.interval)
            store.load(checkpoint_or_path)
            loaded = store.all()
            if not loaded:
                raise SimulationError("checkpoint file holds no checkpoints")
        else:
            loaded = [checkpoint_or_path]
        # What comes in keeps the version it was taken in.  One the
        # history cannot translate into the current version (another
        # branch, a version it never had) is refused here, before the
        # pipe is touched, not by some later restore.
        for version in {c.version for c in loaded}:
            self.history.path(version, self.version)
        # Rewinding rewrites the history the verifier is replaying.
        self.cancel_verify(pipe_name)
        checkpoint = loaded[-1]
        rewind(session.pipe, self.in_current_version(checkpoint))
        # Truncate history at the rewind point; an op spanning it is
        # trimmed (its earlier cycles really happened and still back
        # the surviving checkpoints).  Checkpoints from the abandoned
        # future go too — the user is about to write a new one.
        session.store.invalidate_after(checkpoint.cycle)
        # The store adopts the rewind point and, from a file, the older
        # checkpoints with it: a rehydrated session (whose own store
        # starts empty) has a base where it stands and can still
        # time-travel to the cycles before.
        session.store.adopt(loaded)
        session.ops = ops_until(session.ops, checkpoint.cycle)

    def swap_stage(self, pipe_name: str, stage_path: str) -> SwapReport:
        """``swapStage`` — swap one stage subtree to the latest compile.

        Normally :meth:`apply_change` swaps whole pipes; this is the
        targeted variant for interface-compatible single-stage swaps.
        """
        row = self.timeline(pipe_name)
        return row.land(
            self.compiler.compile_top(row.module, row.params),
            lambda pipe, library: HotReloader().swap_stage(
                pipe, stage_path, library
            ),
        )

    # ------------------------------------------------------------------
    # The live loop
    # ------------------------------------------------------------------

    def apply_change(
        self,
        new_source: str,
        transforms: Optional[Dict[str, RegisterTransform]] = None,
        override_gate: bool = False,
    ) -> ERDReport:
        """Execute one edit-run-debug iteration.

        1. LiveParser decides whether the edit changes behaviour.
        2. LiveCompiler recompiles only the affected specializations.
        3. Every pipe is hot reloaded (state migrated via register
           transforms — an explicit entry in ``transforms`` overrides
           the guess for its module; every other module is guessed).
        4. Each pipe reloads the checkpoint nearest ``reload_distance``
           cycles before its stop point and replays history to where it
           was, producing the fast estimate the user sees.

        Stored checkpoints keep the version they were taken in; the
        base is read in the new version's names, one translation per
        pipe.  The paper's backend refinement (§III-F) is a separate step:
        :meth:`verify_consistency` or :meth:`verify_background`.  The
        edit cancels any verification in flight, whose verdict would
        describe the old design.

        Between compile and swap the static analyzer
        (:mod:`repro.analyze`) runs over every pipe's new netlist —
        fingerprint-cached, so only edited modules are re-analyzed —
        and :func:`~repro.analyze.evaluate_gate` refuses the swap when
        the edit introduces a new error-class finding
        (e.g. a combinational loop).  A refusal raises
        :class:`~repro.analyze.GateBlockedError` and rolls back exactly
        like a compile failure; ``override_gate=True`` forces the swap
        through and re-baselines the accepted findings.

        The change is transactional: if any pipe's recompile fails
        (syntax error, elaboration error, a deleted-but-instantiated
        module), the session's source and every pipe are left exactly
        as they were.
        """
        with obs.span("live.apply_change", version=self.version):
            return self._apply_change(new_source, transforms, override_gate)

    def _apply_change(
        self,
        new_source: str,
        transforms: Optional[Dict[str, RegisterTransform]],
        override_gate: bool,
    ) -> ERDReport:
        old_source = self.compiler.source
        with obs.timed("live.update_source") as parsed:
            parse_result = self.compiler.update_source(new_source)
        report = ERDReport(
            behavioral=parse_result.behavioral,
            version=self.version,
            sanitize=self.compiler.build.sanitize,
            opt=self.compiler.build.opt,
            parse_seconds=parsed.seconds,
        )
        obs.incr("live.apply_changes")
        if not parse_result.behavioral:
            obs.incr("live.non_behavioral_edits")
            return report

        # Phase 1: compile every pipe's top and choose every pipe's
        # rewind base before touching any state, so a failure rolls
        # back cleanly (and numbers no version: the journal a session
        # is rehydrated from holds only the edits that landed).
        compile_results: Dict[str, CompileResult] = {}
        analysis_results: Dict[str, AnalysisReport] = {}
        bases: Dict[str, Optional[Checkpoint]] = {}
        try:
            for row in self.pipelines:
                with obs.timed("live.compile_top", pipe=row.name) as compiled:
                    compile_results[row.name] = self.compiler.compile_top(
                        row.module, row.params
                    )
                report.compile_seconds += compiled.seconds
            # Static analysis + gate: still before any state is touched,
            # so a refused swap rolls back like a failed compile.
            self._analyze_and_gate(
                compile_results, analysis_results, report, override_gate
            )
            # A pipe whose history cannot be replayed to where it
            # stands refuses the edit here, not after the swap.
            with obs.timed("live.reload") as located:
                for row in self.pipelines:
                    bases[row.name] = row.base(
                        row.pipe.cycle, self.reload_distance
                    )
            report.reload_seconds += located.seconds
        except (HDLError, SimulationError):
            obs.incr("live.rolled_back_edits")
            self.compiler.update_source(old_source)
            raise

        # Every pipe's transforms are known before any pipe swaps, so
        # the new version enters the history here and each base crosses
        # into it in one translation.
        version_transforms: Dict[str, RegisterTransform] = dict(transforms or {})
        for row in self.pipelines:
            self._guess_version_transforms(
                row.compile_result, compile_results[row.name],
                version_transforms,
            )
        new_version = self._next_version()
        self.history.add_version(new_version, self.version, version_transforms)
        self.version = report.version = new_version

        # The edit supersedes any in-flight verification: its verdict
        # would describe the *old* design.
        for name in self.pipelines.names():
            self.cancel_verify(name)

        # Phase 2: swap, reload, replay.  Sanitizer findings raised by
        # the replay (e.g. an uninit read of state this very edit
        # introduced) are collected from this high-water mark.
        san_mark = len(self.sanitize_runtime.findings)
        reloader = HotReloader(version_transforms)
        for row in self.pipelines:
            result = compile_results[row.name]
            report.recompiled_keys.extend(result.report.recompiled_keys)
            report.reused_keys.extend(result.report.reused_keys)
            for pass_name, keys in result.report.pass_computed.items():
                report.pass_computed_keys.setdefault(
                    pass_name, []
                ).extend(keys)
            for pass_name, keys in result.report.pass_reused.items():
                report.pass_reused_keys.setdefault(
                    pass_name, []
                ).extend(keys)

            stop_cycle = row.pipe.cycle
            swap = row.land(result, reloader.swap_pipe)
            report.swap_seconds += swap.seconds
            report.swapped_instances += swap.swapped_instances
            obs.incr("live.swapped_instances", swap.swapped_instances)

            # The replay below re-captures the rewound window under
            # the new design (trace subscribers see a rewind marker,
            # then the fresh values).
            with obs.timed("live.reload", pipe=row.name) as reloaded:
                base = self.in_current_version(bases[row.name])
                rewind(row.pipe, base)
                if base is not None:
                    report.checkpoint_cycle = base.cycle
                    obs.incr("live.checkpoint_reloads")
                else:
                    obs.incr("live.reset_reloads")
            report.reload_seconds += reloaded.seconds

            with obs.timed(
                "live.replay", pipe=row.name, stop_cycle=stop_cycle
            ) as replaying:
                try:
                    replayed = replay_ops(
                        row.pipe, row.ops, stop_cycle, self.testbench
                    )
                finally:
                    if row.pipe.torn is not None:
                        self._mend(row, bases[row.name])
            report.replay_seconds += replaying.seconds
            report.cycles_replayed += replayed
            obs.incr("live.cycles_replayed", replayed)
            report.pipes_updated.append(row.name)

        # Sanitizer findings surfaced during the replay join the static
        # diagnostics — one unified stream.
        fresh = self.sanitize_runtime.findings[san_mark:]
        if fresh:
            report.new_findings.extend(
                _merge_diagnostics(report.diagnostics, fresh)
            )
            report.diagnostics = sort_diagnostics(report.diagnostics)
        # The swap landed: its findings (including any forced through
        # with override_gate) and the replay's become the accepted
        # baseline, so the next edit's gate doesn't re-report them.
        for row in self.pipelines:
            row.baseline = analysis_results[row.name].diagnostics + fresh
        return report

    def _guess_version_transforms(
        self,
        old_result: CompileResult,
        new_result: CompileResult,
        out: Dict[str, RegisterTransform],
    ) -> None:
        for key, new_mod in new_result.library.items():
            old_mod = old_result.library.get(key)
            if old_mod is None or old_mod is new_mod:
                continue
            if new_mod.name in out:
                continue
            guessed = guess_transforms(old_mod.reg_widths, new_mod.reg_widths)
            if not guessed.is_identity():
                out[new_mod.name] = guessed

    # ------------------------------------------------------------------
    # Static analysis (repro.analyze)
    # ------------------------------------------------------------------

    def _analyze_and_gate(
        self,
        compile_results: Dict[str, CompileResult],
        analysis_results: Dict[str, AnalysisReport],
        report: ERDReport,
        override_gate: bool,
    ) -> None:
        """Analyze every pipe's new netlist and apply the gate.

        Raises :class:`~repro.analyze.GateBlockedError` (an
        :class:`HDLError`) when a new blocking finding appears and
        ``override_gate`` is False; the caller's rollback handles it.
        """
        for row in self.pipelines:
            analysis = self.analyzer.analyze_netlist(
                compile_results[row.name].netlist,
                self.compiler.parser,
            )
            analysis_results[row.name] = analysis
            report.analyze_seconds += analysis.seconds
            report.analyzed_keys.extend(analysis.analyzed_keys)
            report.analysis_reused_keys.extend(analysis.reused_keys)
            _merge_diagnostics(report.diagnostics, analysis.diagnostics)
            decision = evaluate_gate(
                row.baseline, analysis.diagnostics, override=override_gate
            )
            report.new_findings.extend(decision.new_findings)
            if decision.blocking and decision.overridden:
                report.gate_overridden = True
                obs.incr("analyze.gate_overrides")
            if not decision.allowed:
                obs.incr("analyze.gate_blocks")
                decision.raise_if_blocked()
        report.diagnostics = sort_diagnostics(report.diagnostics)

    def lint(self, pipe_name: Optional[str] = None) -> AnalysisReport:
        """Run the static analyzer over the current design.

        Analyzes one pipe's netlist, or every instantiated pipe when
        ``pipe_name`` is None.  Results come from the session's derived
        cache, so an unchanged design re-analyzes nothing
        (``reused_keys`` says so).
        """
        names = (
            [pipe_name] if pipe_name is not None
            else self.pipelines.names()
        )
        merged = AnalysisReport()
        for name in names:
            analysis = self.analyzer.analyze_netlist(
                self.timeline(name).compile_result.netlist,
                self.compiler.parser,
            )
            merged.top = merged.top or analysis.top
            merged.seconds += analysis.seconds
            merged.analyzed_keys.extend(analysis.analyzed_keys)
            merged.reused_keys.extend(analysis.reused_keys)
            _merge_diagnostics(merged.diagnostics, analysis.diagnostics)
        # Runtime sanitizer findings ride the same surface as the
        # static checks — one diagnostics stream for the user.
        _merge_diagnostics(merged.diagnostics, self.sanitize_runtime.findings)
        merged.diagnostics = sort_diagnostics(merged.diagnostics)
        return merged

    # ------------------------------------------------------------------
    # Build flavour: sanitizer (repro.sanitize), opt level (repro.passes)
    # ------------------------------------------------------------------

    def set_build(self, build: BuildConfig) -> Dict[str, List[str]]:
        """Recompile every pipe under ``build`` and hot swap the new
        libraries in, preserving all state.

        Every flavour's artifacts coexist in the compile cache, so
        returning to one already visited recompiles nothing.  All pipes
        compile before any is swapped, so a failed compile leaves the
        session as it was.
        """
        previous = self.compiler.build
        recompiled: List[str] = []
        swapped: List[str] = []
        if build != previous:
            with obs.span("build.toggle", sanitize=build.sanitize,
                          opt=build.opt):
                self.compiler.build = build
                try:
                    results = {
                        row.name: self.compiler.compile_top(
                            row.module, row.params
                        )
                        for row in self.pipelines
                    }
                except HDLError:
                    self.compiler.build = previous
                    raise
                reloader = HotReloader()
                for row in self.pipelines:
                    result = results[row.name]
                    recompiled.extend(result.report.recompiled_keys)
                    row.land(result, reloader.swap_pipe)
                    swapped.append(row.name)
        return {"recompiled_keys": recompiled, "swapped_pipes": swapped}

    def set_sanitize(self, mode: str) -> Dict[str, object]:
        """Switch the sanitizer mode for this session.

        ``report`` <-> ``trap`` is a pure runtime flip; crossing the
        ``off`` boundary is a :meth:`set_build`.
        """
        if mode not in SANITIZE_MODES:
            raise SimulationError(
                f"unknown sanitize mode {mode!r}; expected one of "
                f"{SANITIZE_MODES}"
            )
        previous = self.sanitize_mode
        result = self.set_build(
            _build(self.compiler.build, sanitize=mode != "off")
        )
        self.sanitize_runtime.mode = mode
        obs.incr("sanitize.toggles")
        return {"mode": mode, "previous": previous, **result}

    @property
    def sanitize_mode(self) -> str:
        return self.sanitize_runtime.mode

    def sanitize_status(self) -> Dict[str, object]:
        """Mode, per-check hit counters, and finding count."""
        status = self.sanitize_runtime.status()
        status["instrumented"] = self.compiler.build.sanitize
        return status

    def set_opt(self, level: str) -> Dict[str, object]:
        """Switch the optimization level: a :meth:`set_build`."""
        previous = self.compiler.build
        result = self.set_build(_build(previous, opt=level))
        obs.incr("opt.toggles")
        return {"level": level, "previous": previous.opt, **result}

    @property
    def opt(self) -> str:
        return self.compiler.build.opt

    def opt_status(self) -> Dict[str, object]:
        """Current level and the pipeline's pass order."""
        return {
            "level": self.compiler.build.opt,
            "levels": list(OPT_LEVELS),
            "passes": self.compiler.pipeline.order,
        }

    # ------------------------------------------------------------------
    # Live trace (repro.trace)
    # ------------------------------------------------------------------

    def trace_buffer(
        self, pipe_name: str, create: bool = False
    ) -> Optional[TraceBuffer]:
        """The pipe's attached trace buffer (created on demand with
        ``create=True``); None when the pipe has never been watched."""
        session = self.timeline(pipe_name)
        if session.trace is None and create:
            from ..trace import TraceBuffer  # loaded by the first buffer

            session.trace = TraceBuffer()
            session.pipe.attach_trace(session.trace)
        return session.trace

    def watch(self, pipe_name: str, signal: str) -> Dict[str, object]:
        """``watch`` — start capturing ``signal`` every cycle.

        Idempotent: watching an already-watched signal returns its
        current probe info, so journal replay and migration re-arms
        are harmless.  Raises when the signal does not exist in the
        *current* design (later reloads may mark it missing instead).
        """
        session = self.timeline(pipe_name)
        buffer = self.trace_buffer(pipe_name, create=True)
        probe = buffer.watch(session.pipe, signal)
        obs.incr("trace.watches")
        return {
            "pipe": pipe_name,
            "signal": probe.name,
            "width": probe.width,
            "missing": probe.missing,
            "capacity": buffer.capacity,
        }

    def unwatch(self, pipe_name: str, signal: str) -> Dict[str, object]:
        """``unwatch`` — drop the probe, its history, and any
        subscriptions narrowed to exactly this signal.  Session-wide:
        every client watching the signal stops receiving it."""
        buffer = self.trace_buffer(pipe_name)
        removed = buffer.unwatch(signal) if buffer is not None else False
        return {"pipe": pipe_name, "signal": signal, "removed": removed}

    def trace_status(self, pipe_name: str) -> Dict[str, object]:
        """Probe inventory + drop counters for one pipe."""
        buffer = self.trace_buffer(pipe_name)
        if buffer is None:  # an unwatched pipe: an empty buffer's status
            from ..trace import TraceBuffer

            buffer = TraceBuffer()
        status = buffer.status()
        status["pipe"] = pipe_name
        return status

    def trace_read(
        self,
        pipe_name: str,
        signal: str,
        start: Optional[int] = None,
        end: Optional[int] = None,
    ) -> Dict[str, object]:
        """``trace`` — read recorded samples for one watched signal."""
        buffer = self.trace_buffer(pipe_name)
        if buffer is None or not buffer.has_probe(signal):
            raise SimulationError(
                f"signal {signal!r} is not watched on pipe {pipe_name!r}"
            )
        samples = buffer.window(signal, start, end)
        return {
            "pipe": pipe_name,
            "signal": signal,
            "start": start,
            "end": end,
            "samples": samples,
            "cycles_dropped": buffer.cycles_dropped,
        }

    def replay_window(
        self,
        pipe_name: str,
        start: int,
        end: int,
        signals: Optional[List[str]] = None,
    ) -> Dict[str, object]:
        """``replay`` — time-travel: re-simulate ``[start, end)`` on a
        scratch pipe and return the captured samples.

        Rewinds the scratch pipe to the nearest replayable checkpoint
        at-or-before ``start`` (or power-on), replays the recorded op
        history forward with tracing on, and never disturbs the live
        pipe.
        Simulation is deterministic, so the returned values are
        bit-identical to what live capture saw for those cycles.
        ``signals`` defaults to the pipe's currently watched set.
        """
        session = self.timeline(pipe_name)
        if end <= start or start < 0:
            raise SimulationError(
                f"bad replay window [{start}, {end})"
            )
        if end > session.pipe.cycle:
            raise SimulationError(
                f"replay window ends at {end} but history stops at "
                f"cycle {session.pipe.cycle}"
            )
        result = session.compile_result
        if signals is None:
            signals = (
                session.trace.names() if session.trace is not None else []
            )
        if not signals:
            raise SimulationError(
                "nothing to replay: no watched signals and none given"
            )
        from ..trace import TraceBuffer

        with obs.span("trace.replay", pipe=pipe_name, start=start,
                      end=end):
            scratch = Pipe(
                result.netlist.top, result.library,
                name=f"{pipe_name}_replay",
            )
            base = session.base(start)
            rewind(scratch, self.in_current_version(base))
            buffer = TraceBuffer(capacity=None)
            missing: List[str] = []
            for name in signals:
                try:
                    buffer.watch(scratch, name)
                except SimulationError:
                    missing.append(name)
            if not buffer.names():
                raise SimulationError(
                    "no replayable signals: "
                    + ", ".join(repr(s) for s in missing)
                )
            scratch.attach_trace(buffer)
            replayed = replay_ops(
                scratch, session.ops, end, self.testbench
            )
            obs.incr("trace.replays")
        return {
            "pipe": pipe_name,
            "start": start,
            "end": end,
            "base_cycle": base.cycle if base is not None else 0,
            "cycles_replayed": replayed,
            "missing": missing,
            "signals": {
                name: buffer.window(name, start, end)
                for name in buffer.names()
            },
        }

    # ------------------------------------------------------------------
    # Consistency verification (§III-F): every verify is one VerifyJob,
    # and these methods are repro.live.consistency's, which the first
    # verify imports: opening, running and editing a session never load
    # it (nor the multiprocessing machinery behind the pool).
    # ------------------------------------------------------------------

    def verify_consistency(
        self, pipe_name: str, workers: int = 1, repair: bool = False
    ) -> ConsistencyReport:
        """Verify checkpoint deltas under the current design
        (:func:`repro.live.consistency.verify_consistency`)."""
        return _consistency().verify_consistency(self, pipe_name, workers, repair)

    def verify_background(self, pipe_name: str, workers: int = 2) -> VerifyJob:
        """Verify checkpoint deltas without blocking the session
        (:func:`repro.live.consistency.verify_background`)."""
        return _consistency().verify_background(self, pipe_name, workers)

    def verify_status(self, pipe_name: str) -> VerifyStatus:
        """Verdict / progress of the pipe's latest background verify."""
        return _consistency().verify_status(self, pipe_name)

    def wait_for_verify(
        self, pipe_name: str, timeout: Optional[float] = None
    ) -> Optional[ConsistencyReport]:
        """Block until the pipe's background verify lands (None on
        timeout or when none was ever started)."""
        job = self.timeline(pipe_name).verify_job
        return job.result(timeout) if job is not None else None

    def cancel_verify(self, pipe_name: str) -> int:
        """Cancel the pipe's in-flight background verify, if any.
        Returns the number of segments revoked before they ran."""
        job = self.timeline(pipe_name).verify_job
        return job.cancel() if job is not None else 0

    def reset_verifier_pool(self) -> None:
        """Tear down the persistent pool (workers exit, and their warm
        compilers with them).  The next pool verify spawns a fresh
        one."""
        if self._verifier_pool is not None:
            self._verifier_pool.shutdown()
            self._verifier_pool = None

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def pipe(self, name: str) -> Pipe:
        return self.timeline(name).pipe

    def peek(self, pipe_name: str) -> Dict[str, int]:
        """Current output values without advancing the simulation (a
        copy the caller may keep or change)."""
        return dict(self.timeline(pipe_name).pipe.outputs())

    def checkpoints(self, pipe_name: str):
        return self.timeline(pipe_name).store.all()

    def store(self, pipe_name: str) -> CheckpointStore:
        return self.timeline(pipe_name).store

    def ops(self, pipe_name: str) -> List[SessionOp]:
        return list(self.timeline(pipe_name).ops)

    def timeline(self, name: str) -> _PipeSession:
        """The named pipe's Pipeline Table row: the pipe with its
        checkpoints, recorded ops, trace and verification."""
        return self.pipelines.get(name)

    def testbench(self, handle: str) -> Testbench:
        testbench = self._testbenches.get(handle)
        if testbench is None:
            raise SimulationError(f"unknown testbench handle {handle!r}")
        return testbench

    def in_current_version(
        self, checkpoint: Optional[Checkpoint]
    ) -> Optional[Checkpoint]:
        """``checkpoint`` in the current design version's names: what
        every restore of a stored or user-held checkpoint rewinds to.

        A checkpoint keeps the version it was taken in.  When no edit
        since has renamed, created or deleted a register, its names are
        the current ones and it comes back as it is (``version`` still
        the ancestor's); otherwise the answer is a copy translated
        through the transforms the history composes from that version
        to this one, and stamped with this one.  None (power-on) stays
        None.  A version that is not an ancestor raises
        :class:`SimulationError`.
        """
        if checkpoint is None:
            return None
        transforms = self.history.composed_transforms(
            checkpoint.version, self.version
        )
        if not transforms:
            return checkpoint
        snapshot = checkpoint.snapshot
        return replace(
            checkpoint,
            snapshot=PipeSnapshot(
                snapshot.cycle,
                snapshot.inputs,
                translate_snapshot(snapshot.state, transforms),
            ),
            version=self.version,
        )

    def _next_version(self) -> str:
        self._version_counter += 1
        major = self.history.root.split(".")[0]
        return f"{major}.{self._version_counter}"
