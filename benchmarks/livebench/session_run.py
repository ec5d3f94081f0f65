"""In-process driver of the session workloads (``LiveSession`` on the
PGAS mesh): *setup -> warm-up -> measured loop -> check*.

One iteration of the loop advances exactly one checkpoint interval and
ends with an edit::

    burst      cmds_per_edit command lines, `run tb, pipe, 1` and
               `peek pipe` in turn                         -> cmd_s
    run part   the rest of the interval in calls of chunk_cycles
               cycles; the last one takes the checkpoint   -> sim_hz
    edit       LiveSession.apply_change, replays the interval -> erd_s

Every timed call is a sample of the class (its position in the
iteration, or the edit's kind and module), and between the calls the
host's speed is probed; see ``metrics.typical``.
"""

from __future__ import annotations

import gc
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from . import metrics
from .reference import FlatReference, mesh_stats, trace_digest
from .trace import Tracer, install
from .workloads import (
    COSMETIC,
    FRESH,
    RESET_CYCLES,
    REVERT,
    TAIL_ITERATIONS,
    WARMUP_ITERATIONS,
    EditGenerator,
    Workload,
    boot_testbench,
    mesh_edit_targets,
    node_images,
    node_programs,
    probe_signals,
)

PIPE = "uut"
# Cycles of watched-signal samples compared with the reference.
TRACE_WINDOW = 64

# Commands between two probes of the host (a chunk and an edit have
# probes on either side).
CMDS_PER_PROBE = 20

Samples = Dict[object, List[Tuple[float, float]]]  # class -> (start, seconds)


class SessionRun:
    def __init__(self, workload: Workload, seed: int,
                 tracer: Optional[Tracer] = None):
        self.workload = workload
        self.seed = seed
        # None for an untraced run; installed between warm-up and tail.
        self.tracer = tracer
        self._tracing = False
        self.failures: List[str] = []
        self.attempted = 0

    # -- setup ---------------------------------------------------------------

    def setup(self) -> None:
        from repro.live.commands import CommandInterpreter
        from repro.live.session import LiveSession
        from repro.riscv.pgas import build_pgas_source, mesh_top_name

        w = self.workload
        self.count = w.mesh * w.mesh
        self.programs = node_programs(self.seed, self.count)
        self.images = node_images(self.programs)
        base = build_pgas_source(w.mesh)
        self.session = LiveSession(
            base, checkpoint_interval=w.interval, reload_distance=w.interval,
            sanitize=w.sanitize, opt=w.opt,
        )
        self.session.inst_pipe(
            PIPE, self.session.stage_handle_for(mesh_top_name(w.mesh))
        )
        self.tb = self.session.load_testbench(boot_testbench(self.images))
        # Command lines go through the interpreter: what the shell and
        # every server command execute after the hop.
        self.commands = CommandInterpreter(self.session)
        self.burst = [
            f"run {self.tb}, {PIPE}, {w.step_cycles}", f"peek {PIPE}",
        ] * (w.cmds_per_edit // 2)
        self.signals = probe_signals(w)
        for signal in self.signals:
            self.session.watch(PIPE, signal)
        # Boot: images loaded at cycle 0, reset driven and released.
        self.session.run(self.tb, PIPE, RESET_CYCLES)
        self.edits = EditGenerator(
            base, mesh_edit_targets(), w.edit_block, self.seed
        )

    def close(self) -> None:
        self.session.close()

    # -- measurement ---------------------------------------------------------

    def _timed(self, name: str, fn, *args) -> Tuple[float, float]:
        """(start, seconds) of one call."""
        if not self._tracing:
            started = perf_counter()
            fn(*args)
            return started, perf_counter() - started
        with self.tracer.operation(name):
            started = perf_counter()
            fn(*args)
            return started, perf_counter() - started

    def _interval(self, cmd_s: Samples, chunk_s: Samples) -> None:
        """The burst and the run part of one iteration."""
        w = self.workload
        for position, line in enumerate(self.burst):
            if position % CMDS_PER_PROBE == 0:
                self.host()
            cmd_s.setdefault(position, []).append(
                self._timed("op.cmd", self.commands.execute, line)
            )
        for position in range(w.chunks_per_edit):
            self.host()
            chunk_s.setdefault(position, []).append(
                self._timed("op.chunk", self.session.run, self.tb, PIPE,
                            w.chunk_cycles)
            )
        self._probe_long()

    def _probe_long(self) -> None:
        """The probes either side of an edit, which takes 20-100 times
        what a chunk does."""
        self.host(runs=3)
        self.host(runs=3)

    def _edit(self, timed: bool = True) -> None:
        """Apply the next edit of the schedule; a rejected edit or one
        that did not do what its kind says is a failure."""
        from repro.hdl.errors import HDLError

        edit = self.edits.next() if timed else self.edits.warmup()
        outcome = {}

        def apply() -> None:
            outcome["report"] = self.session.apply_change(edit.source)

        try:
            sample = self._timed("op.edit", apply)
        except HDLError as exc:
            self.failures.append(f"edit rejected ({edit.kind}): {exc}")
            return
        finally:
            self._probe_long()
        report = outcome["report"]
        if edit.kind == FRESH and not report.recompiled_keys:
            self.failures.append("fresh edit recompiled nothing")
        elif edit.kind == REVERT and (
            report.recompiled_keys or not report.behavioral
        ):
            self.failures.append("revert edit missed the compile cache")
        elif edit.kind == COSMETIC and report.behavioral:
            self.failures.append("cosmetic edit was treated as behavioural")
        if timed:
            self.edit_s.setdefault((edit.kind, edit.target), []).append(sample)
            self.reports.append(report)

    def measure(self) -> None:
        w = self.workload
        self.cmd_s: Samples = {}
        self.chunk_s: Samples = {}
        self.edit_s: Samples = {}
        self.reports: list = []
        # Built here: set-up is the program's, not the benchmark's.
        self.host = metrics.HostProbe()
        try:
            # Warm-up, excluded from every sample.
            for _ in range(WARMUP_ITERATIONS):
                self._interval({}, {})
            for _ in range(w.warmup_edits):
                self._edit(timed=False)
            if self.tracer is not None:
                self._tracing = True
                install(self.tracer)
                self.tracer.patch_passes(self.session.compiler.pipeline)
            gc.collect()
            self.warm_end = mesh_stats(
                self.session.pipe(PIPE), self.count, False
            )

            for _ in range(w.edits):
                self._interval(self.cmd_s, self.chunk_s)
                self._edit()
            # A few more intervals, never traced: more samples for an
            # untraced run, the untraced side of ``trace_overhead_ratio``
            # for a traced one.
            self.untraced_chunk_s: Samples = {}
            if self._tracing:
                self.tracer.uninstall()
                self._tracing = False
                tail = {}, self.untraced_chunk_s
            else:
                tail = self.cmd_s, self.chunk_s
            for _ in range(TAIL_ITERATIONS):
                self._interval(*tail)
            self.attempted += (w.edits + TAIL_ITERATIONS) * (
                w.cmds_per_edit + w.chunks_per_edit
            ) + w.edits
        finally:
            if self._tracing:
                self.tracer.uninstall()

    # -- correctness ---------------------------------------------------------

    def check(self) -> Dict[str, object]:
        """Compare the live state with a from-reset run of the final
        source on the flattening compiler, and that with GoldenCore.
        Returns the simulated statistics (for ``expected.json``)."""
        pipe = self.session.pipe(PIPE)
        final = pipe.cycle
        live_final = mesh_stats(pipe, self.count, False)
        reference = FlatReference(
            self.session.compiler.source, self.workload.mesh, self.images
        )
        reference.run_to(self.warm_end["cycle"])
        ref_warm_end = reference.stats()
        self._compare("end of warm-up", self.warm_end, ref_warm_end)
        window = TRACE_WINDOW if self.signals else 0
        reference.run_to(final - window)
        digest = ""
        if window:
            buffer = self.session.trace_buffer(PIPE)
            live_trace = {
                name: buffer.window(name, final - window, final)
                for name in self.signals
            }
            ref_trace = reference.trace_window(self.signals, window)
            self.attempted += 1
            if live_trace != ref_trace:
                self.failures.append("trace window differs from reference")
            digest = trace_digest(ref_trace)
        ref_final = reference.stats()
        self._compare("end of run", live_final, ref_final)
        self.attempted += 1
        mismatches = reference.golden_mismatches(self.programs[0].words)
        if mismatches:
            self.failures.append(
                "node 0 differs from GoldenCore: " + "; ".join(mismatches[:3])
            )
        return {
            "warm_end": ref_warm_end,
            "final": ref_final,
            "trace_digest": digest,
            "sanitizer_hits": self.session.sanitize_runtime.counters(),
        }

    def _compare(self, where: str, live: Dict, ref: Dict) -> None:
        self.attempted += 1
        if live != ref:
            keys = [k for k in ref if live.get(k) != ref[k]]
            self.failures.append(
                f"live state differs from reference at {where}: {keys}"
            )

    # -- results -------------------------------------------------------------

    def exact_counts(self) -> Dict[str, int]:
        """Counts that repeat exactly for one (seed, seconds)."""
        reports = self.reports
        return {
            "live.replay.cycles.n": sum(r.cycles_replayed for r in reports),
            "live.compile.recompiled.n": sum(
                len(r.recompiled_keys) for r in reports
            ),
            "live.compile.reused.n": sum(len(r.reused_keys) for r in reports),
            "live.swap.instances.n": sum(
                r.swapped_instances for r in reports
            ),
            **{
                f"edits.{kind}.n": len(self._edits_of(kind))
                for kind in (FRESH, REVERT, COSMETIC)
            },
        }

    def _edits_of(self, kind: str) -> List[float]:
        return metrics.seconds_of({
            key: samples for key, samples in self.edit_s.items()
            if key[0] == kind
        })

    def host_probe_s(self) -> float:
        """Median probe of the host over the measured loop."""
        return self.host.median_s()

    def end_to_end(self) -> Dict[str, float]:
        return {
            "sim_hz": self.workload.chunk_cycles
            / metrics.typical(self.chunk_s, self.host),
            "erd_s": metrics.typical(self.edit_s, self.host),
            "cmd_s": metrics.typical(self.cmd_s, self.host),
        }

    def per_layer(self) -> Dict[str, float]:
        """Per-layer metrics of a traced run (0 where not observed)."""
        out = {name: 0.0 for name in metrics.PER_LAYER}
        times = self.tracer.self_times()
        for name, (seconds, count) in times.items():
            if f"{name}.s" in out:
                out[f"{name}.s"] = seconds
            if f"{name}.n" in out:
                out[f"{name}.n"] = count
        edit_s = metrics.seconds_of(self.edit_s)
        cmd_s = metrics.seconds_of(self.cmd_s)
        chunk_s = metrics.seconds_of(self.chunk_s)
        out["phase.run.s"] = sum(chunk_s)
        out["phase.cmd.s"] = sum(cmd_s)
        out["phase.edit.s"] = sum(edit_s)
        out.update(
            (k, v) for k, v in self.exact_counts().items() if k in out
        )
        reports = self.reports
        compiled = (
            out["live.compile.recompiled.n"] + out["live.compile.reused.n"]
        )
        out["live.compile.reuse_ratio"] = (
            out["live.compile.reused.n"] / compiled if compiled else 0.0
        )
        for kind in (FRESH, REVERT, COSMETIC):
            samples = self._edits_of(kind)
            if samples:
                out[f"live.edit.{kind}.p50_s"] = metrics.median(samples)
        out["live.replay.wall.s"] = sum(r.replay_seconds for r in reports)
        out["live.edit.p50_s"] = metrics.median(edit_s)
        out["live.edit.p95_s"] = metrics.percentile(edit_s, 95)
        out["cmd.per_s"] = len(cmd_s) / sum(cmd_s)
        out["cmd.p50_s"] = metrics.median(cmd_s)
        out["cmd.p99_s"] = metrics.percentile(cmd_s, 99)
        out["sim.chunk.p50_hz"] = self.workload.chunk_cycles / metrics.median(
            chunk_s
        )
        out["live.edit.span_coverage"] = self.tracer.coverage(
            "live.apply_change"
        )
        out["passes.computed.n"] = sum(
            len(keys) for r in reports for keys in r.pass_computed_keys.values()
        )
        out["passes.reused.n"] = sum(
            len(keys) for r in reports for keys in r.pass_reused_keys.values()
        )
        out["analyze.analyzed.n"] = sum(len(r.analyzed_keys) for r in reports)
        out["analyze.reused.n"] = sum(
            len(r.analysis_reused_keys) for r in reports
        )
        cycles = times.get("sim.tick", (0.0, 0))[1]
        out["sim.cycles.n"] = cycles
        if cycles:
            out["sim.eval.us_per_cycle"] = 1e6 * out["sim.eval.s"] / cycles
            out["sim.tick.us_per_cycle"] = 1e6 * out["sim.tick.s"] / cycles
        store = self.session.store(PIPE)
        out["live.ckpt.bytes"] = store.total_bytes()
        library = self.session.pipe(PIPE).library
        out["codegen.source_lines.n"] = sum(
            module.source.count("\n") + 1 for module in library.values()
        )
        out["sanitize.sites.n"] = sum(m.san_sites for m in library.values())
        out["sanitize.elided.n"] = sum(m.san_elided for m in library.values())
        runtime = self.session.sanitize_runtime
        out["sanitize.hits.n"] = sum(runtime.counters().values())
        out["sanitize.findings.n"] = len(runtime.findings)
        buffer = self.session.trace_buffer(PIPE)
        if buffer is not None:
            out["trace.dropped.n"] = buffer.cycles_dropped
        # Like with like: the last traced intervals against the equally
        # many untraced ones that followed them.
        out["trace_overhead_ratio"] = metrics.typical({
            position: values[-TAIL_ITERATIONS:]
            for position, values in self.chunk_s.items()
        }, self.host) / metrics.typical(self.untraced_chunk_s, self.host)
        return out

