"""Span tracing for the traced run, installed from outside the program.

``install`` wraps the public functions at each layer boundary with
timing wrappers; ``uninstall`` puts the originals back.  A span is
``(name, start, end, parent, op)``: ``parent`` indexes the enclosing
span (-1 for a root) and ``op`` is the id shared by every span of one
benchmark operation (one run chunk, command or edit).  Spans stay in
memory until the run ends; a layer's *self time* is its duration minus
the part its child spans cover.

Wrappers are only ever entered from the thread that drives the
session, so the span stack needs no lock.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._op = 0
        self._undo: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def operation(self, name: str):
        """Root span of one benchmark operation; children share its id."""
        self._op += 1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, -1, self._op)

    # -- installation --------------------------------------------------------

    def patch_method(self, cls: type, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original))
        self._undo.append(lambda: setattr(cls, attr, original))

    def patch_function(self, module_name: str, attr: str, name: str) -> None:
        """Wrap a module-level function everywhere ``repro`` bound it
        (``from x import f`` copies the reference into the importer)."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = self.wrap(name, original)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    self._undo.append(
                        lambda m=module, k=key: setattr(m, k, original)
                    )

    def patch_passes(self, pipeline) -> None:
        """Wrap each pass instance's ``run`` (passes live on the
        session's compiler, so this is per session, after it exists)."""
        for p in pipeline.passes:
            p.run = self.wrap(f"passes.{p.name}", p.run)
            # Deleting the instance attribute re-exposes the class method.
            self._undo.append(lambda p=p: p.__dict__.pop("run", None))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """name -> (summed self seconds, span count)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        totals: Dict[str, Tuple[float, int]] = {}
        for index, span in enumerate(spans):
            if span is None:
                continue
            seconds, count = totals.get(span[0], (0.0, 0))
            own = span[2] - span[1] - child_time[index]
            totals[span[0]] = (seconds + own, count + 1)
        return totals

    def coverage(self, name: str) -> float:
        """Share of the ``name`` spans' wall time that their direct
        child spans account for (1 - self-time share)."""
        covered = total = 0.0
        targets = set()
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            if span[0] == name:
                targets.add(index)
                total += span[2] - span[1]
            elif span[3] in targets:
                covered += span[2] - span[1]
        return covered / total if total else 0.0


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics name."""
    from repro.analyze import Analyzer
    from repro.live.checkpoint import CheckpointStore
    from repro.live.compiler_live import LiveCompiler
    from repro.live.hotreload import HotReloader
    from repro.live.parser_live import LiveParser
    from repro.live.session import LiveSession
    from repro.passes.base import PassPipeline
    from repro.sim.pipeline import Pipe
    from repro.trace.buffer import TraceBuffer

    for module, attr, name in (
        ("repro.hdl.parser", "parse", "hdl.parse"),
        ("repro.hdl.source_regions", "module_regions", "hdl.regions"),
        ("repro.hdl.source_regions", "split_regions", "hdl.regions"),
        ("repro.hdl.elaborate", "elaborate", "hdl.elaborate"),
        ("repro.codegen.pygen", "compile_module", "codegen.compile_module"),
        ("repro.live.replay", "replay_ops", "live.replay"),
    ):
        tracer.patch_function(module, attr, name)
    for cls, attr, name in (
        (LiveSession, "apply_change", "live.apply_change"),
        (LiveSession, "run", "sim.testbench"),
        (LiveParser, "analyze", "live.parse_diff"),
        (LiveParser, "commit", "live.parse_diff"),
        (LiveCompiler, "update_source", "live.update_source"),
        (LiveCompiler, "compile_top", "live.compile_top"),
        (Analyzer, "analyze_netlist", "analyze.run"),
        (HotReloader, "swap_pipe", "live.swap"),
        (CheckpointStore, "reload_candidate", "live.reload"),
        (Pipe, "restore_transformed", "live.reload"),
        (CheckpointStore, "take", "live.ckpt_take"),
        (PassPipeline, "run", "passes.run"),
        (Pipe, "eval", "sim.eval"),
        (Pipe, "tick", "sim.tick"),
        (TraceBuffer, "capture", "trace.capture"),
    ):
        tracer.patch_method(cls, attr, name)
