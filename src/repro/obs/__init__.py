"""Observability for the live loop: tracing spans + metrics + reports.

Module-level facade used by the instrumented hot paths::

    from .. import obs

    with obs.timed("live.compile_top", pipe=name) as compiled:
        ...
    report.compile_seconds += compiled.seconds
    obs.incr("compile.cache_misses")

Tracing is **off by default**: ``obs.span`` routes to a
:class:`~repro.obs.span.NullTracer` whose ``span()`` returns one shared
no-op context manager — no span objects are allocated and the cost per
site is a couple of attribute lookups.  A region whose duration a
report carries opens ``obs.timed`` instead: its span always measures
and joins the trace only while tracing is on.  ``obs.enable()`` swaps in a
recording :class:`~repro.obs.span.Tracer`; ``obs.report()`` snapshots
the span forest plus the (always-on, dict-backed) metrics registry
into the stable ``repro.obs/v1`` JSON schema.
"""

from __future__ import annotations

import importlib
from types import ModuleType
from typing import Dict, Optional, Union

from .metrics import Histogram, MetricsRegistry
from .span import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "SCHEMA_ID",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "Tracer",
    "aggregate_phases",
    "build_report",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "get_metrics",
    "get_tracer",
    "histogram",
    "Histogram",
    "incr",
    "load_report",
    "record",
    "report",
    "reset",
    "set_tracer",
    "span",
    "span_names",
    "timed",
    "validate_report",
    "write_report",
]

# Resolved from :mod:`repro.obs.report` on first use: the live loop
# records, and only a caller that reports loads the report schema.
_FROM_REPORT = frozenset((
    "SCHEMA_ID", "aggregate_phases", "build_report", "load_report",
    "span_names", "validate_report", "write_report",
))

_tracer: Union[Tracer, NullTracer] = NULL_TRACER
_metrics = MetricsRegistry()


# -- tracer lifecycle --------------------------------------------------------


def enable() -> Tracer:
    """Install (and return) a recording tracer."""
    global _tracer
    if not isinstance(_tracer, Tracer):
        _tracer = Tracer()
    return _tracer


def disable() -> None:
    """Return to the zero-allocation null tracer."""
    global _tracer
    _tracer = NULL_TRACER


def enabled() -> bool:
    return _tracer.enabled


def get_tracer() -> Union[Tracer, NullTracer]:
    return _tracer


def set_tracer(tracer: Union[Tracer, NullTracer]) -> None:
    global _tracer
    _tracer = tracer


def get_metrics() -> MetricsRegistry:
    return _metrics


def reset() -> None:
    """Clear recorded spans and metrics (tracer stays enabled/disabled)."""
    _tracer.reset()
    _metrics.reset()


# -- hot-path helpers --------------------------------------------------------


def span(name: str, **attrs):
    """Open a named timing region under the current tracer."""
    return _tracer.span(name, **attrs)


def timed(name: str, **attrs) -> Span:
    """Open a named region that always measures (``.seconds``); it joins
    the trace only while tracing is on."""
    return Span(name, attrs or None, _tracer if _tracer.enabled else None)


def record(name: str, duration_ns: int, **attrs) -> Optional[Span]:
    """Attach an externally-measured duration as a completed span."""
    return _tracer.record(name, duration_ns, **attrs)


def incr(name: str, amount: Union[int, float] = 1) -> None:
    _metrics.incr(name, amount)


def gauge(name: str, value: Union[int, float]) -> None:
    _metrics.gauge(name, value)


def histogram(name: str, value: Union[int, float]) -> None:
    """Record one observation of a distribution (latency, size, ...)."""
    _metrics.histogram(name, value)


# -- reporting ---------------------------------------------------------------


def _report_module() -> ModuleType:
    """:mod:`repro.obs.report`, imported on first use.  Importing a
    submodule binds it on its package under its own name, which here is
    the :func:`report` function: bind the function again."""
    module = importlib.import_module(".report", __name__)
    globals()["report"] = _REPORT
    return module


def __getattr__(name: str) -> object:
    if name not in _FROM_REPORT:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_report_module(), name)
    return value


def report(meta: Optional[Dict] = None) -> Dict:
    """Snapshot the current spans + metrics as a ``repro.obs/v1`` dict."""
    tracer = _tracer if isinstance(_tracer, Tracer) else None
    return _report_module().build_report(
        tracer=tracer, metrics=_metrics, meta=meta
    )


_REPORT = report
