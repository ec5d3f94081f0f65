"""Tracing spans: nested, named timing regions (zero-dependency).

Two tracer implementations share one duck-typed interface:

* :class:`Tracer` — records a tree of :class:`Span` objects using
  ``time.perf_counter_ns``.
* :class:`NullTracer` — the off-by-default fast path.  ``span()``
  returns one shared no-op context manager, so a disabled program
  allocates **no** span objects and pays only a method call per
  instrumentation site (verified by ``tests/test_obs.py``).

Spans nest via a per-thread stack: entering a span while another is
open on the same thread attaches it as a child, so instrumented callees
(the compiler inside ``live.apply_change``, checkpoint capture inside
``run``) land under their caller's span without any explicit plumbing,
and a span from another thread (a background verify) is a root.
"""

from __future__ import annotations

import threading
from time import perf_counter_ns
from typing import Dict, List, Optional


class Span:
    """One timed region.  Duration is ``perf_counter_ns`` based."""

    __slots__ = ("name", "attrs", "start_ns", "end_ns", "children", "_tracer")

    def __init__(self, name: str, attrs: Optional[Dict] = None,
                 tracer: "Optional[Tracer]" = None):
        self.name = name
        self.attrs: Dict = attrs or {}
        self.start_ns = 0
        self.end_ns = 0
        self.children: List[Span] = []
        self._tracer = tracer

    # -- context manager -----------------------------------------------------

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._push(self)
        self.start_ns = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_ns = perf_counter_ns()
        if self._tracer is not None:
            self._tracer._pop(self)
        return False

    # -- accessors -----------------------------------------------------------

    @property
    def duration_ns(self) -> int:
        return max(self.end_ns - self.start_ns, 0)

    @property
    def seconds(self) -> float:
        """Duration in seconds, read once the span has closed."""
        return (self.end_ns - self.start_ns) / 1e9

    def find(self, name: str) -> "List[Span]":
        """All descendant spans (including self) with ``name``."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found

    def to_dict(self) -> Dict:
        """Stable JSON form (see :mod:`repro.obs.report`)."""
        return {
            "name": self.name,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {self.duration_ns} ns, "
                f"{len(self.children)} children)")


class _Stacks(threading.local):
    def __init__(self):
        self.stack: List[Span] = []


class Tracer:
    """Records spans into a forest (one root per top-level region)."""

    enabled = True

    def __init__(self):
        self.roots: List[Span] = []
        self._stacks = _Stacks()

    def span(self, name: str, **attrs) -> Span:
        """Open a named region: ``with tracer.span("compile"): ...``"""
        return Span(name, attrs or None, tracer=self)

    def record(self, name: str, duration_ns: int, **attrs) -> Span:
        """Attach an already-measured region (e.g. timed in a worker
        process) as a completed span under the current parent."""
        span = Span(name, attrs or None, tracer=None)
        span.start_ns = perf_counter_ns() - duration_ns
        span.end_ns = span.start_ns + duration_ns
        self._attach(span)
        return span

    # -- stack management ----------------------------------------------------

    @property
    def _stack(self) -> List[Span]:
        """This thread's open spans, innermost last."""
        return self._stacks.stack

    def _push(self, span: Span) -> None:
        self._attach(span)
        self._stack.append(span)

    def _attach(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)

    def _pop(self, span: Span) -> None:
        # Tolerate exception-unwound or mismatched exits: pop through.
        while self._stack:
            if self._stack.pop() is span:
                break

    # -- accessors -----------------------------------------------------------

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def find(self, name: str) -> List[Span]:
        found: List[Span] = []
        for root in self.roots:
            found.extend(root.find(name))
        return found

    def reset(self) -> None:
        self.roots = []
        self._stacks = _Stacks()


class _NullSpan:
    """Shared no-op context manager — the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class NullTracer:
    """Does nothing, allocates nothing per call."""

    enabled = False
    roots: List[Span] = []  # always empty; shared is fine (never mutated)

    def span(self, name: str, **attrs) -> _NullSpan:
        return NULL_SPAN

    def record(self, name: str, duration_ns: int, **attrs) -> None:
        return None

    def current(self) -> None:
        return None

    def find(self, name: str) -> List[Span]:
        return []

    def reset(self) -> None:
        return None


NULL_TRACER = NullTracer()
