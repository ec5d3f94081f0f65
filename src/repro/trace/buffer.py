"""Per-pipe ring-buffer trace capture and value-change fan-out.

A :class:`TraceBuffer` is attached to a pipe (``Pipe.attach_trace``)
and from then on :meth:`capture` runs inside every ``tick`` — after
combinational settle, before the clock edge commits — so a sample at
cycle N holds the settled pre-edge values of cycle N.

Costs are bounded by construction: capture is O(probes) per cycle with
no allocation beyond the appended tuples, each probe's history lives in
a ring of ``capacity`` samples (drop-oldest, counted on the
``trace.cycles_dropped`` obs counter), and subscription queues are
bounded deques that drop their *oldest* event under backpressure — the
simulation loop never blocks on a slow consumer.

Capture follows a *plan*, rebuilt only when the probe set or its
binding changes (a watch, an unwatch, a rebind, a rewind): one row per
live probe, by what it reads — a position in the top's settled output
tuple ``tick`` hands over, a register or memory word by instance and
slot (the same ones the probe's getter holds, so a row goes stale
exactly when the getter would, and :meth:`rebind` rebuilds both), or an
expression probe's getter.  Value changes are worked out only while a
subscription exists.

A rewind of the pipe (:func:`repro.live.replay.rewind`: ``ldch``, a
reload, a repair) calls :meth:`truncate_from`: samples at-or-after the
restore cycle are discarded (they describe an abandoned timeline) and
every subscriber receives a ``{"rewind": cycle}`` marker so it can do
the same.  So a probe's samples are in increasing cycle order, which
:meth:`TraceBuffer.window` bisects on.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import deque
from itertools import islice
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..hdl.errors import SimulationError
from ..sim.pipeline import Pipe
from .probes import MEMORY_WORD, OUTPUT, REGISTER, TraceProbe
from .vcd import write_vcd

DEFAULT_CAPACITY = 4096
DEFAULT_SUB_QUEUE = 256

_UNSET = object()


class TraceSubscription:
    """A bounded event queue for one value-change consumer.

    The producer side (:meth:`TraceBuffer.capture`, on the simulation
    thread) only ever appends under a short lock; when the queue is
    full the oldest event is dropped and counted — never a block.
    Consumers :meth:`drain` in batches from their own thread.
    """

    def __init__(
        self,
        buffer: "TraceBuffer",
        signals: Optional[Sequence[str]] = None,
        max_events: int = DEFAULT_SUB_QUEUE,
    ):
        self._buffer = buffer
        self.signals = frozenset(signals) if signals is not None else None
        self.max_events = max(1, int(max_events))
        self._events: deque = deque()
        self._lock = threading.Lock()
        self.events_dropped = 0
        self.closed = False

    def wants(self, signal: Optional[str]) -> bool:
        """Whether this subscription cares about ``signal`` (None =
        buffer-wide markers such as rewinds, delivered to everyone)."""
        return (
            signal is None
            or self.signals is None
            or signal in self.signals
        )

    def push(self, event: Dict[str, Any]) -> None:
        with self._lock:
            if self.closed:
                return
            if len(self._events) >= self.max_events:
                self._events.popleft()
                self.events_dropped += 1
                self._buffer.events_dropped += 1
                obs.incr("trace.events_dropped")
            self._events.append(event)

    def drain(self) -> Tuple[List[Dict[str, Any]], int]:
        """Take every queued event; returns ``(events, dropped_total)``
        where the drop count is cumulative over the subscription."""
        with self._lock:
            events = list(self._events)
            self._events.clear()
            return events, self.events_dropped

    def close(self) -> None:
        with self._lock:
            self.closed = True
            self._events.clear()


class _Entry:
    """One probe, its ``(cycle, value)`` samples (drop-oldest beyond the
    buffer's capacity) and the last value published for it.

    ``mark`` is the newest sample when ``last`` was last forgotten:
    while nobody subscribes ``last`` is not kept, and a first subscriber
    finds it again as the newest sample if one came after the mark."""

    __slots__ = ("probe", "samples", "last", "mark")

    def __init__(self, probe: TraceProbe, capacity: Optional[int]):
        self.probe = probe
        self.samples: deque = deque(maxlen=capacity)
        self.forget()

    def forget(self) -> None:
        """Publish the next sample whatever it is."""
        self.last = _UNSET
        self.mark = self.samples[-1] if self.samples else None

    def recall(self) -> None:
        """``last`` as a capture that had published every sample since
        :meth:`forget` would have left it."""
        samples = self.samples
        if samples and samples[-1] is not self.mark:
            self.last = samples[-1][1]
        else:
            self.last = _UNSET

    def truncate_from(self, cycle: int) -> int:
        """Drop samples with cycle >= ``cycle``; returns count dropped."""
        dropped = 0
        samples = self.samples
        while samples and samples[-1][0] >= cycle:
            samples.pop()
            dropped += 1
        return dropped


class TraceBuffer:
    """Ring-buffer capture for a set of probes on one pipe."""

    def __init__(self, capacity: Optional[int] = DEFAULT_CAPACITY):
        if capacity is not None and capacity < 1:
            raise SimulationError("trace capacity must be >= 1 (or None)")
        self.capacity = capacity
        self.cycles_dropped = 0
        self.events_dropped = 0
        self._entries: Dict[str, _Entry] = {}
        self._subs: List[TraceSubscription] = []
        self._replan()

    # -- probes ---------------------------------------------------------------

    def add_probe(self, probe: TraceProbe) -> TraceProbe:
        if probe.name in self._entries:
            raise SimulationError(f"duplicate probe {probe.name!r}")
        self._entries[probe.name] = _Entry(probe, self.capacity)
        self._replan()
        return probe

    def watch(self, pipe: Pipe, signal: str) -> TraceProbe:
        """Add a named probe (idempotent: an existing probe for the
        same signal is returned untouched, so journal replay and
        migration re-arms never double-register)."""
        entry = self._entries.get(signal)
        if entry is not None:
            return entry.probe
        return self.add_probe(TraceProbe.named(pipe, signal))

    def unwatch(self, signal: str) -> bool:
        """Remove a probe and its history; subscriptions narrowed to
        only this signal are closed."""
        entry = self._entries.pop(signal, None)
        if entry is None:
            return False
        self._replan()
        for sub in list(self._subs):
            if sub.signals is not None and sub.signals == {signal}:
                sub.close()
        self._prune_subs()
        return True

    def has_probe(self, name: str) -> bool:
        return name in self._entries

    def names(self) -> List[str]:
        return list(self._entries)

    # -- capture --------------------------------------------------------------

    def _replan(self) -> None:
        """Rebuild the capture plan from the live (not missing) probes.

        ``reads_outputs`` tells ``Pipe.tick`` to leave its outputs
        settled for an expression probe's getter; ``_gauge`` is the
        fullest live ring (between two plans every live ring takes one
        sample per capture, so it stays the fullest), an empty deque
        when nothing can evict."""
        rows: Dict[Optional[str], list] = {
            OUTPUT: [], REGISTER: [], MEMORY_WORD: [], None: []}
        live = [e for e in self._entries.values() if not e.probe.missing]
        for entry in live:
            kind, *where = entry.probe.site or (None, entry.probe.getter)
            rows[kind].append((entry.samples.append, *where))
        self._live = live
        self._outputs, self._registers = tuple(rows[OUTPUT]), tuple(rows[REGISTER])
        self._words, self._expressions = tuple(rows[MEMORY_WORD]), tuple(rows[None])
        self.reads_outputs = bool(self._expressions)
        self._gauge = max((e.samples for e in live), key=len,
                          default=deque())

    def capture(self, pipe: Pipe, outputs: Sequence[int]) -> None:
        """Sample every live probe at the pipe's current cycle.

        Called from ``Pipe.tick`` after combinational settle, with the
        top's settled ``outputs`` in port order; missing probes
        (signal vanished in a reload) are not in the plan.
        """
        cycle = pipe.cycle
        evicts = len(self._gauge) == self.capacity
        for append, position in self._outputs:
            append((cycle, outputs[position]))
        for append, inst, slot in self._registers:
            append((cycle, inst.state[slot]))
        for append, inst, slot, index in self._words:
            append((cycle, inst.state[slot][index]))
        for append, getter in self._expressions:
            append((cycle, getter(pipe)))
        if evicts:
            self.cycles_dropped += 1
            obs.incr("trace.cycles_dropped")
        if self._subs:
            for entry in self._live:
                value = entry.samples[-1][1]
                if value != entry.last:
                    entry.last = value
                    name = entry.probe.name
                    self._publish(
                        name, {"signal": name, "cycle": cycle, "value": value}
                    )

    def rebind(self, pipe: Pipe) -> List[str]:
        """Re-resolve every named probe after a design swap.

        Returns the names now missing.  A probe that vanished keeps
        its recorded history and is announced to subscribers once; a
        probe that re-appears resumes capturing (its next sample is
        always published, since the swap may have transformed values).
        """
        missing: List[str] = []
        for entry in self._entries.values():
            was_missing = entry.probe.missing
            bound = entry.probe.bind(pipe)
            entry.forget()
            if not bound:
                missing.append(entry.probe.name)
                if not was_missing:
                    self._publish(
                        entry.probe.name,
                        {"signal": entry.probe.name, "missing": True},
                    )
        self._replan()
        return missing

    def truncate_from(self, cycle: int) -> int:
        """Rewind: drop samples at-or-after ``cycle`` (an abandoned
        timeline) and tell every subscriber to do the same."""
        dropped = 0
        for entry in self._entries.values():
            dropped += entry.truncate_from(cycle)
            entry.forget()
        self._replan()
        if dropped or self._subs:
            self._publish(None, {"rewind": cycle})
        return dropped

    # -- subscriptions --------------------------------------------------------

    def subscribe(
        self,
        signals: Optional[Sequence[str]] = None,
        max_events: int = DEFAULT_SUB_QUEUE,
    ) -> TraceSubscription:
        sub = TraceSubscription(self, signals=signals,
                                max_events=max_events)
        if not self._subs:  # capture kept no ``last`` without one
            for entry in self._entries.values():
                entry.recall()
        self._subs.append(sub)
        return sub

    def unsubscribe(self, sub: TraceSubscription) -> None:
        sub.close()
        self._prune_subs()

    def subscriptions(self) -> int:
        self._prune_subs()
        return len(self._subs)

    def _prune_subs(self) -> None:
        self._subs = [s for s in self._subs if not s.closed]

    def _publish(self, signal: Optional[str],
                 event: Dict[str, Any]) -> None:
        pruned = False
        for sub in self._subs:
            if sub.closed:
                pruned = True
                continue
            if sub.wants(signal):
                sub.push(event)
        if pruned:
            self._prune_subs()

    # -- reads ----------------------------------------------------------------

    def window(
        self,
        signal: str,
        start: Optional[int] = None,
        end: Optional[int] = None,
    ) -> List[List[int]]:
        """Samples for ``signal`` with start <= cycle < end, as
        JSON-friendly ``[cycle, value]`` pairs."""
        entry = self._entries.get(signal)
        if entry is None:
            raise SimulationError(f"no probe named {signal!r}")
        samples = entry.samples
        count = len(samples)
        # (c,) sorts before every (c, value): the first sample at >= c.
        low = 0 if start is None else bisect_left(samples, (start,))
        high = count if end is None else bisect_left(samples, (end,))
        if low >= high:
            return []
        if low < count - high:  # walk from the nearer end
            span = islice(samples, low, high)
        else:
            span = reversed(list(islice(reversed(samples), count - high,
                                        count - low)))
        return [[cycle, value] for cycle, value in span]

    def changes_of(self, name: str) -> List[Tuple[int, int]]:
        """(cycle, value) pairs where the value changed — the VCD
        writer's input shape."""
        entry = self._entries.get(name)
        if entry is None:
            raise SimulationError(f"no probe named {name!r}")
        out: List[Tuple[int, int]] = []
        last: Any = _UNSET
        for cycle, value in entry.samples:
            if value != last:
                out.append((cycle, value))
                last = value
        return out

    def status(self) -> Dict[str, Any]:
        self._prune_subs()
        probes = []
        for entry in self._entries.values():
            probes.append({
                "signal": entry.probe.name,
                "width": entry.probe.width,
                "missing": entry.probe.missing,
                "samples": len(entry.samples),
                "first_cycle": entry.samples[0][0] if entry.samples else None,
                "last_cycle": entry.samples[-1][0] if entry.samples else None,
            })
        return {
            "capacity": self.capacity,
            "cycles_dropped": self.cycles_dropped,
            "events_dropped": self.events_dropped,
            "subscriptions": len(self._subs),
            "probes": probes,
        }

    # -- export ---------------------------------------------------------------

    def to_vcd(self, path: str, timescale: str = "1 ns",
               module_name: str = "uut") -> None:
        """Export every probe's history as one VCD file."""
        write_vcd(
            path,
            [(e.probe.name, e.probe.width)
             for e in self._entries.values()],
            self.changes_of,
            timescale=timescale,
            module_name=module_name,
        )
