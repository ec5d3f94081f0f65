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

A rewind of the pipe (:func:`repro.live.replay.rewind`: ``ldch``, a
reload, a repair) calls :meth:`truncate_from`: samples at-or-after the
restore cycle are discarded (they describe an abandoned timeline) and
every subscriber receives a ``{"rewind": cycle}`` marker so it can do
the same.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..hdl.errors import SimulationError
from ..sim.pipeline import Pipe
from .probes import TraceProbe
from .vcd import write_vcd

DEFAULT_CAPACITY = 4096
DEFAULT_SUB_QUEUE = 256

_UNSET = object()


class _Ring:
    """(cycle, value) samples; drop-oldest beyond ``capacity``."""

    __slots__ = ("_items", "_capacity")

    def __init__(self, capacity: Optional[int]):
        self._capacity = capacity
        self._items: deque = deque(maxlen=capacity)

    def append(self, cycle: int, value: int) -> bool:
        """Append one sample; True when an old sample was evicted."""
        evicted = (
            self._capacity is not None
            and len(self._items) == self._capacity
        )
        self._items.append((cycle, value))
        return evicted

    def truncate_from(self, cycle: int) -> int:
        """Drop samples with cycle >= ``cycle``; returns count dropped."""
        dropped = 0
        items = self._items
        while items and items[-1][0] >= cycle:
            items.pop()
            dropped += 1
        return dropped

    def __len__(self) -> int:
        return len(self._items)

    def items(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(self._items)

    @property
    def first_cycle(self) -> Optional[int]:
        return self._items[0][0] if self._items else None

    @property
    def last_cycle(self) -> Optional[int]:
        return self._items[-1][0] if self._items else None


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
    __slots__ = ("probe", "ring", "last")

    def __init__(self, probe: TraceProbe, capacity: Optional[int]):
        self.probe = probe
        self.ring = _Ring(capacity)
        self.last: Any = _UNSET


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

    # -- probes ---------------------------------------------------------------

    def add_probe(self, probe: TraceProbe) -> TraceProbe:
        if probe.name in self._entries:
            raise SimulationError(f"duplicate probe {probe.name!r}")
        self._entries[probe.name] = _Entry(probe, self.capacity)
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

    def capture(self, pipe: Pipe) -> None:
        """Sample every live probe at the pipe's current cycle.

        Called from ``Pipe.tick`` after combinational settle; missing
        probes (signal vanished in a reload) are skipped.
        """
        cycle = pipe.cycle
        evicted = False
        publish = bool(self._subs)
        for entry in self._entries.values():
            probe = entry.probe
            if probe.missing:
                continue
            value = probe.getter(pipe)
            if entry.ring.append(cycle, value):
                evicted = True
            if value != entry.last:
                entry.last = value
                if publish:
                    self._publish(
                        probe.name,
                        {"signal": probe.name, "cycle": cycle,
                         "value": value},
                    )
        if evicted:
            self.cycles_dropped += 1
            obs.incr("trace.cycles_dropped")

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
            entry.last = _UNSET
            if not bound:
                missing.append(entry.probe.name)
                if not was_missing:
                    self._publish(
                        entry.probe.name,
                        {"signal": entry.probe.name, "missing": True},
                    )
        return missing

    def truncate_from(self, cycle: int) -> int:
        """Rewind: drop samples at-or-after ``cycle`` (an abandoned
        timeline) and tell every subscriber to do the same."""
        dropped = 0
        for entry in self._entries.values():
            dropped += entry.ring.truncate_from(cycle)
            entry.last = _UNSET
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
        out: List[List[int]] = []
        for cycle, value in entry.ring.items():
            if start is not None and cycle < start:
                continue
            if end is not None and cycle >= end:
                break
            out.append([cycle, value])
        return out

    def changes_of(self, name: str) -> List[Tuple[int, int]]:
        """(cycle, value) pairs where the value changed — the VCD
        writer's input shape."""
        entry = self._entries.get(name)
        if entry is None:
            raise SimulationError(f"no probe named {name!r}")
        out: List[Tuple[int, int]] = []
        last: Any = _UNSET
        for cycle, value in entry.ring.items():
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
                "samples": len(entry.ring),
                "first_cycle": entry.ring.first_cycle,
                "last_cycle": entry.ring.last_cycle,
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
