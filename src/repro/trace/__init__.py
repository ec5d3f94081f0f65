"""Live trace subsystem: ring-buffer signal capture for running pipes.

The paper's conclusion: *"since hot reload is fast, the designer can
insert 'printfs' and replay from any given point with very low
overhead."*  This package is that observability layer: a ring buffer
(bounded, or unbounded for offline recording) hooked into
:meth:`Pipe.tick` so a session, a server worker, or a bare pipe
captures watched signals on every simulated cycle, at O(1) per cycle,
without changing how the simulation is driven:

- :class:`TraceProbe` — one watched signal, resolved by hierarchical
  name (register ``path.reg``, output port, or memory word
  ``path.mem[idx]``), or a computed value with its own getter (the
  'printf').  Named probes re-bind by name after a hot reload;
  signals that vanished in the new design are *marked* missing, not
  fatal, and resume capturing if a later reload brings them back.
- :class:`TraceBuffer` — the per-pipe capture: one ring per probe,
  drop-oldest beyond ``capacity`` (counted on ``trace.cycles_dropped``),
  value-change fan-out to :class:`TraceSubscription` queues, truncation
  on checkpoint rewind, VCD export (:mod:`repro.trace.vcd`).
- :class:`TraceSubscription` — a bounded, lock-protected event queue
  for one consumer; under backpressure the oldest events drop and the
  producer (the sim loop) never blocks.

Time-travel replay (``LiveSession.replay_window``) builds on the same
pieces: rewind a *scratch* pipe to the nearest replayable checkpoint
at-or-before the window start, attach a fresh ``TraceBuffer``, re-run
forward.  Simulation is deterministic, so the replayed window is
bit-identical to what was streamed live.
"""

from .buffer import TraceBuffer, TraceSubscription
from .probes import TraceProbe, resolve_signal

__all__ = [
    "TraceBuffer",
    "TraceProbe",
    "TraceSubscription",
    "resolve_signal",
]
