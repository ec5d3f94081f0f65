"""Session history, rewind and replay.

LiveSim views testbench runs as *operations on the UUT* whose "history
is tracked and checkpointed as part of the simulation session.  This
allows those same operations to be applied again, should the design be
updated due to a change in source code" (paper §III-B1).

Every time-travel in the session -- hot reload, repair, a replay
window, a verification segment, ``ldch``, a regression case -- is the
same three steps: pick a *base* the recorded ops reach the target from
without a gap (:func:`recorded_from` is the test), :func:`rewind` a
pipe to it, :func:`replay_ops` forward.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence

from ..hdl.errors import SimulationError
from ..sim.pipeline import Pipe
from ..sim.testbench import Testbench
from .checkpoint import Checkpoint


@dataclass(frozen=True)
class SessionOp:
    """One recorded ``run`` command: a testbench applied for a span."""

    tb_handle: str
    start_cycle: int
    end_cycle: int

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle


def recorded_from(
    ops: Sequence[SessionOp], cycle: int, floor: int = 0
) -> int:
    """The earliest cycle from which ``ops`` cover every cycle up to
    ``cycle`` without a gap: a base there can be replayed to ``cycle``.

    ``cycle`` itself when nothing recorded leads up to it (cycles run
    behind the session's back, or history a migration did not carry).
    The walk stops once it is at or below ``floor``; what lies further
    back does not matter to a base at ``floor``.
    """
    start = cycle
    for op in reversed(ops):
        if start <= floor:
            break
        if op.start_cycle >= start:
            continue
        if op.end_cycle < start:
            break
        start = op.start_cycle
    return start


def rewind(pipe: Pipe, base: Optional[Checkpoint]) -> None:
    """Put ``pipe`` at ``base``, or at power-on when ``base`` is None.

    ``base`` speaks the pipe's design version (every checkpoint in a
    session's store does).  Power-on is what a fresh :class:`Pipe` has:
    zero state, zero inputs, cycle 0, poison clear --
    ``Pipe.reset_state`` alone keeps the inputs last driven, which a
    replay would then see in cycles that never had them.  Samples a
    trace attached to the pipe holds from the rewind point on describe
    a timeline that no longer exists; its subscribers get a rewind
    marker.
    """
    if base is not None:
        pipe.restore_transformed(base.snapshot)
    else:
        pipe.reset_state()
        for name in pipe.input_names:
            pipe.set_input(name, 0)
    if pipe.trace_buffer is not None:
        pipe.trace_buffer.truncate_from(pipe.cycle)


def replay_ops(
    pipe: Pipe,
    ops: Sequence[SessionOp],
    to_cycle: int,
    tb_lookup: Callable[[str], Testbench],
    on_cycle: "Callable[[Pipe], None] | None" = None,
) -> int:
    """Re-apply recorded operations until ``pipe.cycle == to_cycle``.

    The pipe may start anywhere at or after the history's beginning
    (e.g. at a reloaded checkpoint).  Each overlapping op's testbench is
    rebased to its original start cycle so cycle-relative stimulus
    replays identically.  ``on_cycle`` (if given) runs after every
    simulated cycle — the checkpointer hooks in here.

    ``ops`` are in cycle order (``run`` appends them, ``ldch`` trims
    the tail), so the first op that ends after the pipe's cycle is
    found by bisection: a replay costs the ops it overlaps, not the
    length of the session.

    Returns the number of cycles executed.
    """
    if to_cycle < pipe.cycle:
        raise SimulationError(
            f"cannot replay backwards: pipe at {pipe.cycle}, target {to_cycle}"
        )
    first, high = 0, len(ops)
    while first < high:
        middle = (first + high) // 2
        if ops[middle].end_cycle <= pipe.cycle:
            first = middle + 1
        else:
            high = middle
    executed = 0
    for op in ops[first:]:
        if op.start_cycle >= to_cycle:
            break
        testbench = tb_lookup(op.tb_handle)
        testbench.rebase(op.start_cycle)
        span_end = min(op.end_cycle, to_cycle)
        while pipe.cycle < span_end:
            step = 1 if on_cycle is not None else span_end - pipe.cycle
            chunk = testbench.run(pipe, step)
            executed += chunk
            if on_cycle is not None:
                on_cycle(pipe)
            if chunk == 0:
                # Testbench stopped early (watcher fired); force one
                # cycle forward to guarantee progress during replay.
                pipe.tick()
                executed += 1
                if on_cycle is not None:
                    on_cycle(pipe)
    if pipe.cycle < to_cycle:
        raise SimulationError(
            f"history ends at cycle {pipe.cycle}, cannot reach {to_cycle}"
        )
    return executed


def ops_until(ops: Sequence[SessionOp], cycle: int) -> List[SessionOp]:
    """The history up to ``cycle``: the ops that end by then, and the
    one that spans it cut there (its earlier cycles really happened)."""
    return [
        op if op.end_cycle <= cycle else replace(op, end_cycle=cycle)
        for op in ops if op.start_cycle < cycle
    ]
