"""Testbench objects (paper §III-B1).

A testbench is "an operation that can be performed on a stage ... for
any given number of cycles".  Crucially for LiveSim, the operations a
testbench applied are *recorded as session history*, so after a hot
reload the same operations can be replayed against the patched design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .pipeline import Pipe


class Testbench:
    """Base class; subclasses override :meth:`drive`.

    ``drive(pipe)`` is called before each cycle's eval and may set
    inputs based on ``pipe.cycle``.  ``check(pipe, outputs)`` may stop
    the run early by returning True.
    """

    name = "testbench"

    def drive(self, pipe: Pipe) -> None:  # pragma: no cover - default no-op
        pass

    def check(self, pipe: Pipe, outputs: Dict[str, int]) -> bool:
        return False

    def rebase(self, start_cycle: int) -> None:
        """Pin the cycle this testbench run logically started at.

        Replay (checkpoint reload, consistency verification) re-enters
        a testbench midway; a testbench whose stimulus depends on the
        cycle offset must honour this so the replayed drive matches the
        original run.
        """

    def run(self, pipe: Pipe, cycles: int) -> int:
        """Run ``cycles`` cycles; returns cycles actually executed (the
        default ``check`` is no watcher: nothing settles unread outputs)."""
        check = None if type(self).check is Testbench.check else self.check
        return pipe.step(cycles, driver=self.drive, watcher=check)


class CallbackTestbench(Testbench):
    """Adapts plain functions into a testbench; ``run`` hands them to ``Pipe.step``."""

    def __init__(
        self,
        name: str,
        drive: Optional[Callable[[Pipe], None]] = None,
        check: Optional[Callable[[Pipe, Dict[str, int]], bool]] = None,
    ):
        self.name = name
        self._drive = drive
        self._check = check

    def drive(self, pipe: Pipe) -> None:
        if self._drive is not None:
            self._drive(pipe)

    def check(self, pipe: Pipe, outputs: Dict[str, int]) -> bool:
        if self._check is not None:
            return self._check(pipe, outputs)
        return False

    def run(self, pipe: Pipe, cycles: int) -> int:
        return pipe.step(cycles, driver=self._drive, watcher=self._check)


@dataclass
class VectorTestbench(Testbench):
    """Drives per-cycle input vectors and records output vectors.

    ``vectors[i]`` is applied at the i-th cycle of the run; the last
    vector is held afterwards.  Recorded outputs can be compared across
    design versions — the consistency checker uses this to detect
    divergence.
    """

    name: str = "vectors"
    vectors: Sequence[Dict[str, int]] = field(default_factory=list)
    record: List[Dict[str, int]] = field(default_factory=list)
    _base_cycle: Optional[int] = None

    def drive(self, pipe: Pipe) -> None:
        if self._base_cycle is None:
            self._base_cycle = pipe.cycle
        if not self.vectors:
            return
        index = min(pipe.cycle - self._base_cycle, len(self.vectors) - 1)
        pipe.set_inputs(**self.vectors[index])

    def check(self, pipe: Pipe, outputs: Dict[str, int]) -> bool:
        self.record.append(dict(outputs))
        return False

    def rebase(self, start_cycle: int) -> None:
        self._base_cycle = start_cycle

    def reset(self) -> None:
        self.record = []
        self._base_cycle = None


def hold_inputs(**values: int) -> CallbackTestbench:
    """A testbench that simply holds constant input values."""

    def drive(pipe: Pipe) -> None:
        pipe.set_inputs(**values)

    return CallbackTestbench(name="hold", drive=drive)


def reset_sequence(
    reset_name: str = "rst", cycles: int = 2, active_high: bool = True
) -> CallbackTestbench:
    """Asserts reset while the *absolute* cycle is below ``cycles``.

    Keyed to the absolute cycle (not the run start) so replays from a
    checkpoint reproduce the original stimulus.
    """

    def drive(pipe: Pipe) -> None:
        in_reset = pipe.cycle < cycles
        value = int(in_reset) if active_high else int(not in_reset)
        pipe.set_input(reset_name, value)

    return CallbackTestbench(name="reset", drive=drive)
