"""Regression system on top of LiveSim (paper §III-A).

*"Instead of viewing the session history as a linear list of individual
checkpoints, a regression system could be built on top of LiveSim,
which could run a set of testbenches on the system and report their
result as a batch.  Regression is particularly useful to test if the
system state progresses as expected, starting from an arbitrary state,
not necessarily from the initial state."*

A :class:`RegressionSuite` holds named cases — (start state, testbench,
cycle budget, check) — and runs them as a batch against the session's
current design.  Each case runs in a disposable copy of the pipeline,
so the developer's live state is never disturbed; after a hot reload
the same suite re-runs against the patched design in one call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

from ..hdl.errors import SimulationError
from ..sim.pipeline import Pipe
from ..sim.testbench import Testbench
from .checkpoint import Checkpoint
from .replay import replay_ops, rewind
from .session import LiveSession

CheckFn = Callable[[Pipe], bool]
StartSpec = Union[None, int, Checkpoint]  # None=power-on, int=cycle


@dataclass
class RegressionCase:
    """One batch entry: where to start, what to run, what must hold."""

    name: str
    testbench: Testbench
    cycles: int
    check: CheckFn
    start: StartSpec = None
    description: str = ""


@dataclass
class CaseResult:
    name: str
    passed: bool
    start_cycle: int
    end_cycle: int
    seconds: float
    error: str = ""


@dataclass
class RegressionReport:
    results: List[CaseResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    design_version: str = ""

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> List[CaseResult]:
        return [r for r in self.results if not r.passed]

    def summary(self) -> str:
        ok = sum(1 for r in self.results if r.passed)
        lines = [
            f"regression @ design {self.design_version}: "
            f"{ok}/{len(self.results)} passed "
            f"({self.wall_seconds:.2f}s)"
        ]
        for result in self.results:
            mark = "PASS" if result.passed else "FAIL"
            detail = f" — {result.error}" if result.error else ""
            lines.append(
                f"  [{mark}] {result.name}  "
                f"(cycles {result.start_cycle}->{result.end_cycle}, "
                f"{result.seconds * 1e3:.1f} ms){detail}"
            )
        return "\n".join(lines)


class RegressionSuite:
    """A batch of checks runnable against a live session's pipeline."""

    def __init__(self, session: LiveSession, pipe_name: str):
        self._session = session
        self._pipe_name = pipe_name
        self._cases: List[RegressionCase] = []

    def add(
        self,
        name: str,
        testbench: Testbench,
        cycles: int,
        check: CheckFn,
        start: StartSpec = None,
        description: str = "",
    ) -> RegressionCase:
        if any(c.name == name for c in self._cases):
            raise SimulationError(f"duplicate regression case {name!r}")
        case = RegressionCase(
            name=name, testbench=testbench, cycles=cycles,
            check=check, start=start, description=description,
        )
        self._cases.append(case)
        return case

    def __len__(self) -> int:
        return len(self._cases)

    # -- execution -----------------------------------------------------------

    def _start_pipe(self, case: RegressionCase) -> Pipe:
        """A disposable pipe positioned at the case's start state: a
        checkpoint, power-on, or the state the session's recorded
        history reaches at a cycle."""
        session = self._session
        timeline = session.timeline(self._pipe_name)
        pipe = timeline.pipe.copy(name=f"regression:{case.name}")
        if isinstance(case.start, int):
            rewind(pipe, session.in_current_version(
                timeline.base(case.start)
            ))
            replay_ops(pipe, timeline.ops, case.start, session.testbench)
        else:
            rewind(pipe, session.in_current_version(case.start))
        return pipe

    def run(self, names: Optional[Sequence[str]] = None) -> RegressionReport:
        """Run all (or the named) cases; never touches the live pipe."""
        started = time.perf_counter()
        report = RegressionReport(design_version=self._session.version)
        selected = [
            c for c in self._cases if names is None or c.name in names
        ]
        for case in selected:
            case_started = time.perf_counter()
            error = ""
            try:
                pipe = self._start_pipe(case)
                start_cycle = pipe.cycle
                case.testbench.rebase(start_cycle)
                case.testbench.run(pipe, case.cycles)
                passed = bool(case.check(pipe))
                end_cycle = pipe.cycle
            except Exception as exc:  # a crashing case is a failing case
                passed = False
                start_cycle = end_cycle = -1
                error = f"{type(exc).__name__}: {exc}"
            report.results.append(
                CaseResult(
                    name=case.name,
                    passed=passed,
                    start_cycle=start_cycle,
                    end_cycle=end_cycle,
                    seconds=time.perf_counter() - case_started,
                    error=error,
                )
            )
        report.wall_seconds = time.perf_counter() - started
        return report
