"""Pipe: the simulation entry-level entity (the paper's UUT).

A :class:`Pipe` owns the top :class:`StageInst` tree, the current input
values, and the cycle counter.  One simulated cycle is ``eval`` (settle
the combinational logic the outputs need) followed by ``tick`` (finish
the rest with every input known, compute and commit the next state —
the clock edge): one walk of the instance tree each, through the two
entry points of :mod:`repro.codegen.pygen`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..codegen.pygen import CompiledModule
from ..hdl.errors import ConvergenceError, SimulationError
from .stage import StageInst, StateSnapshot

# Settling passes a top-level comb loop gets before ConvergenceError.
MAX_PASSES = 16

Driver = Callable[["Pipe"], None]
Watcher = Callable[["Pipe", Dict[str, int]], bool]


class Pipe:
    """A running unit under test."""

    def __init__(
        self,
        top_key: str,
        library: Dict[str, CompiledModule],
        name: str = "pipe",
    ):
        self.name = name
        self.library = dict(library)
        self.top = StageInst.build(
            top_key, self.library, name="top", parent=self
        )
        self.cycle = 0
        self._inputs: Dict[str, int] = {
            port: 0 for port in self.top.code.inputs
        }
        # The (eval_out, cycle) argument lists: rebuilt when an input
        # changes or the library is swapped, not every cycle.
        self._args: Optional[Tuple[List[int], List[int]]] = None
        self._last_outputs: Optional[Dict[str, int]] = None
        self._trace = None  # Optional[repro.trace.TraceBuffer]

    # -- inputs / outputs -------------------------------------------------------

    @property
    def input_names(self) -> Tuple[str, ...]:
        return self.top.code.inputs

    @property
    def output_names(self) -> Tuple[str, ...]:
        return self.top.code.outputs

    def set_input(self, name: str, value: int) -> None:
        if name not in self._inputs:
            raise SimulationError(f"pipe has no input {name!r}")
        if self._inputs[name] != value:
            self._inputs[name] = value
            self._args = self._last_outputs = None

    def set_inputs(self, **values: int) -> None:
        for name, value in values.items():
            self.set_input(name, value)

    def get_input(self, name: str) -> int:
        return self._inputs[name]

    # -- evaluation ----------------------------------------------------------------

    def refresh_library_traits(self) -> None:
        """Forget what was derived from the previous library.

        Must be called after the library is replaced in flight (the hot
        reloader does this).
        """
        self._args = self._last_outputs = None

    def _drop_cached_evals(self) -> None:
        """The root end of :meth:`StageInst._drop_cached_evals`: state
        changed somewhere below, so the cached outputs are stale."""
        self._last_outputs = None

    def _arg_lists(self) -> Tuple[List[int], List[int]]:
        """What the generated code is called with: its calling convention
        has the caller mask, so each input is cut to its port width here,
        once per change (``get_input`` and snapshots keep what was set)."""
        args = self._args
        if args is None:
            code, inputs = self.top.code, self._inputs
            signals = code.ir.signals  # flat and shared code alike
            args = self._args = tuple(  # type: ignore[assignment]
                [inputs[n] & ((1 << signals[n].width) - 1) for n in ports]
                for ports in (code.comb_input_ports, code.inputs)
            )
        return args

    def eval(self) -> Dict[str, int]:
        """Settle combinational logic (phase 1); returns the outputs."""
        top = self.top
        code = top.code
        args = self._arg_lists()[0]
        result = code.eval_out_fn(top.state, top.children, *args)
        if code.ir.needs_fixpoint:
            # A genuine comb loop at the top (a memoized top would just
            # return its memo again): iterate until the outputs hold.
            previous = result
            for _ in range(MAX_PASSES):
                result = code.eval_out_fn(top.state, top.children, *args)
                if result == previous:
                    break
                previous = result
            else:
                raise ConvergenceError(
                    "combinational logic did not settle in "
                    f"{MAX_PASSES} passes (comb loop?)"
                )
        outputs = dict(zip(code.outputs, result))
        self._last_outputs = outputs
        return outputs

    def outputs(self) -> Dict[str, int]:
        if self._last_outputs is None:
            return self.eval()
        return self._last_outputs

    def attach_trace(self, buffer) -> None:
        """Capture ``buffer`` (a :class:`repro.trace.TraceBuffer`) on
        every tick.  One buffer per pipe; None detaches."""
        self._trace = buffer

    @property
    def trace_buffer(self):
        return self._trace

    def tick(self) -> None:
        """Run phase 2 and commit pending state — the clock edge, which
        every instance takes: a sanitizer trap inside it is raised from
        here once the edge is complete (state and ``cycle`` are what
        ``report`` mode holds), any other exception repairs the state
        layout's invariant first."""
        top = self.top
        if self._last_outputs is None:
            self.eval()
        trace = self._trace
        if trace is not None:
            trace.capture(self)
        sanitizer = top.code.sanitizer
        if sanitizer is not None:
            sanitizer.begin_edge()
        try:
            top.code.cycle_fn(top.state, top.children, *self._arg_lists()[1])
        except BaseException:
            top.abandon_edge()
            raise
        finally:
            self._last_outputs = None
            trap = sanitizer.end_edge() if sanitizer is not None else None
        self.cycle += 1
        if trap is not None:
            raise trap

    def invalidate(self) -> None:
        """Invalidate every instance's memoized combinational result.

        Call after mutating state directly (e.g. writing into a memory
        list obtained from :meth:`StageInst.memory`).
        """
        self.top.invalidate_cache()

    def step(
        self,
        cycles: int = 1,
        driver: Optional[Driver] = None,
        watcher: Optional[Watcher] = None,
    ) -> int:
        """Run full eval+tick cycles.

        ``driver`` (if given) is called before each eval to update the
        inputs.  ``watcher`` is called with the settled outputs after
        each eval; returning True stops *before* the tick (the watched
        condition holds at the current cycle).  Returns the number of
        cycles actually executed.
        """
        executed = 0
        for _ in range(cycles):
            if driver is not None:
                driver(self)
            outputs = self.eval()
            if watcher is not None and watcher(self, outputs):
                return executed
            self.tick()
            executed += 1
        return executed

    def run_until(
        self,
        predicate: Watcher,
        max_cycles: int = 1_000_000,
        driver: Optional[Driver] = None,
    ) -> bool:
        """Step until ``predicate`` holds; False if the bound is hit."""
        ran = self.step(max_cycles, driver=driver, watcher=predicate)
        return ran < max_cycles

    # -- state ------------------------------------------------------------------

    def snapshot(self, base: Optional["PipeSnapshot"] = None) -> "PipeSnapshot":
        """The pipe's state now; memory pages equal to ``base``'s are
        shared with it (:meth:`StageInst.snapshot`)."""
        return PipeSnapshot(
            cycle=self.cycle,
            inputs=dict(self._inputs),
            state=self.top.snapshot(base.state if base is not None else None),
        )

    def restore(self, snap: "PipeSnapshot") -> None:
        self.top.restore(snap.state)
        self.cycle = snap.cycle
        self._inputs = dict(snap.inputs)
        self._args = self._last_outputs = None

    def restore_transformed(self, snap: "PipeSnapshot") -> None:
        """Load a snapshot that need not match this design version.

        See :meth:`StageInst.load`; top-level inputs keep their old
        values where the port still exists.
        """
        self.top.load(snap.state)
        self.cycle = snap.cycle
        self._inputs = {
            name: snap.inputs.get(name, 0) for name in self.top.code.inputs
        }
        self._args = self._last_outputs = None

    def reset_state(self) -> None:
        """Return every register/memory to power-on zero; cycle to 0.

        The inputs keep the values last driven (a testbench resets a
        design and goes on driving it).  A rewind to power-on, where
        nothing has been driven yet, is
        :func:`repro.live.replay.rewind` with no base.
        """
        self.top.reset_state()
        self.cycle = 0
        self._last_outputs = None

    def copy(self, name: Optional[str] = None) -> "Pipe":
        """Duplicate this pipe, including its state (``copyPipe``)."""
        clone = Pipe(
            self.top.code.key,
            self.library,
            name=name or f"{self.name}_copy",
        )
        clone.restore(self.snapshot())
        return clone

    def find(self, path: str) -> StageInst:
        return self.top.find(path)


class PipeSnapshot:
    """Cycle + inputs + full state tree; the payload of a checkpoint."""

    __slots__ = ("cycle", "inputs", "state")

    def __init__(self, cycle: int, inputs: Dict[str, int], state: StateSnapshot):
        self.cycle = cycle
        self.inputs = inputs
        self.state = state

    def total_bytes(self) -> int:
        return self.state.total_bytes() + 8 * (len(self.inputs) + 1)

    def resident_bytes(self, seen: Set[int]) -> int:
        """:meth:`total_bytes` less the memory pages already in ``seen``
        (:meth:`StateSnapshot.resident_bytes`)."""
        return self.state.resident_bytes(seen) + 8 * (len(self.inputs) + 1)
