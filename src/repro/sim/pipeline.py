"""Pipe: the simulation entry-level entity (the paper's UUT).

A :class:`Pipe` owns the top :class:`StageInst` tree, the current input
values, and the cycle counter.  One simulated cycle is ``eval`` (settle
the combinational logic the outputs need) followed by ``tick`` (finish
the rest with every input known, compute and commit the next state —
the clock edge), through the two entry points of
:mod:`repro.codegen.module`.  The pipe's settled outputs are the one
memo: ``tick`` settles the top first unless nothing changed since the
last ``eval``, and builds the outputs only for a watcher or a trace
(:meth:`Pipe.step`).

An edge writes most registers in place (:mod:`repro.codegen.pygen`), so
an exception out of one leaves the tree between two cycles: the pipe is
then *torn* (:attr:`Pipe.torn`) and refuses to run or be snapshotted
until a restore puts it at a cycle again.  The session does that through
its tracked history (:mod:`repro.live.replay`).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional, Set, Tuple

from ..codegen.module import CompiledModule
from ..hdl.errors import SimulationError
from .stage import StageInst, StateSnapshot

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
            top_key, self.library, name="top", pipe=self
        )
        self.cycle = 0
        self._inputs: Dict[str, int] = {
            port: 0 for port in self.top.code.inputs
        }
        # What _bind_entries returns: rebound when an input changes or
        # the state lists or library are replaced, not every cycle.
        self._entries: Optional[tuple] = None
        self._last_outputs: Optional[Dict[str, int]] = None
        self._trace = None  # Optional[repro.trace.TraceBuffer]
        self._torn: Optional[int] = None

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
            self._entries = self._last_outputs = None

    def set_inputs(self, **values: int) -> None:
        for name, value in values.items():
            if self._inputs.get(name) != value:  # set_input refuses a bad name
                self.set_input(name, value)

    def get_input(self, name: str) -> int:
        return self._inputs[name]

    # -- evaluation ----------------------------------------------------------------

    def refresh_library_traits(self) -> None:
        """Forget what was derived from the previous library.

        Must be called after the library is replaced in flight (the hot
        reloader does this).
        """
        self._entries = self._last_outputs = None

    def _bind_entries(self) -> tuple:
        """The top's (eval_out, cycle) with what the generated code is
        called with bound — its calling convention has the caller mask, so
        each input is cut to its port width here, once per change, and
        packed where :func:`repro.codegen.module.packs` says so — then its
        sanitizer.  A torn pipe has none: every way to run it comes
        here first, so it is refused here."""
        if self._torn is not None:
            raise SimulationError(self._torn_message())
        top, inputs = self.top, self._inputs
        code = top.code
        signals = code.ir.signals  # flat and shared code alike

        def bind(fn: Callable, ports: Tuple[str, ...], packed: bool) -> Callable:
            args = [inputs[n] & ((1 << signals[n].width) - 1) for n in ports]
            if packed:
                return partial(fn, top.state, top.children, tuple(args))
            return partial(fn, top.state, top.children, *args)

        entries = self._entries = (
            bind(code.eval_out_fn, code.comb_input_ports, code.eval_out_packed),
            bind(code.cycle_fn, code.inputs, code.cycle_packed),
            code.sanitizer,
        )
        return entries

    def eval(self) -> Dict[str, int]:
        """Settle combinational logic (phase 1); returns the outputs:
        the pipe's own cache, not a copy.  The generated code keeps no
        memo, so this is the one: a repeated ``eval`` with nothing
        changed in between recomputes nothing.  A comb loop settles
        inside its own module's generated code."""
        outputs = self._last_outputs
        if outputs is None:
            eval_out = (self._entries or self._bind_entries())[0]
            outputs = self._last_outputs = dict(zip(self.top.code.outputs, eval_out()))
        return outputs

    def outputs(self) -> Dict[str, int]:
        """The settled outputs (:meth:`eval`)."""
        return self.eval()

    def attach_trace(self, buffer) -> None:
        """Capture ``buffer`` (a :class:`repro.trace.TraceBuffer`) on
        every tick.  One buffer per pipe; None detaches."""
        self._trace = buffer

    @property
    def trace_buffer(self):
        return self._trace

    @property
    def torn(self) -> Optional[int]:
        """The cycle an interrupted edge started from, or None.

        An exception out of the top's ``cycle`` (other than a sanitizer
        trap, which waits for the edge to end) leaves some instances
        past the edge and some before it, and registers written in
        place where they stood.  A torn pipe refuses :meth:`step`,
        :meth:`tick`, :meth:`eval` and :meth:`snapshot` until
        :meth:`restore`, :meth:`restore_transformed` or
        :meth:`reset_state` replaces its state."""
        return self._torn

    def _torn_message(self) -> str:
        return (f"pipe {self.name!r} is torn: the edge from cycle {self._torn} "
                "was interrupted; restore it before it runs again")

    def tick(self) -> None:
        """Run phase 2 and commit pending state — the clock edge, which
        every instance takes: a sanitizer trap inside it is raised from
        here once the edge is complete (state and ``cycle`` are what
        ``report`` mode holds), any other exception tears the pipe
        (:attr:`torn`).  ``cycle`` reads what ``eval_out`` left in the
        state, so the top is settled first unless nothing changed since
        it last was (a trap while settling leaves ``cycle`` as it
        was)."""
        eval_out, cycle, sanitizer = self._entries or self._bind_entries()
        trace = self._trace
        if self._last_outputs is None:
            if trace is None:
                eval_out()  # nothing reads the outputs
            else:
                self.eval()
        if trace is not None:
            trace.capture(self)
        if sanitizer is not None:
            sanitizer.begin_edge()
        try:
            cycle()
        except BaseException:
            self._torn, self._entries = self.cycle, None
            raise
        finally:
            self._last_outputs = None
            trap = sanitizer.end_edge() if sanitizer is not None else None
        self.cycle += 1
        if trap is not None:
            raise trap

    def invalidate(self) -> None:
        """Drop the settled outputs, so the next ``eval`` or ``tick``
        settles again.

        Call after mutating state directly (e.g. writing into a memory
        list obtained from :meth:`StageInst.memory`).
        """
        self._last_outputs = None

    def step(
        self,
        cycles: int = 1,
        driver: Optional[Driver] = None,
        watcher: Optional[Watcher] = None,
    ) -> int:
        """Run ``cycles`` ticks, each settled first by ``eval`` for a
        watcher or a trace (else by ``tick`` itself).

        ``driver`` (if given) is called before each cycle to update the
        inputs.  ``watcher`` is called with the settled outputs before
        each tick; returning True stops *before* the tick (the watched
        condition holds at the current cycle).  Returns the number of
        cycles actually executed.
        """
        settle = watcher is not None or self._trace is not None
        for executed in range(cycles):
            if driver is not None:
                driver(self)
            if settle:
                outputs = self.eval()
                if watcher is not None and watcher(self, outputs):
                    return executed
            self.tick()
        return max(cycles, 0)

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
        """The pipe's state now; what equals ``base``'s is shared with
        it (:meth:`StageInst.snapshot`), the inputs included."""
        if self._torn is not None:
            raise SimulationError(self._torn_message())
        if base is None:
            return PipeSnapshot(self.cycle, dict(self._inputs), self.top.snapshot())
        inputs = base.inputs
        if inputs != self._inputs:
            inputs = dict(self._inputs)
        return PipeSnapshot(self.cycle, inputs, self.top.snapshot(base.state))

    def restore(self, snap: "PipeSnapshot") -> None:
        self.top.restore(snap.state)
        self.cycle = snap.cycle
        self._inputs = dict(snap.inputs)
        self._entries = self._last_outputs = self._torn = None

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
        self._entries = self._last_outputs = self._torn = None

    def reset_state(self) -> None:
        """Return every register/memory to power-on zero; cycle to 0.

        The inputs keep the values last driven (a testbench resets a
        design and goes on driving it).  A rewind to power-on, where
        nothing has been driven yet, is
        :func:`repro.live.replay.rewind` with no base.
        """
        self.top.reset_state()  # new state lists
        self.cycle = 0
        self._entries = self._last_outputs = self._torn = None

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
        """:meth:`total_bytes` less the records, register tuples and
        memory pages already in ``seen`` (:meth:`StateSnapshot.resident_bytes`)."""
        return self.state.resident_bytes(seen) + 8 * (len(self.inputs) + 1)
