"""The runtime contract: what a compiled module is and how it is called.

A cycle is two walks of the instance tree, through two entry points:

* ``eval_out(state, children, *comb_inputs) -> outputs`` — a *pure*
  function of the instance state and the inputs that combinationally
  affect outputs (see :mod:`repro.ir.dataflow`).  Sequential-only
  inputs (resets, stalls, enables) are NOT arguments — which is what
  lets a pipeline with feedback (branch redirect into fetch, writeback
  into decode) schedule in one ordered pass with no fixed-point
  iteration.  It leaves in the state the settled locals ``cycle``
  reads (the stash).
* ``cycle(state, children, *all_inputs)`` — runs once per cycle with
  every input settled: finishes the combinational values from the
  stash, writes the next register values in place and queues memory
  writes, runs the children's ``cycle``, then commits its own memory
  writes (the clock edge, on the way back up).

Calling convention: arguments are in ``[0, 2**width)`` of their port
and *the caller guarantees it*; the callee masks nothing.  By
:mod:`exprgen`'s value invariant an argument can only exceed its port
when the connected expression is statically wider, which is where the
generated caller masks (:mod:`pygen`); top-level inputs are masked by
:class:`~repro.sim.pipeline.Pipe`, the only caller of the raw entry
points under ``src/``.  An entry point with more ports than
:func:`packs` allows (28) takes them as one tuple, ``_in``, and unpacks
it on entry; its callers build that tuple.  With it, no generated call
passes more than :data:`STACK_ITEMS` arguments and no tuple display on
the right of an assignment holds more than that many items, so the
kernel stays off CPython's slow paths for both (``CALL_FUNCTION_EX``;
``BUILD_LIST`` + ``LIST_APPEND`` + ``LIST_TO_TUPLE``).

A genuine combinational loop is one step of the schedule
(``ModuleIR.loops``).  ``eval_out`` and ``cycle`` each repeat the part
of that step the partition gives them until the locals it binds stop
moving (:func:`settle_loop`).  Every signal on a cycle has the same
input dependencies, so a loop an output reads settles in ``eval_out``
and one only a register reads in ``cycle``; only a child instance on a
loop can bind outputs on both sides.  A module with a loop takes
``comb_input_ports`` like any other and is stashed and optimized the
same way, at any depth of the tree.

State array layout per instance (a plain Python list)::

    [0 .. NR)          register values, one slot each
    [NR]               the stash: settled locals the next part or cycle reads
    [NR+1 + j]         memory j contents (list of ints)
    [NR+1+NM + j]      memory j pending writes (list of (addr, value))
    [NR+1+2NM + k]     the page marks of the k-th memory deeper than one
                       page (:class:`PageMarks`)

followed, in sanitized builds, by the poison bitmaps and the per-cycle
nonblocking-write dict (see :class:`StateLayout`).

``cycle`` writes every register straight into its slot (pygen's
in-place rule); one whose old value it reads after a write it reads
from a local bound before any write.  Invariant: whenever no clock edge
is in flight, every pending-write list is empty.  ``cycle`` relies on
it and restores it; the other writers (``make_state``,
``StageInst.load``) leave the lists empty.  An edge interrupted by an
exception breaks it, and leaves its pipe torn until a restore
(:attr:`repro.sim.pipeline.Pipe.torn`).

Invariant: a memory with page marks equals the image its marks were
last synced with (:attr:`PageMarks.image`) outside its marked pages.
Every writer keeps it: ``cycle``'s commit marks the page of each word
it writes, ``StageInst.write_memory`` the pages it writes, and a
capture or a load of the memory syncs the marks to that image.  A
checkpoint take then compares, and a rewind copies, only the pages where
the words can differ from its base or its target.

Anything that mutates state outside ``cycle`` (snapshot restore, pokes,
direct memory writes) must drop the pipe's settled outputs, so that the
next edge settles again and every stash is rewritten from the new
state — see :meth:`repro.sim.stage.StageInst.invalidate_cache`.
"""

from __future__ import annotations

import linecache
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterator, List, NamedTuple, Sequence, Tuple

from ..hdl.errors import ConvergenceError
from ..ir.netlist import ModuleIR
from .build import BuildConfig
from .emitter import FunctionEmitter, block

# Passes a comb loop's generated settle loop runs before ConvergenceError.
MAX_PASSES = 16

# Words per page of a memory, in its marks and its checkpoint images:
# word ``a`` is on page ``a >> PAGE_SHIFT``.  Smaller pages share more
# between consecutive checkpoints but cost more to capture, larger ones
# the reverse (the table in EXPERIMENTS.md, §V-B).
PAGE_SHIFT = 8
PAGE_WORDS = 1 << PAGE_SHIFT

# The most items CPython (3.10-3.12) puts on its stack for one call or
# one tuple display: a call with more arguments compiles to
# CALL_FUNCTION_EX, a longer display to a list built item by item.
STACK_ITEMS = 30


def packs(ports: Sequence[str]) -> bool:
    """The calling convention: whether an entry point taking ``ports``
    takes them as one tuple (``s``, ``ch`` and one argument per port
    would pass :data:`STACK_ITEMS`)."""
    return len(ports) + 2 > STACK_ITEMS


def _pieces(items: Sequence[str]) -> List[str]:
    return [
        "(" + "".join(f"{item}, " for item in items[at:at + STACK_ITEMS]) + ")"
        for at in range(0, max(len(items), 1), STACK_ITEMS)
    ]


def flat_tuple(items: Sequence[str]) -> str:
    """A tuple display of ``items``, concatenated from pieces CPython
    builds on its stack."""
    return " + ".join(_pieces(items))


def nested_tuple(items: Sequence[str]) -> str:
    """A tuple of ``items`` nested in pieces when it is longer than one:
    the same text stores and unpacks it, cheaper than :func:`flat_tuple`
    for a tuple only its own module reads (the stash, a comb loop's locals)."""
    pieces = _pieces(items)
    if len(pieces) == 1:
        return pieces[0]
    return "(" + "".join(f"{piece}, " for piece in pieces) + ")"


@contextmanager
def settle_loop(emit: FunctionEmitter, names: Sequence[str],
                key: str) -> Iterator[None]:
    """Run the comb body emitted inside to a fixed point: the locals
    ``names`` start at zero and the body repeats until a pass leaves
    them all unchanged; after :data:`MAX_PASSES` the generated code
    raises ``ConvergenceError`` naming module ``key``."""
    for name in names:
        emit.line(f"{name} = 0")
    settled = nested_tuple(names)
    with block(emit, f"for _pass in range({MAX_PASSES}):"):
        emit.line(f"_was = {settled}")
        yield
        with block(emit, f"if {settled} == _was:"):
            emit.line("break")
    with block(emit, "else:"):
        message = f"{key}: comb loop did not settle in {MAX_PASSES} passes"
        emit.line(f"raise ConvergenceError({message!r})")


class PageMarks(set):
    """The pages one memory's writers wrote since its words last equalled
    ``image`` (an earlier capture of them, or None when no image is
    known and every page counts as written)."""

    __slots__ = ("image",)

    def __init__(self) -> None:
        super().__init__()
        self.image = None

    def sync(self, image, pages=()) -> None:
        """The words now equal ``image`` outside ``pages``."""
        self.clear()
        self.update(pages)
        self.image = image


class StateLayout(NamedTuple):
    """Where each region of an instance's state list starts."""

    stash_slot: int  # the settled locals the next part or cycle reads
    mem_base: int  # NM contents lists, NM pending-write lists, the page marks
    # Sanitized builds (repro.sanitize) add NM + 2 slots:
    #   [sanitize_base]           register poison bitmap (bit i <-> reg i)
    #   [sanitize_base + 1 + j]   memory j word-poison bitmap
    #   [nw_slot]                 per-cycle nonblocking-write dict
    sanitize_base: int
    reg_poison_slot: int  # -1 in clean builds
    nw_slot: int  # -1 in clean builds
    state_size: int


@dataclass
class MemSpec:
    """Where one memory's contents and pending writes live in the state."""
    name: str
    width: int
    depth: int
    slot: int  # state index of the contents list
    pending_slot: int  # state index of the pending-writes list
    poison_slot: int = -1  # word-poison bitmap slot (sanitized builds only)
    marks_slot: int = -1  # PageMarks slot (memories deeper than one page)


def state_layout(num_regs: int, memories: Sequence[Tuple[str, int, int]],
                 sanitize: bool) -> Tuple[StateLayout, Dict[str, MemSpec]]:
    """The layout of an instance with ``num_regs`` registers and the
    ``memories`` (name, width, depth) in slot order, and the spec of
    each memory under it, by name."""
    num_mems = len(memories)
    stash_slot = num_regs
    mem_base = stash_slot + 1  # the stash is one slot
    paged = [j for j, (_, _, depth) in enumerate(memories) if depth > PAGE_WORDS]
    marks = {j: mem_base + 2 * num_mems + k for k, j in enumerate(paged)}
    sanitize_base = mem_base + 2 * num_mems + len(paged)
    layout = StateLayout(
        stash_slot=stash_slot,
        mem_base=mem_base,
        sanitize_base=sanitize_base,
        reg_poison_slot=sanitize_base if sanitize else -1,
        nw_slot=sanitize_base + 1 + num_mems if sanitize else -1,
        state_size=sanitize_base + (num_mems + 2 if sanitize else 0),
    )
    return layout, {
        name: MemSpec(name, width, depth, slot=mem_base + j, pending_slot=mem_base + num_mems + j,
                      poison_slot=sanitize_base + 1 + j if sanitize else -1,
                      marks_slot=marks.get(j, -1))
        for j, (name, width, depth) in enumerate(memories)
    }


@dataclass
class CompiledModule:
    """A hot-swappable compiled module specialization.

    The Python analogue of one of the paper's shared-object libraries:
    a self-contained unit that instances point at and that hot reload
    can replace in flight.
    """

    key: str
    name: str
    ir: ModuleIR
    eval_out_fn: Callable
    cycle_fn: Callable
    source: str
    inputs: Tuple[str, ...]
    comb_input_ports: Tuple[str, ...]  # the eval_out argument list
    outputs: Tuple[str, ...]
    num_regs: int
    layout: StateLayout
    reg_slots: Dict[str, int]  # register name -> its slot
    reg_widths: Dict[str, int]
    mem_specs: Dict[str, MemSpec]
    child_insts: Tuple[Tuple[str, str], ...]  # (instance name, child key)
    source_hash: str
    build: BuildConfig
    # Sanitizer accounting (repro.sanitize.instrument): the hooks the
    # generator came to while emitting this build (an expression emitted
    # in both entry points counts twice), and how many of them an index
    # too narrow to reach its bound let it write as clean code.
    san_sites: int = 0
    san_elided: int = 0
    # Whether eval_out / cycle take their ports as one tuple (packs());
    # code from another generator (flatgen) takes them positionally.
    eval_out_packed: bool = False
    cycle_packed: bool = False
    # The parts of the settled body parents call besides eval_out, by
    # function name (callplan.part_name); each is also an attribute of
    # that name.
    parts_fn: Dict[str, Callable] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.__dict__.update(self.parts_fn)

    @property
    def sanitizer(self):
        """The SanitizerRuntime this code reports to (clean build: None)."""
        return self.cycle_fn.__globals__.get("_san")

    @cached_property
    def reg_names(self) -> Tuple[str, ...]:
        """Register names in slot order (``reg_names[i]`` lives in slot
        ``i``): one tuple per compiled module, which every snapshot
        record captured from it shares."""
        return tuple(sorted(self.reg_slots, key=self.reg_slots.__getitem__))

    @cached_property
    def reg_masks(self) -> Tuple[int, ...]:
        """Each register's largest value, in slot order."""
        return tuple((1 << self.reg_widths[name]) - 1 for name in self.reg_names)

    @cached_property
    def mem_order(self) -> Tuple[MemSpec, ...]:
        """The memory specs in slot order."""
        return tuple(sorted(self.mem_specs.values(), key=lambda m: m.slot))

    @cached_property
    def mem_names(self) -> Tuple[str, ...]:
        """The memory names in slot order, shared like :attr:`reg_names`."""
        return tuple(spec.name for spec in self.mem_order)

    def make_state(self) -> list:
        state: list = [0] * self.num_regs
        state.extend([None] * (self.layout.mem_base - self.num_regs))
        ordered = self.mem_order
        for spec in ordered:
            state.append([0] * spec.depth)
        for spec in ordered:
            state.append([])
        state.extend(PageMarks() for spec in ordered if spec.marks_slot >= 0)
        if self.build.sanitize:
            # Cold start is defined power-on zero: all poison clear.
            state.append(0)  # register poison bitmap
            state.extend(0 for _ in ordered)  # per-memory word poison
            state.append({})  # nonblocking writes this cycle
        return state


def exec_source(
    source: str, filename: str, build: BuildConfig, runtime: object
) -> Dict[str, object]:
    """Exec generated ``source`` and return its globals (both
    generators, and the artifact store's rehydration).  A comb loop
    raises the ``ConvergenceError`` global; instrumented source binds
    ``runtime`` as its ``_san`` global."""
    namespace: Dict[str, object] = {"ConvergenceError": ConvergenceError}
    if build.sanitize:
        namespace["_san"] = runtime
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102
    linecache.cache[filename] = (
        len(source), None, source.splitlines(keepends=True), filename
    )
    return namespace


def entry_points(namespace: Dict[str, object]) -> Dict[str, object]:
    """A shared module's entry points in its :func:`exec_source`
    globals, as :class:`CompiledModule` keyword arguments."""
    parts = {name: fn for name, fn in namespace.items()
             if name.startswith("eval_") and name != "eval_out"}
    return {"eval_out_fn": namespace["eval_out"], "cycle_fn": namespace["cycle"], "parts_fn": parts}
