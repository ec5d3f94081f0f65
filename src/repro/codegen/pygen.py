"""Shared-module code generation (the LiveSim compilation model).

Each module specialization compiles to exactly one set of functions,
regardless of how many instances exist.  Instances share the code
object and differ only in their state arrays, reproducing the paper's
Fig. 4d: *"Each module is only compiled once, which drastically reduces
the amount of code that needs to be compiled."*

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
  stash, computes pending register values and memory writes, runs the
  children's ``cycle``, then commits its own pending state (the clock
  edge, on the way back up).

No instance keeps a memo in its state.  Instead the generator orders
the calls so that each instance's settled comb body runs exactly once
per cycle, with its final arguments, before that instance's ``cycle``:
the one memo is the pipe's settled outputs (:class:`~repro.sim.pipeline.Pipe`
settles the top before an edge unless nothing changed since it last
did).  A parent that needs some of a child's outputs before all the
child's arguments are settled calls the child in *parts* (:class:`_Wiring`):
first the part computable from the ports it has, then the rest with the
final arguments.  Each part is one function of the child's code, shared
by every instance (``eval_<lo>_<hi>``, :func:`part_name`), and it reads
what the part before it left in the stash.  The early-bind prepass for
wiring cycles is the part computable from no port at all: a ring stop's
register outputs.  Inside a comb loop a child is called again only when
a pass changed its arguments.  One plan per module per compile decides
every call: :func:`part_demand` builds each module's :class:`_Wiring`,
which walks each part the module runs once, and the generator writes
those walks.  Which parts a module's parents call is part of its
compile (``ModuleKey.parts``).

Each combinational unit is emitted once in ``eval_out`` or ``cycle``
(and again in each part that computes it), and runs only on a path that
reads it; one read nowhere (a pure continuous assign with no
sanitizer hook) is not emitted.  A continuous assign every
read of which sits in a guarded position of its function (an ``if`` /
``case`` arm, a ``?:`` arm, the right operand of ``&&`` / ``||``), no
two on one path, is written at each read instead of at its schedule
position, as the code it would have assigned (:mod:`repro.codegen.sinking`, "mux
shadowing"): a decoder's immediates are built in the arms that use
them.  Ports, the stash, child arguments, comb loops and code that
carries a sanitizer hook stay where the schedule puts them, so the
calling convention, the state layout and every hook's firing are what
they were.

A signal is *settled in phase 1* when it depends on no input outside
the ``eval_out`` arguments (``ModuleIR.signal_deps``); ``eval_out`` emits
the scheduled units that define a settled signal and stores one tuple
of the settled locals ``cycle`` reads.  ``cycle`` unpacks that tuple and
emits only the units that define an unsettled signal.  A part ending
short of every comb port stores, the same way, the tuple of locals the
parts after it read.  A child whose subtree holds no register, no
memory and no sanitizer site is not sent its ``cycle``.

Ordering invariant: a parent reads registered child outputs and
evaluates every child argument from its locals and its own uncommitted
state, never from a child's state after that child's ``cycle``; so a
sibling never sees another sibling's post-edge value, and the parent's
own commit comes last.  An edge is atomic: a sanitizer trap inside
``cycle`` is raised once the edge is complete, and any other exception
re-syncs the tree (:meth:`repro.sim.pipeline.Pipe.tick`).

A child's entry points are instance attributes of its
:class:`CompiledModule`, which CPython cannot load as a method with a
specialised instruction; so every call names its callee,
``(_e := _c1.code.eval_out_fn)(...)``, and the callee is a plain
attribute load, which it specialises.

Calling convention: arguments are in ``[0, 2**width)`` of their port
and *the caller guarantees it*; the callee masks nothing.  By
:mod:`exprgen`'s value invariant an argument can only exceed its port
when the connected expression is statically wider, which is where the
generated caller masks (``_child_args``); top-level inputs are masked by
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

    [0 .. NR)          current register values
    [NR .. 2*NR)       pending (next-cycle) values
    [2*NR]             the stash: settled locals the next part or cycle reads
    [2*NR+1 + j]       memory j contents (list of ints)
    [2*NR+1+NM + j]    memory j pending writes (list of (addr, value))

followed, in sanitized builds, by the poison bitmaps and the per-cycle
nonblocking-write dict (see :class:`StateLayout`).

Invariant: whenever no clock edge is in flight, pending == current and
every pending-write list is empty.  ``cycle`` relies on it (it commits
by copying each pending value, ``s[i] = s[NR + i]`` per register, which
for a module's few registers is cheaper than a slice read and a slice
store) and restores it; the other writers (``make_state``,
``StageInst.poke_reg`` / ``load``) set both halves.

Anything that mutates state outside ``cycle`` (snapshot restore, pokes,
direct memory writes) must drop the pipe's settled outputs, so that the
next edge settles again and every stash is rewritten from the new
state — see :meth:`repro.sim.stage.StageInst.invalidate_cache`.

Build flavours: the emitter above is the whole of a clean build, and
each optional flavour is one object it calls.  The optimizer's is an
:class:`~repro.codegen.optplan.OptPlan` (assembled by
:class:`repro.passes.codegen.CodegenPass` from the pass facts, and
carried by the module's wiring): the emitter asks it for the expression
or block body to emit and reads its dead units and skippable children;
``NO_OPT`` applies nothing.  The sanitizer's is an
:class:`~repro.sanitize.instrument.Instrumenter` (built here, one per sanitized module compile, told the build's
``san_elide``): it writes every hook, at the sites :mod:`exprgen` comes to,
at the four structural points of ``cycle`` (opening, register commit,
memory-word commit, module epilogue) and in each function's prologue
(the poison-bitmap binding), and counts them; a clean build
has ``None`` in its place.  :func:`site_count` is that same emitter
run for its count alone.

Under ``san_elide`` a sanitized function whose body reads the register
poison bitmap comes in two bodies (:meth:`_ModuleCompiler._define`):
the hooked one, named ``_pz_<name>``, and the poison-free one, written
again with the instrumenter in its poison-free mode, which keeps the
function's name and whose first line is the dispatch rule::

    if s[<register poison bitmap>]: return _pz_<name>(s, ch, <parameters>)

So an instance runs its hooked bodies exactly while one of its
registers is poisoned, and otherwise code without ``rr`` hooks, write
notes or poison clearing, in which a register read carries no hook and
mux shadowing moves what it moves in a clean build.  Both bodies share
the stash layout (each boundary's stash holds what either body reads),
the site table and the site counts (the hooked body's); see
:mod:`repro.sanitize.instrument` for why the poison-free body is exact.
"""

from __future__ import annotations

import hashlib
import linecache
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set,
    Tuple,
)

from .. import obs
from ..hdl import ast_nodes as ast
from ..hdl.consteval import expr_reads, width_of
from ..hdl.errors import CodegenError, ConvergenceError
from ..ir.netlist import ModuleIR, Netlist, UnitId
from .build import BuildConfig, ModuleKey
from .emitter import FunctionEmitter, block
from .exprgen import ATOM, BAND, COND, Code, ExprGen, Resolver, StmtGen, mask_of, paren
from .optplan import NO_OPT, OptPlan
from .sinking import MAX_COPIES, MAX_DEPTH, Path, PathReads, all_exclusive, carries_hook

CACHE_SLOTS = 1  # the stash: settled locals the next part or cycle reads

# Passes a comb loop's generated settle loop runs before ConvergenceError.
MAX_PASSES = 16

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


def _flat(items: Sequence[str]) -> str:
    """A tuple display of ``items``, concatenated from pieces CPython
    builds on its stack."""
    return " + ".join(_pieces(items))


def _slots(items: Sequence[str]) -> str:
    """A tuple of ``items`` nested in pieces when it is longer than one:
    the same text stores and unpacks it, cheaper than :func:`_flat` for
    a tuple only its own module reads (the stash, a comb loop's locals)."""
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
    settled = _slots(names)
    with block(emit, f"for _pass in range({MAX_PASSES}):"):
        emit.line(f"_was = {settled}")
        yield
        with block(emit, f"if {settled} == _was:"):
            emit.line("break")
    with block(emit, "else:"):
        message = f"{key}: comb loop did not settle in {MAX_PASSES} passes"
        emit.line(f"raise ConvergenceError({message!r})")


def _params(ports: Sequence[str]) -> str:
    """The parameters after ``s, ch`` of an entry point taking ``ports``."""
    if packs(ports):
        return ", _in"
    return "".join(f", i_{name}" for name in ports)


def _pass(ports: Sequence[str], args: Sequence[str]) -> str:
    """The arguments after ``s, ch`` of a call to an entry point taking
    ``ports``."""
    if packs(ports):
        return ", " + _flat(args)
    return "".join(f", {arg}" for arg in args)


def _entry(ref: str, attr: str) -> str:
    """The callee of a call to entry point ``attr`` of the child held in
    local ``ref``: named, so that it loads as a plain attribute."""
    return f"(_e := {ref}.code.{attr})"


def _unpack_inputs(fn: FunctionEmitter, ports: Sequence[str]) -> None:
    """A packed entry point's first use of its tuple (one flat unpack:
    an assignment target has no stack limit)."""
    if packs(ports):
        fn.line("(" + "".join(f"i_{name}, " for name in ports) + ") = _in")


def _locals(names: Sequence[str]) -> List[str]:
    return [f"v_{name}" for name in names]


# A part of a module's settled comb body: what is computed once the
# comb ports in ``hi`` have settled, given what was computed once those
# in ``lo`` had (None: nothing computed yet).  ``(None, all comb ports)``
# is the whole of ``eval_out``.
Boundary = Optional[FrozenSet[str]]
Part = Tuple[Boundary, FrozenSet[str]]

_NOTHING: FrozenSet[str] = frozenset()


def part_name(ir: ModuleIR, part: Part) -> str:
    """The name of the function that computes ``part`` of ``ir`` (and
    of the :class:`CompiledModule` attribute that holds it):
    ``eval_out`` for the whole settled body, else ``eval_<lo>_<hi>``,
    each boundary a hex mask over ``ir.comb_input_ports`` and ``n``
    where nothing is computed yet."""
    ports = ir.comb_input_ports
    lo, hi = part
    if lo is None and hi == frozenset(ports):
        return "eval_out"

    def tag(bound: Boundary) -> str:
        if bound is None:
            return "n"
        return format(sum(1 << j for j, p in enumerate(ports) if p in bound), "x")

    return f"eval_{tag(lo)}_{tag(hi)}"


def part_outputs(ir: ModuleIR, part: Part) -> List[str]:
    """The outputs ``part`` of ``ir`` returns, in declared order: those
    computable from the ports in ``hi`` and not from those in ``lo``."""
    lo, hi = part
    return [name for name in ir.outputs
            if _computed(ir.signal_deps.get(name, _NOTHING), lo, hi)]


def _computed(deps, lo: Boundary, hi: FrozenSet[str]) -> bool:
    return deps <= hi and (lo is None or not deps <= lo)


class _Step(NamedTuple):
    """A stretch of the schedule as one part of a module runs it: one
    comb loop, or the units between two loops."""

    units: List[UnitId]  # what the part emits of it, in order
    is_loop: bool  # a comb loop of the schedule
    calls: Dict[int, Part]  # instance -> the part of it the step calls
    settle: List[str]  # the locals the part repeats it until they settle


class _Wiring:
    """The call plan of one module under its :class:`OptPlan`: which
    part of each child each part of the module calls, and when.

    :func:`part_demand` builds one per module per compile, gives it the
    parts its parents call (``parts``) and walks each of its own parts
    once (:meth:`walk`); the generator writes those walks.  A walk reads
    the module's IR, the plan's dead units and skipped children, and
    each child's interface and per-output dependencies (its
    ``comb_signature``), so a caller that keys the memo ``walks`` on
    them can hand it to the next compile's wiring.  A child is
    advanced, at most once per part of the parent, to the boundary of
    its ports that part has settled (:meth:`reached`); one whose
    outputs the part does not read is not called.  The part the
    parent's ``cycle`` calls ends at all of the child's comb ports,
    unless the child's own ``cycle`` is not called (a pure subtree,
    ``plan.skip_children``) and nothing reads the rest.  A child on a
    comb loop the part repeats is called from nothing each pass, since
    the pass before has already moved it past where it started.
    """

    def __init__(self, ir: ModuleIR, netlist: Netlist, plan: OptPlan = NO_OPT,
                 walks: Optional[Dict[tuple, List[_Step]]] = None):
        self.ir = ir
        self.netlist = netlist
        self.plan = plan
        self.parts: Set[Part] = set()  # what parents call besides eval_out
        self.comb = frozenset(ir.comb_input_ports)
        self.all = frozenset(ir.inputs)
        self.skip = frozenset(plan.skip_children)
        self.early: Dict[int, List[str]] = {}  # instance -> its dep-free ports
        for index, _, _ in ir.early_bind:
            if index not in self.early:
                child = self.child(index)
                registered = ir.instances[index].registered_ports
                self.early[index] = [
                    port for port in child.outputs
                    if port not in registered
                    and not child.signal_deps.get(port, _NOTHING)]
        self.early_targets = {target for _, _, target in ir.early_bind}
        self._reached: Dict[tuple, Boundary] = {}
        self._walks = {} if walks is None else walks

    @cached_property
    def steps(self) -> List[Tuple[List[UnitId], bool]]:
        """The schedule's steps without the units the plan drops."""
        dead = {("assign", i) for i in self.plan.dead_assigns}
        dead |= {("block", i) for i in self.plan.dead_blocks}
        return self.ir.steps if not dead else [
            ([u for u in units if u not in dead], is_loop) for units, is_loop in self.ir.steps]

    @cached_property
    def _unit_deps(self) -> Dict[UnitId, FrozenSet[str]]:
        """The dependency set of each comb unit (all defines of one
        block share one)."""
        ir = self.ir
        deps = {("assign", i): self.deps(assign.defines)
                for i, assign in enumerate(ir.comb_assigns)}
        deps.update((("block", i), self.deps(comb.defines[0]))
                    for i, comb in enumerate(ir.comb_blocks))
        return deps

    def child(self, index: int) -> ModuleIR:
        return self.netlist.modules[self.ir.instances[index].child_key]

    def deps(self, name: str):
        return self.ir.signal_deps.get(name, _NOTHING)

    def conn_deps(self, index: int, port: str) -> FrozenSet[str]:
        """The input ports of this module that child ``index``'s
        ``port`` depends on through its connection."""
        expr = self.ir.instances[index].input_conns[port]
        return frozenset().union(*(self.deps(name) for name in expr_reads(expr)))

    def reached(self, index: int, upto: Boundary, in_cycle: bool = False) -> Boundary:
        """How far child ``index`` is computed once this module has
        computed what the ports in ``upto`` settle (``in_cycle``: all of
        it, in ``cycle``)."""
        if upto is None:
            return None
        key = (index, upto, in_cycle)
        if key not in self._reached:
            self._reached[key] = self._reach(index, upto, in_cycle)
        return self._reached[key]

    def _reach(self, index: int, upto: FrozenSet[str], in_cycle: bool) -> Boundary:
        ports = self.child(index).comb_input_ports
        if in_cycle and index not in self.skip:
            return frozenset(ports)
        inst = self.ir.instances[index]
        prebound = self.early.get(index, ())
        if any(self.deps(target) <= upto
               for port, target in inst.output_conns.items()
               if port not in inst.registered_ports and port not in prebound):
            return frozenset(port for port in ports
                             if self.conn_deps(index, port) <= upto)
        return _NOTHING if index in self.early else None

    def _settle(self, units, lo: Boundary, hi: FrozenSet[str]) -> List[str]:
        """The locals of comb loop step ``units`` part (lo, hi) binds,
        if a unit of the loop it runs reads one (else one pass settles
        them all, and this is empty)."""
        names = [n for u in units for n in self.ir.unit_defines(u)
                 if n not in self.early_targets and _computed(self.deps(n), lo, hi)]
        runs = [u for u in units
                if u[0] == "inst" or _computed(self._unit_deps[u], lo, hi)]
        if set(names).isdisjoint(n for u in runs for n in self.ir.unit_reads(u)):
            return []
        return names

    def _call(self, index: int, lo: Boundary, hi: FrozenSet[str],
              in_cycle: bool, looped: bool) -> Optional[Part]:
        """The part of child ``index`` that part (lo, hi) of this module
        calls at the child's place in the schedule, or None."""
        before = _NOTHING if lo is None and index in self.early else self.reached(index, lo)
        after = self.reached(index, hi, in_cycle)
        if after is None or after == before:
            return None
        return (None if looped else before), after

    def walk(self, lo: Boundary, hi: FrozenSet[str], in_cycle: bool = False) -> List[_Step]:
        """The steps part (lo, hi) of this module runs (``in_cycle``:
        ``cycle``), worked out on first use.  With nothing computed yet
        the first is the early-bind prepass, which calls each child on a
        wiring cycle (see repro.ir.schedule) for the part computable
        from no port at all: its dependency-free outputs, correct under
        any inputs."""
        key = (lo, hi, in_cycle)
        steps = self._walks.get(key)
        if steps is None:
            steps = self._walks[key] = self._walk(lo, hi, in_cycle)
        return steps

    def _walk(self, lo: Boundary, hi: FrozenSet[str], in_cycle: bool) -> List[_Step]:
        steps = []
        if lo is None and self.early:
            prepass = {index: (None, _NOTHING) for index in self.early}
            steps.append(_Step([("inst", i) for i in prepass], False, prepass, []))
        plain = _Step([], False, {}, [])
        for units, is_loop in self.steps:
            step = _Step([], True, {}, self._settle(units, lo, hi)) if is_loop else plain
            for unit in units:
                kind, index = unit
                if kind == "inst":
                    part = self._call(index, lo, hi, in_cycle, bool(step.settle))
                    if part is None:
                        continue
                    step.calls[index] = part
                elif not _computed(self._unit_deps[unit], lo, hi):
                    continue  # not computed in this part
                step.units.append(unit)
            if is_loop:
                if plain.units:
                    steps.append(plain)
                    plain = _Step([], False, {}, [])
                steps.append(step)
        if plain.units:
            steps.append(plain)
        return steps


def part_names(ir: ModuleIR, parts: Iterable[Part]) -> Tuple[str, ...]:
    """The function names of ``parts`` of ``ir``, sorted (what a
    :class:`~repro.codegen.build.ModuleKey` holds of them)."""
    return tuple(sorted(part_name(ir, part) for part in parts))


def part_demand(netlist: Netlist,
                plans: Optional[Dict[str, OptPlan]] = None,
                walks: Optional[Dict[str, dict]] = None) -> Dict[str, _Wiring]:
    """Each module's wiring under its optimization plan in ``plans``
    (none: :data:`NO_OPT`), by module key, with the parts other than
    ``eval_out`` its parents call and the walk of each part it runs.  A
    parent's own parts are known before its children's are asked for.
    ``walks`` holds, by module key, a walk memo a previous compile of
    the same module under the same plan and children filled
    (:class:`_Wiring`); only the walks it lacks are made."""
    plans = plans or {}
    walks = walks or {}
    wirings = {key: _Wiring(ir, netlist, plans.get(key, NO_OPT), walks.get(key))
               for key, ir in netlist.modules.items()}
    for key in reversed(netlist.children_first()):  # parents first
        wiring = wirings[key]
        own = [(None, wiring.comb, False), (wiring.comb, wiring.all, True)]
        own += [(lo, hi, False) for lo, hi in wiring.parts]  # eval_out, cycle, parts
        for lo, hi, in_cycle in own:
            for step in wiring.walk(lo, hi, in_cycle):
                for index, part in step.calls.items():
                    child = wirings[wiring.ir.instances[index].child_key]
                    if part_name(child.ir, part) != "eval_out":
                        child.parts.add(part)
    return wirings


class StateLayout(NamedTuple):
    """Where each region of an instance's state list starts."""

    stash_slot: int  # the settled locals the next part or cycle reads
    mem_base: int  # NM contents lists, then NM pending-write lists
    # Sanitized builds (repro.sanitize) add NM + 2 slots:
    #   [sanitize_base]           register poison bitmap (bit i <-> reg i)
    #   [sanitize_base + 1 + j]   memory j word-poison bitmap
    #   [nw_slot]                 per-cycle nonblocking-write dict
    sanitize_base: int
    reg_poison_slot: int  # -1 in clean builds
    nw_slot: int  # -1 in clean builds
    state_size: int


def state_layout(num_regs: int, num_mems: int, sanitize: bool) -> StateLayout:
    """The layout of an instance with ``num_regs`` registers and
    ``num_mems`` memories."""
    stash_slot = 2 * num_regs
    mem_base = stash_slot + CACHE_SLOTS
    sanitize_base = mem_base + 2 * num_mems
    return StateLayout(
        stash_slot=stash_slot,
        mem_base=mem_base,
        sanitize_base=sanitize_base,
        reg_poison_slot=sanitize_base if sanitize else -1,
        nw_slot=sanitize_base + 1 + num_mems if sanitize else -1,
        state_size=sanitize_base + (num_mems + 2 if sanitize else 0),
    )


@dataclass
class MemSpec:
    """Where one memory's contents and pending writes live in the state."""
    name: str
    width: int
    depth: int
    slot: int  # state index of the contents list
    pending_slot: int  # state index of the pending-writes list
    poison_slot: int = -1  # word-poison bitmap slot (sanitized builds only)


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
    reg_slots: Dict[str, int]  # register name -> current-value slot
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
    # function name (part_name); each is also an attribute of that name.
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
    def mem_order(self) -> Tuple[MemSpec, ...]:
        """The memory specs in slot order."""
        return tuple(sorted(self.mem_specs.values(), key=lambda m: m.slot))

    @cached_property
    def mem_names(self) -> Tuple[str, ...]:
        """The memory names in slot order, shared like :attr:`reg_names`."""
        return tuple(spec.name for spec in self.mem_order)

    def make_state(self) -> list:
        state: list = [0] * (2 * self.num_regs)
        state.extend([None] * (self.layout.mem_base - 2 * self.num_regs))
        ordered = self.mem_order
        for spec in ordered:
            state.append([0] * spec.depth)
        for spec in ordered:
            state.append([])
        if self.build.sanitize:
            # Cold start is defined power-on zero: all poison clear.
            state.append(0)  # register poison bitmap
            state.extend(0 for _ in ordered)  # per-memory word poison
            state.append({})  # nonblocking writes this cycle
        return state


# ----------------------------------------------------------------------------
# Module compilation
# ----------------------------------------------------------------------------


class _Body(NamedTuple):
    """One body of a generated function, written before its prologue."""

    prologue: FunctionEmitter  # the binds the code needs
    code: FunctionEmitter
    reads: Set[str]  # every input, comb local and memory the code names
    hooked: bool  # whether it names the register poison bitmap


class _ModuleCompiler:
    def __init__(self, wiring: _Wiring, build: BuildConfig):
        self._ir = ir = wiring.ir
        self._netlist = wiring.netlist
        self._mux_style = build.mux_style
        self._emit = FunctionEmitter()
        self._wiring = wiring
        # The parts of the settled body a parent calls besides eval_out.
        self._parts = sorted(wiring.parts, key=lambda part: part_name(ir, part))
        # The function being generated: whether it is cycle, and the
        # locals it leaves in the stash slot.
        self._in_cycle = False
        self._stash_out: List[str] = []
        # Boundary -> the locals the stash slot holds there, for the
        # parts that start from it (cycle: all comb ports).
        self._stash: Dict[FrozenSet[str], List[str]] = {}
        self._plan = plan = wiring.plan
        self._plans: Optional[Dict[int, object]] = (
            None if plan.is_noop else {})  # id(IR node) -> its plan
        # The assigns the function being generated writes at their reads
        # or not at all (by index), and the code of each one written so far.
        self._sunk: Set[int] = set()
        self._dead: Set[int] = set()
        self._inlined: Dict[str, Tuple[Code, Optional[Code]]] = {}
        self._refs: Dict[int, str] = {}  # child index -> its local
        sanitize = build.sanitize
        nm = len(ir.memories)
        self.layout = layout = state_layout(ir.num_regs, nm, sanitize)
        self._mem_slot: Dict[str, MemSpec] = {}
        for i, mem in enumerate(
            sorted(ir.memories.values(), key=lambda m: m.mem_index)
        ):
            self._mem_slot[mem.name] = MemSpec(
                name=mem.name,
                width=mem.width,
                depth=mem.depth,
                slot=layout.mem_base + i,
                pending_slot=layout.mem_base + nm + i,
                poison_slot=layout.sanitize_base + 1 + i if sanitize else -1,
            )
        # Register or memory -> seq block ids that may write it, over
        # the ORIGINAL bodies (optimization only removes writes, so this
        # over-approximates the emitted writers: safe for the hooks'
        # single-writer fast path).
        self._seq_writers: Dict[str, Set[int]] = {}
        for bid, blk in enumerate(ir.seq_blocks):
            for name in blk.writes:
                self._seq_writers.setdefault(name, set()).add(bid)
        # The sanitizer flavour: every hook this compile writes.
        self.hooks = None
        if sanitize:
            from ..sanitize.instrument import Instrumenter

            self.hooks = Instrumenter(
                ir, layout, self._mem_slot, self._seq_writers, build.san_elide
            )
        # Whether a function that reads the register poison bitmap also
        # gets a poison-free body (the shortened hooks only).
        self._split = sanitize and build.san_elide
        # The hooks of eval_out and cycle (the parts re-emit their sites).
        self.sites = self.elided = 0

    # -- name resolution ------------------------------------------------------

    def _open_body(self, lo: Boundary, hi: FrozenSet[str],
                   in_cycle: bool = False) -> Tuple[ExprGen, Set[str]]:
        """Start the body of the function computing part (lo, hi) (or
        ``cycle``) in a fresh emitter.

        Returns the expression generator for it and the set it fills
        with every input, comb local and memory the emitted code names;
        the function's prologue (binds, the stash it starts from) is
        written from that set once the body is complete.  A read of a
        signal the ports in ``hi`` do not settle is a generator error:
        a child is only ever passed the ports its part takes
        (:class:`_Wiring`), so nothing else reads one.
        """
        ir = self._ir
        self._in_cycle = in_cycle
        reads: Set[str] = set()

        def signal_ref(name: str) -> str:
            sig = ir.signals.get(name)
            if sig is None:
                raise CodegenError(f"unknown signal {name!r} in {ir.name}")
            if sig.state_index is not None:
                return f"s[{sig.state_index}]"
            if not ir.signal_deps.get(name, _NOTHING) <= hi:
                raise CodegenError(f"{ir.key}: {name!r} read before it settles")
            reads.add(name)
            return f"i_{name}" if sig.kind == "input" else f"v_{name}"

        def memory_ref(name: str) -> Optional[str]:
            if name not in self._mem_slot:
                return None
            reads.add(name)
            return f"_m_{name}"

        self._inlined = {}
        self._refs = {}
        resolver = Resolver(
            signal_ref=signal_ref,
            signal_width=ir.signal_width,
            memory_ref=memory_ref,
            memory_width=lambda n: self._mem_slot[n].width,
            memory_depth=lambda n: self._mem_slot[n].depth,
            hooks=self.hooks,
            inlined=self._inlined,
        )
        self._emit = FunctionEmitter()
        return ExprGen(resolver, self._emit, self._mux_style), reads

    # -- generation ------------------------------------------------------------

    def generate(self) -> str:
        # cycle first: the settled locals it reads are what the parts
        # ending at all comb ports leave in the stash slot; then each
        # boundary's parts, the largest first, for the same reason.
        wiring = self._wiring
        cycle = self._gen_cycle()
        eval_out = self._gen_parts([(None, wiring.comb)])[0]
        if self.hooks is not None:
            self.sites, self.elided = self.hooks.sites, self.hooks.elided
        starts = sorted({lo for lo, _ in self._parts if lo is not None},
                        key=len, reverse=True)
        parts: Dict[Part, List[FunctionEmitter]] = {}
        for lo in starts + [None]:
            todo = [part for part in self._parts if part[0] == lo]
            parts.update(zip(todo, self._gen_parts(todo)))
        functions = eval_out + [fn for part in self._parts for fn in parts[part]] + cycle
        source = "\n".join(fn.source() for fn in functions)
        if self.hooks is not None:
            source += self.hooks.epilogue()
        return source

    def gen_unit(self, kind: str, index: int) -> str:
        """The text of one comb schedule unit alone, as ``cycle`` would
        emit it (what :func:`site_count` counts the hooks of)."""
        exprgen, _ = self._open_body(None, self._wiring.all, in_cycle=True)
        if kind == "assign":
            self._gen_comb_assign(exprgen, index)
        else:
            self._gen_comb_block(exprgen, index)
        return self._emit.source()

    def _child_args(self, exprgen: ExprGen, inst, ports: List[str]) -> List[str]:
        """Arguments for ``ports`` of one child, in range for the port
        (the calling convention): an expression statically wider than
        its port is masked here, a literal folded; the rest already fit."""
        signals = self._netlist.modules[inst.child_key].signals
        args = []
        for port in ports:
            expr = self._planned(inst.input_conns[port], self._plan.expr)
            code = exprgen.code(expr)
            if exprgen.width_of(expr) > signals[port].width:
                mask = mask_of(signals[port].width)
                if isinstance(expr, ast.Num):
                    code = str(expr.value & mask), ATOM
                else:
                    code = f"{paren(code, BAND)} & {mask}", BAND
            args.append(code[0])
        return args

    def _planned(self, node, rewrite):
        """``rewrite(node)``: the plan's expression or body for an IR
        expression or block body, made once per compile (the sink
        analysis walks what the emitter writes)."""
        plans = self._plans
        if plans is None:
            return node
        if id(node) not in plans:
            plans[id(node)] = rewrite(node)
        return plans[id(node)]

    def _bind_memories(self, reads: Set[str]) -> None:
        for name, spec in self._mem_slot.items():
            if name in reads:
                self._emit.line(f"_m_{name} = s[{spec.slot}]")

    def _bind_registered_child_outputs(self, wanted: Set[str]) -> None:
        """Registered child outputs are state: bind them up front so
        consumers never wait on the producing instance, and never see
        it after its commit."""
        for index, inst in enumerate(self._ir.instances):
            child = self._netlist.modules[inst.child_key]
            for port in inst.registered_ports:
                target = inst.output_conns[port]
                if target in wanted:
                    slot = child.signals[port].state_index
                    self._emit.line(f"v_{target} = ch[{index}].state[{slot}]")

    # -- the combinational body, split between the parts and cycle -------------

    def _gen_comb_body(self, exprgen: ExprGen, walk: List[_Step]) -> None:
        for step in walk:
            settle = nullcontext()
            memos: Dict[int, str] = {}
            if step.settle:
                # A child the loop calls runs again only when a pass
                # changes its arguments.
                for index in step.calls:
                    memos[index] = self._emit.fresh("a")
                    self._emit.line(f"{memos[index]} = None")
                settle = settle_loop(self._emit, _locals(step.settle), self._ir.key)
            with settle:
                for kind, index in step.units:
                    if kind == "inst":
                        self._call_part(exprgen, index, step.calls[index], memos.get(index))
                    else:
                        gen = (self._gen_comb_assign if kind == "assign"
                               else self._gen_comb_block)
                        gen(exprgen, index)

    # -- mux shadowing: a value computed only where it is read ----------------

    def _hooked(self, assign) -> bool:
        """Whether a sanitized build's code for ``assign`` carries a hook
        (what :meth:`_gen_comb_assign` would count in ``san_sites``); a
        register read carries none in a poison-free body."""
        hooks = self.hooks
        if hooks is None:
            return False
        ir = self._ir
        mems = self._mem_slot
        width = width_of(assign.value, ir.signal_width,
                         lambda n: mems[n].width if n in mems else None)
        if width > ir.signals[assign.target.name].width:
            return True  # the truncation check

        def hooked(name: str) -> bool:  # a register or a memory
            sig = ir.signals.get(name)
            return name in mems or (not hooks.poison_free and getattr(
                sig, "state_index", None) is not None)

        return carries_hook(
            self._planned(assign.value, self._plan.expr), hooked)

    def _sink(self, walk: List[_Step]) -> Tuple[Set[int], Set[int]]:
        """The continuous assigns the function running ``walk`` writes
        at their reads instead of at their schedule position
        (:mod:`.sinking`), and those it does not write at all, by index.

        A candidate runs here and is not a port, not left in the stash
        and not on a comb loop.  One walk back over what the function
        emits gathers each candidate's reads with their paths and
        reaches it after all its readers.  One with no hook in its code
        and no read is not written; one with no hook whose reads (at
        most ``MAX_COPIES``) are all guarded and pairwise exclusive, so
        none is a child argument or in a loop, moves.  A moved assign's
        own reads then sit at each of its places (a chain moves as far
        as its last reader goes), and an unwritten one's reads are no
        reads.
        """
        ir = self._ir
        units = [(unit, step.is_loop) for step in walk
                 for unit in step.units if unit[0] != "inst"]
        candidates = {
            ir.comb_assigns[index].defines
            for (kind, index), is_loop in units
            if kind == "assign" and not is_loop
        }.difference(ir.outputs, self._stash_out)
        if not candidates:
            return set(), set()
        reads: Dict[str, List[Path]] = {name: [] for name in candidates}
        walk = PathReads(branch=self._mux_style == "branch")

        def note(found, sites: Sequence[Path] = ((),)) -> None:
            for name, path in found:
                paths = reads.get(name)
                if paths is None:
                    continue
                paths.extend(site + path for site in sites)
                if not paths[-1] or len(paths) > MAX_COPIES:
                    del reads[name]  # read unguarded, or too often

        def stays(names: Sequence[str]) -> None:
            for name in reads.keys() & names:
                del reads[name]

        def note_body(stmts: List[ast.Stmt], names: Sequence[str]) -> None:
            if not reads.keys().isdisjoint(names):  # else nothing to note
                note(walk.stmts(self._planned(stmts, self._plan.body)))

        for inst in ir.instances:  # child arguments, in either function
            stays(inst.reads)
        for unit, is_loop in units:  # a loop repeats its reads
            if is_loop:
                stays(ir.unit_reads(unit))
        if self._in_cycle:  # after the comb body
            for seq in ir.seq_blocks:
                note_body(seq.body, seq.reads)
        sunk: Dict[int, List[str]] = {}  # index -> the names it reads
        dead: Set[int] = set()
        for (kind, index), is_loop in reversed(units):
            if not reads:
                break  # no candidate left undecided
            if is_loop:
                continue
            if kind == "block":
                comb = ir.comb_blocks[index]
                note_body(comb.body, comb.reads)
                continue
            assign = ir.comb_assigns[index]
            paths = reads.pop(assign.defines, None)
            if paths is not None and not self._hooked(assign):
                if not paths:
                    dead.add(index)
                    continue
                moves = all_exclusive(paths)
            else:
                moves = False
            if moves or not reads.keys().isdisjoint(assign.reads):
                found = walk.expr(
                    self._planned(assign.value, self._plan.expr))
                if moves:
                    sunk[index] = [name for name, _ in found]
                note(found, paths if moves else ((),))
        # Nested no deeper than MAX_DEPTH: forward, a value too deep
        # stays where it is (and is as deep as nothing).
        depth: Dict[str, int] = {}
        for (kind, index), _ in units:
            if kind == "assign" and index in sunk:
                own = 1 + max((depth.get(n, 0) for n in sunk[index]),
                              default=0)
                if own > MAX_DEPTH:
                    del sunk[index]
                else:
                    depth[ir.comb_assigns[index].defines] = own
        return set(sunk), dead

    def _gen_comb_assign(self, exprgen: ExprGen, index: int) -> None:
        if index in self._dead:
            return  # read nowhere
        assign = self._ir.comb_assigns[index]
        name = assign.target.name
        code, truth = exprgen.forms(self._planned(assign.value, self._plan.expr))
        width = self._ir.signals[name].width
        if exprgen.width_of(assign.value) > width:
            truth = None
            if self.hooks is not None:
                code = self.hooks.trunc(
                    code[0], width, getattr(assign.target, "line", 0), name,
                ), COND
            else:
                code = f"{paren(code, BAND)} & {mask_of(width)}", BAND
        if index in self._sunk:
            self._inlined[name] = code, truth  # written where it is read
        else:
            self._emit.line(f"v_{name} = {code[0]}")

    def _gen_comb_block(self, exprgen: ExprGen, index: int) -> None:
        comb = self._ir.comb_blocks[index]
        stmtgen = StmtGen(
            exprgen=exprgen,
            emitter=self._emit,
            write_target=lambda target, code: self._emit.line(
                f"v_{target.name} = {code}"
            ),
            read_target_current=lambda name: f"v_{name}",
            mem_write=self._forbid_comb_mem_write,
            is_memory=lambda name: name in self._mem_slot,
            target_width=lambda name: self._ir.signals[name].width,
            hooks=self.hooks,
        )
        for name in comb.defines:
            self._emit.line(f"v_{name} = 0")
        stmtgen.gen_stmts(self._planned(comb.body, self._plan.body))

    @staticmethod
    def _forbid_comb_mem_write(name: str, addr: str, value: str, line: int) -> None:
        raise CodegenError(
            f"memory {name!r} may only be written in always @(posedge)", line
        )

    def _call_part(self, exprgen: ExprGen, index: int, part: Part,
                   memo: Optional[str] = None) -> None:
        """Call ``part`` of child ``index`` with the ports its boundary
        settles, binding the comb outputs it returns by one unpack; the
        rest land in ``_``, and a call whose outputs nothing binds
        assigns nothing.  The early-bind prepass (the part from no
        port) binds the dependency-free outputs, so no later call of
        that child binds them again.  Inside a comb loop, ``memo`` is
        the local holding the last pass's arguments: an unchanged pass
        does not call."""
        inst = self._ir.instances[index]
        child = self._wiring.child(index)
        prebound = self._wiring.early.get(index, ()) if part[1] else ()
        names = [f"v_{inst.output_conns[p]}" if p in inst.output_conns
                 and p not in inst.registered_ports and p not in prebound
                 else "_" for p in part_outputs(child, part)]
        lhs = f"({', '.join(names)}, ) = " if set(names) - {"_"} else ""
        args = [p for p in child.comb_input_ports if p in part[1]]
        values = self._child_args(exprgen, inst, args)
        emit = self._emit
        ref = self._child_ref(index)
        name = part_name(child, part)
        call = _entry(ref, f"{name}_fn" if name == "eval_out" else name)
        if memo is None:
            emit.line(f"{lhs}{call}({ref}.state, {ref}.children{_pass(args, values)})")
            return
        key = emit.fresh("k")
        emit.line(f"{key} = {_flat(values)}")
        with block(emit, f"if {key} != {memo}:"):
            emit.line(f"{memo} = {key}")
            spread = f", {key}" if packs(args) else f", *{key}"
            emit.line(f"{lhs}{call}({ref}.state, {ref}.children{spread})")

    def _child_ref(self, index: int) -> str:
        """The local the function being generated holds child ``index``
        in, bound where the function first calls it: each later call
        is in the same block or after it."""
        ref = self._refs.get(index)
        if ref is None:
            ref = self._refs[index] = self._emit.fresh("c")
            self._emit.line(f"{ref} = ch[{index}]")
        return ref

    def _output_ref(self, name: str) -> str:
        sig = self._ir.signals[name]
        if sig.state_index is not None:
            # Registered outputs expose the current (pre-edge) value.
            return f"s[{sig.state_index}]"
        return f"v_{name}"

    # -- the parts of the settled body: eval_out and what parents split ---------

    def _bodies(self, write: Callable[[], _Body]) -> List[_Body]:
        """The bodies of one function: what ``write`` writes, and when
        that names the poison bitmap and the module splits (see
        :meth:`_define`), what it writes again as the poison-free body."""
        bodies = [write()]
        if bodies[0].hooked and self._split:
            with self.hooks.free_body():
                bodies.append(write())
        return bodies

    def _define(self, name: str, ports: Sequence[str], head: List[str],
                bodies: List[_Body]) -> List[FunctionEmitter]:
        """Function ``name`` taking ``ports``: after the ports, ``head``
        (the stash unpack every body shares), then each body's prologue
        and code.  With two bodies the first, hooked, is named by
        ``Instrumenter.hooked_name``, and the second, poison-free, keeps
        ``name`` and first hands the call to the first while any
        register of the instance is poisoned."""
        names = [name] if len(bodies) == 1 else [self.hooks.hooked_name(name), name]
        functions = []
        for own, body in zip(names, bodies):
            fn = FunctionEmitter()
            with block(fn, f"def {own}(s, ch{_params(ports)}):"):
                if own == name and len(bodies) > 1:
                    self.hooks.dispatch(fn, name, _params(ports))
                _unpack_inputs(fn, ports)
                for line in head:
                    fn.line(line)
                fn.splice(body.prologue)
                fn.splice(body.code)
                if len(fn) == 1:
                    fn.line("pass")
            functions.append(fn)
        return functions

    def _gen_parts(self, parts: List[Part]) -> List[List[FunctionEmitter]]:
        """The functions computing ``parts``, which all start from one
        boundary; what they read from before it is that boundary's
        stash (every boundary they end at has its stash already)."""
        ir = self._ir
        bodies = [(part, self._bodies(partial(self._gen_part, part))) for part in parts]
        lo = parts[0][0] if parts else None
        stash_in = self._stash[lo] = [] if lo is None else [
            name for name, sig in ir.signals.items()
            if sig.kind != "input" and ir.signal_deps.get(name, _NOTHING) <= lo
            and any(name in body.reads for _, versions in bodies for body in versions)
        ]
        head = [f"{_slots(_locals(stash_in))} = s[{self.layout.stash_slot}]"] if stash_in else []
        return [
            self._define(part_name(ir, part), [p for p in ir.comb_input_ports if p in part[1]],
                         head, versions)
            for part, versions in bodies
        ]

    def _gen_part(self, part: Part) -> _Body:
        lo, hi = part
        exprgen, reads = self._open_body(lo, hi)
        body = self._emit
        self._stash_out = stash = self._stash.get(hi, [])
        walk = self._wiring.walk(lo, hi)
        self._sunk, self._dead = self._sink(walk)
        self._gen_comb_body(exprgen, walk)
        outs = part_outputs(self._ir, part)
        if stash:
            body.line(f"s[{self.layout.stash_slot}] = {_slots(_locals(stash))}")
            reads.update(stash)  # those computed before come through
        if outs:
            body.line(f"return {_flat([self._output_ref(n) for n in outs])}")
        # The binds this body needs, before the next body is written.
        self._emit = binds = FunctionEmitter()
        hooked = self.hooks is not None and self.hooks.bind_poison(binds)
        self._bind_memories(reads)
        if lo is None:
            self._bind_registered_child_outputs(reads | set(outs))
        return _Body(binds, body, reads, hooked)

    # -- cycle ----------------------------------------------------------------------

    def _gen_cycle(self) -> List[FunctionEmitter]:
        ir = self._ir
        bodies = self._bodies(self._gen_cycle_body)
        stash = self._stash[self._wiring.comb] = [
            name for name, sig in ir.signals.items()
            if sig.kind != "input" and ir.signal_deps.get(name, _NOTHING) <= self._wiring.comb
            and any(name in body.reads for body in bodies)
        ]
        head = [f"{_slots(_locals(stash))} = s[{self.layout.stash_slot}]"] if stash else []
        return self._define("cycle", ir.inputs, head, bodies)

    def _gen_cycle_body(self) -> _Body:
        ir = self._ir
        num_regs = ir.num_regs
        comb, everything = self._wiring.comb, self._wiring.all
        exprgen, reads = self._open_body(comb, everything, in_cycle=True)
        body = self._emit
        hooks = self.hooks
        self._stash_out = []
        walk = self._wiring.walk(comb, everything, in_cycle=True)
        self._sunk, self._dead = self._sink(walk)
        self._gen_comb_body(exprgen, walk)
        for block_id, seq in enumerate(ir.seq_blocks):
            self._gen_seq_block(exprgen, seq, block_id)
        skip = self._wiring.skip
        for index, inst in enumerate(ir.instances):
            if index in skip:
                # Pure subtree: stateless, so its cycle would only
                # recompute values nothing commits.  Skip it.
                continue
            child = self._netlist.modules[inst.child_key]
            ref = self._child_ref(index)
            args = _pass(child.inputs, self._child_args(exprgen, inst, child.inputs))
            body.line(f"{_entry(ref, 'cycle_fn')}({ref}.state, {ref}.children{args})")
        # The commit, after every child's: nothing above reads this
        # module's state again.  Pending == current held on entry (the
        # layout invariant), so copying each pending value is the whole
        # edge.
        for slot in range(num_regs):
            body.line(f"s[{slot}] = s[{num_regs + slot}]")
        if hooks is not None:
            hooks.commit_regs(body)
        written = [n for n in self._mem_slot if n in self._seq_writers]
        for name in written:
            spec = self._mem_slot[name]
            with block(body, f"if _pw_{name}:"):
                body.line(f"_m = s[{spec.slot}]")
                with block(body, f"for _a, _v in _pw_{name}:"):
                    body.line("_m[_a] = _v")
                    if hooks is not None:
                        hooks.commit_mem_word(body, name)
                body.line(f"del _pw_{name}[:]")
        # The prologue, once the body is written: the bitmap and the
        # memories it reads, the pending writes and the write notes.
        self._emit = binds = FunctionEmitter()
        hooked = hooks is not None and hooks.bind_poison(binds)
        self._bind_memories(reads)  # registered child outputs: the stash
        for name in written:
            binds.line(f"_pw_{name} = s[{self._mem_slot[name].pending_slot}]")
        if hooks is not None:
            hooks.open_cycle(binds)
        return _Body(binds, body, reads, hooked)

    def _gen_seq_block(self, exprgen: ExprGen, seq, block_id: int) -> None:
        num_regs = self._ir.num_regs

        def write_target(target: ast.LValue, code: str) -> None:
            sig = self._ir.signals[target.name]
            if sig.state_index is None:
                raise CodegenError(
                    f"sequential assignment to non-register {target.name!r}",
                    target.line,
                )
            self._emit.line(f"s[{sig.state_index + num_regs}] = {code}")

        def read_pending(name: str) -> str:
            sig = self._ir.signals[name]
            return f"s[{sig.state_index + num_regs}]"

        def mem_write(name: str, addr: str, value: str, line: int) -> None:
            spec = self._mem_slot[name]
            self._emit.line(
                f"_pw_{name}.append(({addr}, "
                f"({value}) & {mask_of(spec.width)}))"
            )

        stmtgen = StmtGen(
            exprgen=exprgen,
            emitter=self._emit,
            write_target=write_target,
            read_target_current=read_pending,
            mem_write=mem_write,
            is_memory=lambda name: name in self._mem_slot,
            target_width=lambda name: self._ir.signals[name].width,
            hooks=self.hooks,
            block_id=block_id,
        )
        stmtgen.gen_stmts(self._planned(seq.body, self._plan.body))


def compile_module(
    wiring: _Wiring,
    build: BuildConfig = BuildConfig(),
    runtime: object = None,
    key: Optional[ModuleKey] = None,
) -> CompiledModule:
    """Compile the specialization ``wiring`` plans into a
    :class:`CompiledModule`.

    ``wiring`` is the module's entry of :func:`part_demand`: its
    optimization plan (see :mod:`repro.passes`: what to fold, which dead
    logic to drop and which pure subtrees' ``cycle`` to skip), the parts
    of its settled body its parents call besides ``eval_out``, and the
    calls each of its parts makes.

    Under ``build.sanitize`` the generated source is instrumented with
    calls into ``runtime`` (a :class:`repro.sanitize.SanitizerRuntime`),
    bound as the module-global ``_san`` at exec time; ``build.san_elide``
    says whether the instrumenter drops the sites their widths make safe
    and shortens the rest.

    ``key`` is the cache address the pass pipeline compiles for; it
    names the ``linecache`` entry.  Direct callers have none and get
    the bare ``(spec, build, parts)`` key.
    """
    ir = wiring.ir
    if key is None:
        key = ModuleKey(ir.key, build=build, parts=part_names(ir, wiring.parts))
    with obs.span("codegen.compile_module", key=ir.key,
                  sanitize=build.sanitize, opt=build.opt):
        compiler = _ModuleCompiler(wiring, build)
        source = compiler.generate()
        fns = exec_source(source, key.filename, build, runtime)
    obs.incr("codegen.modules_compiled")
    reg_slots = {
        name: sig.state_index
        for name, sig in ir.signals.items()
        if sig.state_index is not None
    }
    return CompiledModule(
        key=ir.key,
        name=ir.name,
        ir=ir,
        source=source,
        inputs=tuple(ir.inputs),
        comb_input_ports=ir.comb_input_ports,
        outputs=tuple(ir.outputs),
        num_regs=ir.num_regs,
        layout=compiler.layout,
        reg_slots=reg_slots,  # type: ignore[arg-type]
        reg_widths={name: ir.signals[name].width for name in reg_slots},
        mem_specs=dict(compiler._mem_slot),
        child_insts=tuple((i.name, i.child_key) for i in ir.instances),
        source_hash=hashlib.sha256(source.encode()).hexdigest(),
        build=build,
        san_sites=compiler.sites,
        san_elided=compiler.elided,
        eval_out_packed=packs(ir.comb_input_ports),
        cycle_packed=packs(ir.inputs),
        **fns,
    )


def site_count(ir: ModuleIR, netlist: Netlist,
               unit: Optional[Tuple[str, int]] = None) -> int:
    """Sanitizer sites the generator writes for module ``ir``, or for
    its comb schedule ``unit`` (``("assign" | "block", index)``) alone.

    The census is the generator: this runs the emitter with a fresh
    instrumenter and no plan, so it counts what ``san_sites`` counts
    and nothing else decides where a hook goes.  It runs the plain-hook
    build, which writes each function once and counts every site as
    the elided build does.  The optimizer asks it which dead units and
    pure children it may drop under sanitize (zero: none of their
    findings would be silenced).
    """
    compiler = _ModuleCompiler(_Wiring(ir, netlist),
                               BuildConfig(sanitize=True, san_elide=False))
    if unit is None:
        compiler.generate()
    else:
        compiler.gen_unit(*unit)
    return compiler.hooks.sites


def exec_source(
    source: str, filename: str, build: BuildConfig, runtime: object
) -> Dict[str, Callable]:
    """Exec generated ``source`` and return its entry points as
    :class:`CompiledModule` keyword arguments (also how the artifact
    store rehydrates a module).  A comb loop raises the
    ``ConvergenceError`` global; instrumented source binds ``runtime``
    as its ``_san`` global."""
    namespace: Dict[str, object] = {"ConvergenceError": ConvergenceError}
    if build.sanitize:
        namespace["_san"] = runtime
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102
    linecache.cache[filename] = (
        len(source), None, source.splitlines(keepends=True), filename
    )
    return {
        "eval_out_fn": namespace["eval_out"],
        "cycle_fn": namespace["cycle"],
        "parts_fn": {name: fn for name, fn in namespace.items()
                     if name.startswith("eval_") and name != "eval_out"},
    }

