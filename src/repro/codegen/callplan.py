"""The call plan: which part of each child each generated function calls.

No instance keeps a memo in its state.  Instead the generator
(:mod:`repro.codegen.pygen`) orders the calls so that each instance's
settled comb body runs exactly once per cycle, with its final
arguments, before that instance's ``cycle``: the one memo is the pipe's
settled outputs (:class:`~repro.sim.pipeline.Pipe` settles the top
before an edge unless nothing changed since it last did).  A parent
that needs some of a child's outputs before all the child's arguments
are settled calls the child in *parts* (:class:`Wiring`): first the
part computable from the ports it has, then the rest with the final
arguments.  Each part is one function of the child's code, shared by
every instance (``eval_<lo>_<hi>``, :func:`part_name`), and it reads
what the part before it left in the stash.  The early-bind prepass for
wiring cycles is the part computable from no port at all: a ring stop's
register outputs.  Inside a comb loop a child is called again only when
a pass changed its arguments.  One plan per module per compile decides
every call: :func:`part_demand` builds each module's :class:`Wiring`,
which walks each part the module runs once, and the generator writes
those walks.  Which parts a module's parents call is part of its
compile (``ModuleKey.parts``).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple

from .. import obs
from ..hdl.consteval import expr_reads
from ..ir.netlist import ModuleIR, Netlist, UnitId
from .optplan import NO_OPT, OptPlan

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


class Step(NamedTuple):
    """A stretch of the schedule as one part of a module runs it: one
    comb loop, or the units between two loops."""

    units: List[UnitId]  # what the part emits of it, in order
    is_loop: bool  # a comb loop of the schedule
    calls: Dict[int, Part]  # instance -> the part of it the step calls
    settle: List[str]  # the locals the part repeats it until they settle


class Wiring:
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
    Counted: ``codegen.wirings`` per plan, ``codegen.walks`` per walk made.
    """

    def __init__(self, ir: ModuleIR, netlist: Netlist, plan: OptPlan = NO_OPT,
                 walks: Optional[Dict[tuple, List[Step]]] = None):
        obs.incr("codegen.wirings")
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

    def walk(self, lo: Boundary, hi: FrozenSet[str], in_cycle: bool = False) -> List[Step]:
        """The steps part (lo, hi) of this module runs (``in_cycle``:
        ``cycle``), worked out on first use.  With nothing computed yet
        the first is the early-bind prepass, which calls each child on a
        wiring cycle (see repro.ir.schedule) for the part computable
        from no port at all: its dependency-free outputs, correct under
        any inputs."""
        key = (lo, hi, in_cycle)
        steps = self._walks.get(key)
        if steps is None:
            obs.incr("codegen.walks")
            steps = self._walks[key] = self._walk(lo, hi, in_cycle)
        return steps

    def _walk(self, lo: Boundary, hi: FrozenSet[str], in_cycle: bool) -> List[Step]:
        steps = []
        if lo is None and self.early:
            prepass = {index: (None, _NOTHING) for index in self.early}
            steps.append(Step([("inst", i) for i in prepass], False, prepass, []))
        plain = Step([], False, {}, [])
        for units, is_loop in self.steps:
            step = Step([], True, {}, self._settle(units, lo, hi)) if is_loop else plain
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
                    plain = Step([], False, {}, [])
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
                walks: Optional[Dict[str, dict]] = None) -> Dict[str, Wiring]:
    """Each module's wiring under its optimization plan in ``plans``
    (none: :data:`NO_OPT`), by module key, with the parts other than
    ``eval_out`` its parents call and the walk of each part it runs.  A
    parent's own parts are known before its children's are asked for.
    ``walks`` holds, by module key, a walk memo a previous compile of
    the same module under the same plan and children filled
    (:class:`Wiring`); only the walks it lacks are made."""
    plans = plans or {}
    walks = walks or {}
    wirings = {key: Wiring(ir, netlist, plans.get(key, NO_OPT), walks.get(key))
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
