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

The plan also decides the order of a module's sequential statements in
its ``cycle`` and which registers it reads the old value of after a
write (:class:`EdgePlan`).
"""

from __future__ import annotations

import heapq
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

from .. import obs
from ..hdl import ast_nodes as ast
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
    def edge(self) -> EdgePlan:
        """The order of the sequential statements in ``cycle`` and the
        registers it reads the old value of after a write
        (:func:`edge_plan`)."""
        return edge_plan(self.ir, self.plan)

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


class EdgePlan(NamedTuple):
    """How a module's ``cycle`` writes its registers.

    ``cycle`` runs the top-level statements of its sequential blocks in
    ``order``, each with the index of its block (:func:`edge_units`).
    Every register is written straight into its slot.  A register in
    ``reads_old`` has a read of its old value after a write of it on
    some path through ``cycle``, so ``cycle`` reads it through a local
    bound before any write; no other register has such a read.
    """

    order: Tuple[Tuple[int, ast.Stmt], ...]
    reads_old: FrozenSet[str]


def edge_units(ir: ModuleIR) -> List[Tuple[int, ast.Stmt]]:
    """The top-level statements of ``ir``'s sequential blocks, each with
    its block's index, in source order (an anonymous ``begin``/``end``,
    which comes through as ``if (1)``, opened).  Every register write
    lands at the edge and every read sees the value from before it, so
    these units are as independent of each other as blocks are."""
    units: List[Tuple[int, ast.Stmt]] = []

    def add(index: int, stmts: List[ast.Stmt]) -> None:
        for stmt in stmts:
            if (isinstance(stmt, ast.If) and isinstance(stmt.cond, ast.Num)
                    and stmt.cond.value == 1 and not stmt.else_body):
                add(index, stmt.then_body)
            else:
                units.append((index, stmt))

    for index, blk in enumerate(ir.seq_blocks):
        add(index, blk.body)
    return units


def edge_plan(ir: ModuleIR, plan: OptPlan = NO_OPT) -> EdgePlan:
    """The :class:`EdgePlan` of ``ir`` under ``plan``.

    What ``cycle`` runs after its comb body has read the old values:
    the units of :func:`edge_units` in turn, the arms of an ``if`` or
    ``case`` as alternative paths, then the arguments of each child
    whose ``cycle`` it calls.  A read of a continuous assign the
    generator may write inside the unit (:class:`_EdgeReads`) is a read
    of the registers its code reads.
    Nothing here depends on the sanitizer, so both bodies of a
    sanitized function share the plan.

    The units are ordered so that one reading register R runs before
    another writing R, for as many registers as that can be done for
    (taken in slot order, each kept only if the order stays acyclic).
    Units that write one register or memory keep their relative order:
    the later write wins, and the sanitizer's conflict check names the
    later writer.  Otherwise the source order stands.
    """
    units = edge_units(ir)
    regs = {name: sig.state_index for name, sig in ir.signals.items()
            if sig.state_index is not None}
    if not units or not regs:
        return EdgePlan(tuple(units), frozenset())
    walk = _EdgeWalk(_EdgeReads(ir, plan, regs, units))
    reads, writes = [], []  # per unit: registers read, names written
    for unit, (_, stmt) in enumerate(units):
        walk.found = set()
        writes.append(walk.stmts([stmt], unit, frozenset()))
        reads.append(walk.found)
    edges = {(early, late) for late in range(len(units)) for early in range(late)
             if not writes[early].isdisjoint(writes[late])}
    for name in sorted(regs, key=regs.__getitem__):
        wanted = {(reader, writer)
                  for reader, found in enumerate(reads) if name in found
                  for writer, wrote in enumerate(writes)
                  if writer != reader and name in wrote}
        if not wanted <= edges and len(_stable_topo(len(units), edges | wanted)) == len(units):
            edges |= wanted
    order = _stable_topo(len(units), edges)
    # The authority: walk the units in that order, then the arguments of
    # each child whose cycle runs; a register read once written reads
    # its old value from a local.
    walk.clashes = set()
    written: FrozenSet[str] = frozenset()
    for unit in order:
        written = walk.stmts([units[unit][1]], unit, written)
    for index, inst in enumerate(ir.instances):
        if index not in plan.skip_children:
            walk.read(written.intersection(inst.reads, regs), written)
    return EdgePlan(tuple(units[unit] for unit in order), frozenset(walk.clashes))


def _exprs(stmts: List[ast.Stmt]) -> Iterator[ast.Expr]:
    """Every expression ``stmts`` evaluate, on any path."""
    for stmt in stmts:
        if isinstance(stmt, (ast.NonBlocking, ast.Blocking)):
            yield stmt.value
            if stmt.target.index is not None:
                yield stmt.target.index
        elif isinstance(stmt, ast.If):
            yield stmt.cond
            yield from _exprs(stmt.then_body + stmt.else_body)
        elif isinstance(stmt, ast.Case):
            yield stmt.subject
            for labels, body in stmt.arms:
                yield from labels
                yield from _exprs(body)


class _EdgeReads:
    """The registers an expression's code reads where it stands in one
    unit of :func:`edge_units` (by index into ``units``).

    The generator may write a continuous assign at its reads instead of
    in the comb body (:mod:`.sinking`), but only where those reads are
    pairwise exclusive, which reads in two units (or in a unit and the
    comb body, a child argument or a port) never are.  So an assign is
    written inside a unit only when, under ``plan``, every live read of
    it is in that unit, directly or through assigns that may be written
    there too; a read of it there reads what its own code reads.  Any
    other assign runs in the comb body, before every unit.
    """

    def __init__(self, ir: ModuleIR, plan: OptPlan, regs: Dict[str, int],
                 units: List[Tuple[int, ast.Stmt]]):
        self.regs = regs
        looped = {unit for units in ir.loops for unit in units}
        stays = set(ir.outputs).union(*(inst.reads for inst in ir.instances))
        self._movable = {
            assign.defines: assign for index, assign in enumerate(ir.comb_assigns)
            if ("assign", index) not in looped and assign.defines not in stays}
        # name -> where the plan's code reads it: a unit, None for a comb
        # block, or the name the reading assign defines.
        self._readers: Dict[str, Set[object]] = {}
        for unit, (_, stmt) in enumerate(units):
            self._note(_exprs(plan.body([stmt])), unit)
        noop = plan.is_noop  # the IR's own read lists are the code's
        for index, comb in enumerate(ir.comb_blocks):
            if index not in plan.dead_blocks:
                self._note(comb.reads if noop else _exprs(plan.body(comb.body)), None)
        for index, assign in enumerate(ir.comb_assigns):
            if index not in plan.dead_assigns:
                self._note(assign.reads if noop else [plan.expr(assign.value)],
                           assign.defines)
        self._places: Dict[str, FrozenSet[object]] = {}
        self._regs_of: Dict[str, Set[str]] = {}  # a movable assign's, where it is written
        self._reads: Dict[int, Set[str]] = {}  # id(expression) -> the names it reads

    def _note(self, reads: Iterable, reader: object) -> None:
        """Note ``reader`` at every name in ``reads`` (names, or the
        expressions that read them)."""
        for read in reads:
            for name in (read,) if isinstance(read, str) else expr_reads(read):
                self._readers.setdefault(name, set()).add(reader)

    def _place(self, name: str) -> FrozenSet[object]:
        """Where movable assign ``name`` may be written: one unit, or
        None (the comb body); empty when no code is left to read it."""
        if name not in self._places:
            self._places[name] = frozenset({None})  # until known
            places: Set[object] = set()
            for reader in self._readers.get(name, ()):
                if isinstance(reader, str):
                    inner = self._place(reader) if reader in self._movable else {None}
                    if not inner:
                        continue  # written nowhere: its reads are none
                    reader = next(iter(inner)) if len(inner) == 1 else None
                places.add(reader)
            self._places[name] = frozenset(places if len(places) < 2 else {None})
        return self._places[name]

    def expr(self, expr: Optional[ast.Expr], unit: int) -> Set[str]:
        if expr is None:
            return set()
        if id(expr) not in self._reads:
            self._reads[id(expr)] = expr_reads(expr)
        return self.names(self._reads[id(expr)], unit)

    def names(self, names: Iterable[str], unit: int) -> Set[str]:
        found: Set[str] = set()
        for name in names:
            if name in self.regs:
                found.add(name)
            elif name in self._movable and self._place(name) == {unit}:
                if name not in self._regs_of:
                    self._regs_of[name] = self.names(self._movable[name].reads, unit)
                found |= self._regs_of[name]
        return found


class _EdgeWalk:
    """Walks statements of a unit along every path, given the registers
    and memories some path has already written: each register read is
    noted in ``found``, and one read once written in ``clashes``."""

    def __init__(self, reads: _EdgeReads):
        self._reads = reads
        self.found: Set[str] = set()
        self.clashes: Set[str] = set()

    def read(self, names: Set[str], written: FrozenSet[str]) -> None:
        self.found |= names
        self.clashes |= names & written

    def stmts(self, stmts: List[ast.Stmt], unit: int,
              written: FrozenSet[str]) -> FrozenSet[str]:
        """What some path through ``stmts`` may have written once they
        are done, from ``written``."""
        reads = self._reads
        for stmt in stmts:
            if isinstance(stmt, (ast.NonBlocking, ast.Blocking)):
                target = stmt.target
                self.read(reads.expr(stmt.value, unit) | reads.expr(target.index, unit),
                          written)
                written = written | {target.name}
            elif isinstance(stmt, ast.If):
                self.read(reads.expr(stmt.cond, unit), written)
                written = (self.stmts(stmt.then_body, unit, written)
                           | self.stmts(stmt.else_body, unit, written))
            elif isinstance(stmt, ast.Case):
                labels = [label for labels, _ in stmt.arms for label in labels]
                self.read(reads.expr(stmt.subject, unit).union(
                    *(reads.expr(label, unit) for label in labels)), written)
                written = written.union(
                    *[self.stmts(body, unit, written) for _, body in stmt.arms])
        return written


def _stable_topo(count: int, edges: Set[Tuple[int, int]]) -> Tuple[int, ...]:
    """The nodes ``0 .. count-1`` ordered along ``edges``, the lowest
    ready one first (short of ``count`` when the edges make a cycle)."""
    after: Dict[int, List[int]] = {}
    waits = [0] * count
    for a, b in edges:
        after.setdefault(a, []).append(b)
        waits[b] += 1
    ready = [node for node in range(count) if not waits[node]]
    order: List[int] = []
    while ready:
        order.append(heapq.heappop(ready))
        for node in after.get(order[-1], ()):
            waits[node] -= 1
            if not waits[node]:
                heapq.heappush(ready, node)
    return tuple(order)


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
