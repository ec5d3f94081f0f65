"""Stage instances: the runtime objects generated code operates on.

A :class:`StageInst` is the paper's "Stage" object (§III-B1): a block of
logic with external IO, internal registers/memories, and child stages.
Its ``code`` attribute points at a shared :class:`CompiledModule`; hot
reload replaces that pointer without touching the rest of the tree.
State enters an instance through one door, :meth:`StageInst.load`; the
rules that carry it across a design version live in
:mod:`repro.live.transform`, which this package knows nothing about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..codegen.pygen import CompiledModule
from ..hdl.errors import SimulationError


@dataclass
class StateSnapshot:
    """A deep, picklable copy of one instance subtree's state.

    Registers and memories are keyed by *name* so a snapshot taken
    under one design version can be translated into another version's
    namespace (paper §III-E, :mod:`repro.live.transform`).
    """

    key: str
    name: str
    regs: Dict[str, int]
    mems: Dict[str, List[int]]
    children: List["StateSnapshot"] = field(default_factory=list)
    # Sanitizer shadow state (empty for clean builds): names of
    # poisoned regs and per-memory word-poison bitmaps.
    reg_poison: Tuple[str, ...] = ()
    mem_poison: Dict[str, int] = field(default_factory=dict)

    def total_bytes(self) -> int:
        """Rough payload size (8 bytes per register/memory word).

        Used by the checkpoint-overhead bench; the paper notes the
        256-core PGAS checkpoint is < 3 MB.
        """
        size = 8 * len(self.regs)
        for words in self.mems.values():
            size += 8 * len(words)
        for child in self.children:
            size += child.total_bytes()
        return size

    def child(self, name: str) -> Optional["StateSnapshot"]:
        for snap in self.children:
            if snap.name == name:
                return snap
        return None

    def equal_state(self, other: "StateSnapshot") -> bool:
        return (
            self.regs == other.regs
            and self.mems == other.mems
            and len(self.children) == len(other.children)
            and all(
                a.name == b.name and a.equal_state(b)
                for a, b in zip(self.children, other.children)
            )
        )


class StageInst:
    """One instantiated stage: shared code + private state + children.

    ``parent`` is the instance whose compiled code calls this one (the
    owning :class:`~repro.sim.pipeline.Pipe` for the top): what was
    evaluated from this instance's state is memoized up that chain, so
    a mutation outside ``cycle`` invalidates root-ward along it.
    """

    __slots__ = ("code", "state", "children", "name", "parent")

    def __init__(self, code: CompiledModule, name: str = "top", parent=None):
        self.code = code
        self.name = name
        self.parent = parent
        self.state = code.make_state()
        self.children: List[StageInst] = []

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(
        cls,
        key: str,
        library: Dict[str, CompiledModule],
        name: str = "top",
        parent=None,
    ) -> "StageInst":
        """Instantiate the subtree rooted at specialization ``key``."""
        code = library.get(key)
        if code is None:
            raise SimulationError(f"no compiled module for {key!r}")
        inst = cls(code, name=name, parent=parent)
        for child_name, child_key in code.child_insts:
            inst.children.append(
                cls.build(child_key, library, name=child_name, parent=inst)
            )
        return inst

    # -- navigation -------------------------------------------------------------

    def child(self, name: str) -> "StageInst":
        for inst in self.children:
            if inst.name == name:
                return inst
        raise SimulationError(f"{self.name!r} has no child instance {name!r}")

    def find(self, path: str) -> "StageInst":
        """Resolve a dotted hierarchical path like ``u_core.u_ifu``."""
        inst = self
        if path:
            for part in path.split("."):
                inst = inst.child(part)
        return inst

    def walk(self, prefix: str = "") -> Iterator[Tuple[str, "StageInst"]]:
        path = prefix or self.name
        yield path, self
        for child in self.children:
            yield from child.walk(f"{path}.{child.name}")

    # -- state access -----------------------------------------------------------

    def peek_reg(self, name: str) -> int:
        slot = self.code.reg_slots.get(name)
        if slot is None:
            raise SimulationError(
                f"{self.code.name!r} has no register {name!r}"
            )
        return self.state[slot]

    def poke_reg(self, name: str, value: int) -> None:
        slot = self.code.reg_slots.get(name)
        if slot is None:
            raise SimulationError(
                f"{self.code.name!r} has no register {name!r}"
            )
        mask = (1 << self.code.reg_widths[name]) - 1
        self.state[slot] = value & mask
        # Both halves: pending == current between edges (pygen's layout).
        self.state[slot + self.code.num_regs] = value & mask
        if self.code.build.sanitize:
            self.state[self.code.layout.reg_poison_slot] &= ~(1 << slot)
        self._drop_cached_evals()

    def memory(self, name: str) -> List[int]:
        spec = self.code.mem_specs.get(name)
        if spec is None:
            raise SimulationError(f"{self.code.name!r} has no memory {name!r}")
        return self.state[spec.slot]

    def registers(self) -> Dict[str, int]:
        return {name: self.state[slot] for name, slot in self.code.reg_slots.items()}

    # -- snapshot / restore -------------------------------------------------------

    def snapshot(self) -> StateSnapshot:
        state = self.state
        reg_poison: Tuple[str, ...] = ()
        mem_poison: Dict[str, int] = {}
        if self.code.build.sanitize:
            pbits = state[self.code.layout.reg_poison_slot]
            reg_poison = tuple(
                name
                for name, slot in self.code.reg_slots.items()
                if (pbits >> slot) & 1
            )
            mem_poison = {
                name: state[spec.poison_slot]
                for name, spec in self.code.mem_specs.items()
                if state[spec.poison_slot]
            }
        return StateSnapshot(
            key=self.code.key,
            name=self.name,
            regs={
                name: state[slot] for name, slot in self.code.reg_slots.items()
            },
            mems={
                name: list(state[spec.slot])
                for name, spec in self.code.mem_specs.items()
            },
            children=[child.snapshot() for child in self.children],
            reg_poison=reg_poison,
            mem_poison=mem_poison,
        )

    def restore(self, snap: StateSnapshot) -> None:
        """Restore a snapshot taken from an *identical* module version;
        anything else is an error and leaves this subtree untouched.

        A snapshot from another version is first translated into this
        version's namespace (:mod:`repro.live.transform`) and then goes
        through :meth:`load`, which fits instead of requiring identity.
        """
        self._require_identical(snap)
        self.load(snap)

    def _require_identical(self, snap: StateSnapshot) -> None:
        if snap.key != self.code.key:
            raise SimulationError(
                f"snapshot is for {snap.key!r} but instance runs {self.code.key!r}"
            )
        if set(snap.regs) != set(self.code.reg_slots):
            raise SimulationError(
                f"snapshot register set differs for {self.code.key!r}"
            )
        for name, spec in self.code.mem_specs.items():
            words = snap.mems.get(name)
            if words is None or len(words) != spec.depth:
                raise SimulationError(f"snapshot memory {name!r} mismatch")
        if len(snap.children) != len(self.children):
            raise SimulationError("snapshot child count mismatch")
        for child, child_snap in zip(self.children, snap.children):
            child._require_identical(child_snap)

    def load(self, snap: StateSnapshot) -> None:
        """Fit name-keyed state into this subtree's current layout.

        The snapshot speaks this version's names (the Table V rules in
        :mod:`repro.live.transform` put it there); what is left is
        shape.  Values are masked to the declared width; a memory keeps
        the overlapping words and a grown tail reads zero.  A register
        or memory word the snapshot does not carry is zero and, to the
        sanitizer, poisoned like the state the snapshot itself marks
        poisoned: Table V's rule for created state, whatever a
        from-reset run would hold there.  Children are matched by
        instance name; one the snapshot lacks restarts at power-on.
        """
        code = self.code
        state = self.state
        num_regs = code.num_regs
        poisoned = list(snap.reg_poison)
        for name, slot in code.reg_slots.items():
            value = snap.regs.get(name)
            if value is None:
                value = 0
                poisoned.append(name)
            value &= (1 << code.reg_widths[name]) - 1
            state[slot] = value
            state[slot + num_regs] = value
        for name, spec in code.mem_specs.items():
            words = snap.mems.get(name, [])[: spec.depth]  # a copy
            count = len(words)
            mask = (1 << spec.width) - 1
            # Same-width words (the common case) are copied, not
            # re-masked one by one.
            if words and max(words) > mask:
                words = [w & mask for w in words]
            words += [0] * (spec.depth - count)
            state[spec.slot][:] = words
            del state[spec.pending_slot][:]
            if code.build.sanitize:
                carried = (1 << count) - 1
                state[spec.poison_slot] = (
                    ((1 << spec.depth) - 1) & ~carried
                ) | (snap.mem_poison.get(name, 0) & carried)
        if code.build.sanitize:
            pbits = 0
            for name in poisoned:
                slot = code.reg_slots.get(name)
                if slot is not None:
                    pbits |= 1 << slot
            state[code.layout.reg_poison_slot] = pbits
            state[code.layout.nw_slot].clear()
        self._drop_cached_evals()
        for child in self.children:
            child_snap = snap.child(child.name)
            if child_snap is not None:
                child.load(child_snap)
            else:
                child.reset_state()

    def reset_state(self) -> None:
        """Zero all registers and memories (power-on state)."""
        self._drop_cached_evals()
        for _, inst in self.walk():
            inst.state = inst.code.make_state()

    def abandon_edge(self) -> None:
        """Restore the layout invariant over this subtree after an
        exception left ``cycle`` before every instance had committed:
        pending := current, no pending memory write, no memo."""
        for _, inst in self.walk():
            state, code = inst.state, inst.code
            state[code.num_regs : 2 * code.num_regs] = state[0 : code.num_regs]
            for spec in code.mem_specs.values():
                del state[spec.pending_slot][:]
            state[code.layout.cache_key_slot] = None

    def _drop_cached_evals(self) -> None:
        """Clear the eval_out memo of this instance and of every
        ancestor, up to the pipe's cached outputs: all of them were
        computed from state that is about to differ.  (Descendants
        keep theirs: a child's result depends on its own state and
        arguments only.)"""
        self.state[self.code.layout.cache_key_slot] = None
        if self.parent is not None:
            self.parent._drop_cached_evals()

    def invalidate_cache(self) -> None:
        """Drop every memoized eval_out result in this subtree (and,
        root-ward, of every ancestor).

        The accessors on this class invalidate what they must by
        themselves; only callers who mutate state behind their back —
        grab a memory list via :meth:`memory` and write into it — need
        to call this (or go through :meth:`write_memory`).
        """
        self._drop_cached_evals()
        for _, inst in self.walk():
            inst.state[inst.code.layout.cache_key_slot] = None

    def write_memory(self, name: str, offset: int, words: List[int]) -> None:
        """Write ``words`` into memory ``name`` starting at ``offset``
        (word-indexed), with memo invalidation."""
        target = self.memory(name)
        if offset < 0 or offset + len(words) > len(target):
            raise SimulationError(
                f"write of {len(words)} words at {offset} exceeds "
                f"memory {name!r}"
            )
        spec = self.code.mem_specs[name]
        mask = (1 << spec.width) - 1
        target[offset : offset + len(words)] = [w & mask for w in words]
        if self.code.build.sanitize:
            self.state[spec.poison_slot] &= ~(
                ((1 << len(words)) - 1) << offset
            )
        self._drop_cached_evals()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<StageInst {self.name} code={self.code.key}>"
