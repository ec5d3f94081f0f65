"""Hot reload: swap compiled modules into a running pipeline.

The paper (§V-B) describes the mechanics: "LiveSim calls a method from
the library which creates the new stage object, and copies the register
values from the old one to the new one (taking into account any which
have been added, removed, or renamed)."

This module does exactly that over the :class:`StageInst` tree.  The
swap is in-place: parents keep their child list positions, and because
every instance of a module shares one code object, patching a module
used 256 times costs one compile plus 256 cheap state copies — the
reason Fig. 8 stays flat as the mesh grows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Set

from ..codegen.pygen import CompiledModule
from ..hdl.errors import SimulationError
from ..sim.pipeline import Pipe
from ..sim.stage import StageInst
from .transform import RegisterTransform, guess_transforms


@dataclass
class SwapReport:
    """What one hot reload did (the Fig. 8 measurement unit)."""

    swapped_instances: int = 0
    rebuilt_instances: int = 0
    kept_instances: int = 0
    registers_migrated: int = 0
    memories_migrated: int = 0
    modules_changed: Set[str] = field(default_factory=set)
    seconds: float = 0.0


class HotReloader:
    """Swaps a new compiled library into running pipes.

    ``transforms`` maps module *name* -> explicit
    :class:`RegisterTransform`; modules without an entry get a
    best-guess transform derived from the old/new register tables
    (paper §III-E).
    """

    def __init__(
        self, transforms: Optional[Mapping[str, RegisterTransform]] = None
    ):
        self._transforms = dict(transforms or {})

    def set_transform(self, module: str, transform: RegisterTransform) -> None:
        self._transforms[module] = transform

    # -- public API -----------------------------------------------------------

    def swap_pipe(
        self, pipe: Pipe, new_library: Dict[str, CompiledModule]
    ) -> SwapReport:
        """Patch ``pipe`` in place so it runs ``new_library``.

        The pipe's top specialization key must still exist in the new
        library (renaming the top module is a rebuild, not a reload).
        """
        started = time.perf_counter()
        report = SwapReport()
        top_key = pipe.top.code.key
        if top_key not in new_library:
            raise SimulationError(
                f"new library has no module for top key {top_key!r}"
            )
        self._swap_inst(pipe.top, top_key, new_library, report)
        pipe.library = dict(new_library)
        pipe.refresh_library_traits()
        pipe._last_outputs = None
        report.seconds = time.perf_counter() - started
        return report

    def swap_stage(
        self,
        pipe: Pipe,
        stage_path: str,
        new_library: Dict[str, CompiledModule],
    ) -> SwapReport:
        """Swap only the subtree at ``stage_path`` (Table I swapStage).

        The new stage must be interface-compatible with the old one,
        because the parent's compiled code is not being replaced.
        """
        started = time.perf_counter()
        inst = pipe.find(stage_path)
        new_code = new_library.get(inst.code.key)
        if new_code is None:
            raise SimulationError(
                f"new library has no module for key {inst.code.key!r}"
            )
        if new_code.interface_fp != inst.code.interface_fp:
            raise SimulationError(
                f"stage {stage_path!r} interface changed; the parent must be "
                "recompiled — use swap_pipe instead"
            )
        report = SwapReport()
        self._swap_inst(inst, inst.code.key, new_library, report)
        pipe.library.update(new_library)
        pipe.refresh_library_traits()
        pipe._last_outputs = None
        report.seconds = time.perf_counter() - started
        return report

    # -- recursive swap -----------------------------------------------------------

    def _swap_inst(
        self,
        inst: StageInst,
        new_key: str,
        library: Dict[str, CompiledModule],
        report: SwapReport,
    ) -> None:
        new_code = library[new_key]
        old_code = inst.code
        unchanged = new_code is old_code or (
            new_code.source_hash == old_code.source_hash
            # Identical generated code can still reference different
            # child specializations (a parameter-only change in an
            # instantiation): that is a structural change, not a keep.
            and new_code.child_insts == old_code.child_insts
        )
        if unchanged:
            # This module did not change (identical object from the
            # compile cache, or a byte-identical fresh compile): rebind
            # the pointer, keep the state.  A *descendant* may still
            # have changed (a body-only change deeper down reuses every
            # ancestor's code object), so keep walking.
            inst.code = new_code
            report.kept_instances += 1
            for child, (_, child_key) in zip(inst.children, new_code.child_insts):
                self._swap_inst(child, child_key, library, report)
            return

        self._migrate_state(inst, old_code, new_code, report)
        report.modules_changed.add(new_code.name)
        report.swapped_instances += 1

        # Reconcile children against the new module's instance list.
        old_children = {child.name: child for child in inst.children}
        new_children = []
        for child_name, child_key in new_code.child_insts:
            old_child = old_children.get(child_name)
            if old_child is not None and self._reusable(old_child, child_key,
                                                        library):
                self._swap_inst(old_child, child_key, library, report)
                new_children.append(old_child)
            else:
                new_children.append(
                    StageInst.build(child_key, library, name=child_name)
                )
                report.rebuilt_instances += 1
        inst.children = new_children
        inst.code = new_code

    @staticmethod
    def _reusable(
        old_child: StageInst, child_key: str, library: Dict[str, CompiledModule]
    ) -> bool:
        new_child_code = library.get(child_key)
        if new_child_code is None:
            return False
        # Reusable when the child is the same module (state can be
        # migrated) — spec key equality covers name + parameters.
        return old_child.code.key == child_key

    def _migrate_state(
        self,
        inst: StageInst,
        old_code: CompiledModule,
        new_code: CompiledModule,
        report: SwapReport,
    ) -> None:
        transform = self._transforms.get(new_code.name)
        if transform is None:
            transform = guess_transforms(old_code.reg_widths, new_code.reg_widths)
        old_values = {
            name: inst.state[slot] for name, slot in old_code.reg_slots.items()
        }
        migrated = transform.apply(old_values)

        new_state = new_code.make_state()
        num_regs = new_code.num_regs
        for name, slot in new_code.reg_slots.items():
            if name in migrated:
                value = migrated[name] & ((1 << new_code.reg_widths[name]) - 1)
                new_state[slot] = value
                new_state[slot + num_regs] = value
                report.registers_migrated += 1

        old_sanitized = old_code.build.sanitize
        if new_code.build.sanitize:
            # State this reload *introduces* (registers with no migrated
            # value) is poison — the sanitizer's uninit-read check fires
            # if the new logic reads it before writing it.  Same-name
            # migrated registers carry the old poison bit; renames drop
            # it (documented limitation).
            old_poison = (
                inst.state[old_code.layout.reg_poison_slot]
                if old_sanitized else 0
            )
            # A CREATE op materializes a value the simulation never
            # computed — poisoned just like a register with no migrated
            # value at all.
            created = {
                op.name for op in transform.ops if op.kind == "create"
            }
            # Registers the dataflow pass proved constant from reset
            # adopt the proven value instead of poison: the value a
            # from-reset run would hold is fully known, so reading it is
            # not reading uninitialized state (the "fully-known init"
            # elision case).  CREATE'd registers keep user semantics.
            const_init = new_code.reg_const_init
            pbits = 0
            for name, slot in new_code.reg_slots.items():
                if name not in migrated or name in created:
                    if name not in created and name in const_init:
                        value = const_init[name] & (
                            (1 << new_code.reg_widths[name]) - 1
                        )
                        new_state[slot] = value
                        new_state[slot + num_regs] = value
                        report.registers_migrated += 1
                        continue
                    pbits |= 1 << slot
                else:
                    old_slot = old_code.reg_slots.get(name)
                    if old_slot is not None and (old_poison >> old_slot) & 1:
                        pbits |= 1 << slot
            new_state[new_code.layout.reg_poison_slot] = pbits

        # Memories follow the same rules, keyed by (possibly renamed)
        # name; shrunk widths mask, changed depths copy the overlap.
        name_map = {name: name for name in old_code.mem_specs}
        for op in transform.ops:
            if op.kind == "rename" and op.name in name_map:
                name_map[op.name] = op.new_name
            elif op.kind == "delete":
                name_map.pop(op.name, None)
        copied: Dict[str, tuple] = {}
        for old_name, new_name in name_map.items():
            old_spec = old_code.mem_specs[old_name]
            new_spec = new_code.mem_specs.get(new_name)
            if new_spec is None:
                continue
            old_words = inst.state[old_spec.slot]
            new_words = new_state[new_spec.slot]
            count = min(len(old_words), len(new_words))
            if new_spec.width < old_spec.width:
                mask = (1 << new_spec.width) - 1
                new_words[0:count] = [w & mask for w in old_words[0:count]]
            else:
                new_words[0:count] = old_words[0:count]
            copied[new_name] = (
                count,
                inst.state[old_spec.poison_slot] if old_sanitized else 0,
            )
            report.memories_migrated += 1

        if new_code.build.sanitize:
            for name, spec in new_code.mem_specs.items():
                carried = copied.get(name)
                if carried is None:
                    # Brand-new memory: every word is fresh state.
                    poison = (1 << spec.depth) - 1
                else:
                    count, old_bits = carried
                    # Grown tail is fresh; copied words keep old poison.
                    poison = ((1 << spec.depth) - 1) & ~((1 << count) - 1)
                    poison |= old_bits & ((1 << count) - 1)
                new_state[spec.poison_slot] = poison

        inst.state = new_state
