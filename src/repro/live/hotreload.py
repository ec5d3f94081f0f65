"""Hot reload: swap compiled modules into a running pipeline.

The paper (§V-B) describes the mechanics: "LiveSim calls a method from
the library which creates the new stage object, and copies the register
values from the old one to the new one (taking into account any which
have been added, removed, or renamed)."

This module does exactly that over the :class:`StageInst` tree, and the
copy is the same two steps a checkpoint takes to cross a version: the
instance's own state, snapshotted by name, goes through
:func:`~repro.live.transform.translate` (added, removed, renamed — the
Table V rules stated there) and :meth:`StageInst.load` fits it into the
new module's fresh state.  The swap is in-place: parents keep their
child list positions, and because every instance of a module shares one
code object, patching a module used 256 times costs one compile plus
256 cheap state copies — the reason Fig. 8 stays flat as the mesh grows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Set

from ..codegen.pygen import CompiledModule
from ..hdl.errors import SimulationError
from ..sim.pipeline import Pipe
from ..sim.stage import StageInst
from .transform import RegisterTransform, guess_transforms, translate


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
        report.seconds = time.perf_counter() - started
        return report

    def swap_stage(
        self,
        pipe: Pipe,
        stage_path: str,
        new_library: Dict[str, CompiledModule],
    ) -> SwapReport:
        """Swap only the subtree at ``stage_path`` (Table I swapStage).

        The new stage must look the same from outside (ports and
        per-output dependencies: what the parent's compiled code was
        generated against), because that code is not being replaced.
        """
        started = time.perf_counter()
        inst = pipe.find(stage_path)
        new_code = new_library.get(inst.code.key)
        if new_code is None:
            raise SimulationError(
                f"new library has no module for key {inst.code.key!r}"
            )
        if new_code.ir.comb_signature != inst.code.ir.comb_signature:
            raise SimulationError(
                f"stage {stage_path!r} interface changed; the parent must be "
                "recompiled — use swap_pipe instead"
            )
        report = SwapReport()
        self._swap_inst(inst, inst.code.key, new_library, report)
        pipe.library.update(new_library)
        pipe.refresh_library_traits()
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

        transform = self._transforms.get(new_code.name)
        if transform is None:
            transform = guess_transforms(old_code.reg_widths, new_code.reg_widths)
        # Children cross the swap as live instances (reconciled below),
        # so the state that is snapshotted and loaded is this
        # instance's own.
        old_children = {child.name: child for child in inst.children}
        inst.children = []
        carried = translate(transform, inst.snapshot())
        inst.code = new_code
        inst.state = new_code.make_state()
        inst.load(carried)
        report.registers_migrated += len(carried.regs.keys() & new_code.reg_slots)
        report.memories_migrated += len(carried.mems.keys() & new_code.mem_specs)
        report.modules_changed.add(new_code.name)
        report.swapped_instances += 1

        # Reconcile children against the new module's instance list.
        for child_name, child_key in new_code.child_insts:
            old_child = old_children.get(child_name)
            if old_child is not None and self._reusable(old_child, child_key,
                                                        library):
                self._swap_inst(old_child, child_key, library, report)
                inst.children.append(old_child)
            else:
                inst.children.append(StageInst.build(
                    child_key, library, name=child_name, parent=inst
                ))
                report.rebuilt_instances += 1

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
