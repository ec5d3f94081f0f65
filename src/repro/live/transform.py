"""Register transformation rules and history (paper Tables V and VI).

A checkpoint records the entire state of a pipeline.  After a code
change the register topology may differ, so state cannot be blindly
transferred.  LiveSim applies deterministic rules, to registers and
memories alike and to the sanitizer's shadow state (which names hold a
value the simulation never computed) together with the values:

========================  ==============================  =====================
Scenario                  Value                           Shadow state (poison)
========================  ==============================  =====================
Register created          ``init_value`` (default 0)      poisoned
Register deleted          dropped                         dropped
Single register renamed   moves to the new name           moves with the value
Not named by any op       kept under its name             kept
========================  ==============================  =====================

This table is the one statement of the rules and :func:`translate` is
their one interpreter: a hot swap and every restore of a checkpoint
(which keeps the version it was taken in, and is read in the current
one's names through the transforms the history composes) cross a design
version by translating name-keyed state here and then fitting it into
the new layout with :meth:`repro.sim.stage.StageInst.load` (widths,
depths and state the translated snapshot does not carry are that
method's half).

When the mapping is ambiguous, LiveSim "will make its best guess based
on the similarities of names and types" — implemented here with width
matching plus difflib name similarity.  The user can override the guess
by editing the history, which supports branching (Table VI) so design
exploration is not limited to a linear sequence of changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from ..hdl.errors import SimulationError
from ..ir.netlist import module_of
from ..sim.stage import StateSnapshot

CREATE = "create"
DELETE = "delete"
RENAME = "rename"


@dataclass(frozen=True)
class TransformOp:
    """One operation in a register transform (a Table VI row entry)."""

    kind: str  # CREATE | DELETE | RENAME
    name: str
    new_name: str = ""
    init_value: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (CREATE, DELETE, RENAME):
            raise ValueError(f"unknown transform op kind {self.kind!r}")
        if self.kind == RENAME and not self.new_name:
            raise ValueError("rename op needs new_name")

    def describe(self) -> str:
        if self.kind == CREATE:
            return f"create {self.name}"
        if self.kind == DELETE:
            return f"delete {self.name}"
        return f"rename {self.name}, {self.new_name}"


@dataclass
class RegisterTransform:
    """The register-topology delta between two design versions."""

    ops: List[TransformOp] = field(default_factory=list)

    def apply(self, values: Mapping[str, int]) -> Dict[str, int]:
        """Translate a name->value map from the old version's namespace
        into the new version's namespace."""
        return translate(self, StateSnapshot.of("", "", values, {})).regs

    def compose(self, later: "RegisterTransform") -> "RegisterTransform":
        return RegisterTransform(ops=self.ops + later.ops)

    def is_identity(self) -> bool:
        return not self.ops


def guess_transforms(
    old_regs: Mapping[str, int],
    new_regs: Mapping[str, int],
    rename_cutoff: float = 0.6,
) -> RegisterTransform:
    """Best-guess transform between two register-width tables.

    ``old_regs``/``new_regs`` map register name -> width.  Registers
    present in both keep their data implicitly (no op).  A deleted and a
    created register of the *same width* whose names are similar are
    paired as a rename; everything else becomes delete/create.
    """
    old_only = [n for n in old_regs if n not in new_regs]
    new_only = [n for n in new_regs if n not in old_regs]
    ops: List[TransformOp] = []
    matched_new: set = set()
    for old_name in old_only:
        import difflib  # loaded by the first edit that drops a register

        candidates = [
            n
            for n in new_only
            if n not in matched_new and new_regs[n] == old_regs[old_name]
        ]
        best = difflib.get_close_matches(old_name, candidates, n=1,
                                         cutoff=rename_cutoff)
        if best:
            ops.append(TransformOp(kind=RENAME, name=old_name, new_name=best[0]))
            matched_new.add(best[0])
        else:
            ops.append(TransformOp(kind=DELETE, name=old_name))
    for new_name in new_only:
        if new_name not in matched_new:
            ops.append(TransformOp(kind=CREATE, name=new_name))
    return RegisterTransform(ops=ops)


def translate(
    transform: RegisterTransform, snap: StateSnapshot
) -> StateSnapshot:
    """One module's state in the new version's namespace, as a new
    record (``snap.children`` ride along untranslated; an identity
    transform returns ``snap`` itself).

    Applies the Table V rules at the top of this module, op by op, to
    the register values, the memories, and the sanitizer's poisoned
    register names and per-memory word-poison bitmaps alike, reading
    the record by name.  A memory image moves by name as it is: its
    pages stay shared with the checkpoints they were captured against.
    """
    if transform.is_identity():
        return snap
    regs, mems = snap.regs, snap.mems
    poisoned, mem_poison = dict.fromkeys(snap.reg_poison), snap.mem_poison
    for op in transform.ops:
        if op.kind == CREATE:
            regs[op.name] = op.init_value
            poisoned[op.name] = None
            continue
        for table in (regs, mems, poisoned, mem_poison):
            if op.name in table:
                entry = table.pop(op.name)
                if op.kind == RENAME:
                    table[op.new_name] = entry
    return StateSnapshot.of(
        snap.key, snap.name, regs, mems, snap.children,
        reg_poison=tuple(sorted(poisoned)), mem_poison=mem_poison,
    )


def translate_snapshot(
    snap: StateSnapshot,
    transforms: Mapping[str, RegisterTransform],
) -> StateSnapshot:
    """:func:`translate` mapped over a snapshot tree.

    ``transforms`` maps module name -> transform (missing entries mean
    identity); each snapshot names its module by its own spec key, so
    the design the snapshot was taken under need not be at hand.  A
    subtree no transform touches is returned as it is.
    """
    transform = transforms.get(module_of(snap.key))
    translated = snap if transform is None else translate(transform, snap)
    children = tuple([
        translate_snapshot(child, transforms) for child in snap.children
    ])
    if translated is snap and all(map(is_, children, snap.children)):
        return snap
    return translated.replace(children=children)


class _VersionNode(NamedTuple):
    """One version of the history and how state reaches it."""
    version: str
    parent: Optional[str]
    transforms: Dict[str, RegisterTransform]  # module name -> transform


class RegisterTransformHistory:
    """The branching Register Transform History (paper Table VI).

    Versions form a tree rooted at the initial version.  Each node
    stores, per module, the transform needed to carry state *from its
    parent version to itself*.  Translating a checkpoint from version A
    to version B composes the transforms along the tree path A -> B
    (A must be an ancestor of B; LiveSim never transforms backwards).
    """

    def __init__(self, root_version: str = "1.0"):
        self._nodes: Dict[str, _VersionNode] = {
            root_version: _VersionNode(root_version, None, {})
        }
        self._root = root_version

    @property
    def root(self) -> str:
        return self._root

    def versions(self) -> List[str]:
        return list(self._nodes)

    def __contains__(self, version: str) -> bool:
        return version in self._nodes

    def parent_of(self, version: str) -> Optional[str]:
        return self._node(version).parent

    def _node(self, version: str) -> _VersionNode:
        node = self._nodes.get(version)
        if node is None:
            raise SimulationError(f"unknown design version {version!r}")
        return node

    def add_version(
        self,
        version: str,
        parent: str,
        transforms: Optional[Mapping[str, RegisterTransform]] = None,
    ) -> None:
        if version in self._nodes:
            raise SimulationError(f"version {version!r} already exists")
        self._node(parent)  # validate
        self._nodes[version] = _VersionNode(
            version, parent, dict(transforms or {})
        )

    def set_transform(
        self, version: str, module: str, transform: RegisterTransform
    ) -> None:
        """Manual override — the paper's "user can manually edit the
        Register Transform History if the mapping is incorrect"."""
        self._node(version).transforms[module] = transform

    def path(self, old_version: str, new_version: str) -> List[str]:
        """Versions from (exclusive) old to (inclusive) new: the parents
        of ``new_version`` walked until ``old_version``, so the cost is
        the edits between the two, not the length of the history.

        Raises if ``old_version`` is not an ancestor of (or equal to)
        ``new_version`` — a checkpoint cannot cross branches.
        """
        self._node(old_version)  # validate
        chain: List[str] = []
        version: Optional[str] = new_version
        while version != old_version:
            if version is None:
                raise SimulationError(
                    f"version {old_version!r} is not an ancestor of "
                    f"{new_version!r}; checkpoints cannot cross branches"
                )
            chain.append(version)
            version = self._node(version).parent
        return chain[::-1]

    def composed_transforms(
        self, old_version: str, new_version: str
    ) -> Dict[str, RegisterTransform]:
        """Module name -> transform translating that module's state
        from ``old_version`` to ``new_version`` (identity when absent)."""
        composed: Dict[str, RegisterTransform] = {}
        for version in self.path(old_version, new_version):
            for module, transform in self._node(version).transforms.items():
                composed[module] = composed.get(
                    module, RegisterTransform()
                ).compose(transform)
        return composed

    def rows(self) -> List[Tuple[str, str, str]]:
        """(version, operations, parent) rows mirroring Table VI."""
        rows: List[Tuple[str, str, str]] = []
        for node in self._nodes.values():
            ops: List[str] = []
            for module, transform in node.transforms.items():
                for op in transform.ops:
                    prefix = f"{module}." if module else ""
                    ops.append(prefix + op.describe())
            rows.append(
                (node.version, "; ".join(ops) or "-", node.parent or "null")
            )
        return rows
