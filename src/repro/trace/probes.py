"""Hierarchical-name signal resolution for live trace probes.

A probe is named the way a designer reads the design, not the way the
simulator stores it:

- ``count`` — a top-level output port (or a top-level register);
- ``u_add.sum_q`` — register ``sum_q`` in instance ``u_add``;
- ``u_mem.cells[3]`` — word 3 of memory ``cells`` in ``u_mem``.

Resolution happens against a live :class:`~repro.sim.pipeline.Pipe`
and is repeated after every hot reload (``TraceProbe.bind``): the same
name may resolve to a different compiled slot in the new design, or to
nothing at all — in which case the probe is marked ``missing`` and
capture simply skips it until a later design brings the signal back.
"""

from __future__ import annotations

import re
from typing import Callable, Optional, Tuple, Union

from ..hdl.errors import SimulationError
from ..sim.pipeline import Pipe
from ..sim.stage import StageInst

_MEM_WORD_RE = re.compile(r"^(?P<base>.+)\[(?P<index>\d+)\]$")

# Where a named probe's value lives, for a TraceBuffer's capture plan:
# (OUTPUT, position in the top's output tuple), (REGISTER, inst, slot)
# or (MEMORY_WORD, inst, slot, index), read as ``inst.state[slot]``
# (and ``[index]``) on every capture, as the getter reads it.
OUTPUT, REGISTER, MEMORY_WORD = "output", "register", "memory word"
Site = Union[Tuple[str, int], Tuple[str, StageInst, int],
             Tuple[str, StageInst, int, int]]


def _split_path(name: str) -> Tuple[str, str]:
    """``a.b.c`` -> (``a.b``, ``c``); no dot -> (``""``, name)."""
    if "." in name:
        path, _, leaf = name.rpartition(".")
        return path, leaf
    return "", name


def resolve_signal(
    pipe: Pipe, signal: str
) -> Tuple[int, Callable[[Pipe], int]]:
    """Resolve ``signal`` against ``pipe``; return ``(width, getter)``
    (:func:`resolve_site`)."""
    width, getter, _ = resolve_site(pipe, signal)
    return width, getter


def resolve_site(
    pipe: Pipe, signal: str
) -> Tuple[int, Callable[[Pipe], int], Site]:
    """Resolve ``signal`` against ``pipe``; return ``(width, getter,
    site)``: the getter reads what the :data:`Site` names.

    Raises :class:`SimulationError` when the name does not name a
    register, output port, or memory word of the current design.
    A register or memory-word getter holds the ``StageInst`` and the
    slot the name resolves to now, and reads ``inst.state`` on every
    call (a rewind to power-on replaces state lists, not instances).
    Only a hot swap replaces instances or moves slots, and every swap
    re-resolves the probes (``TraceBuffer.rebind``).
    """
    memory_word = _MEM_WORD_RE.match(signal)
    if memory_word:
        path, memory = _split_path(memory_word.group("base"))
        index = int(memory_word.group("index"))
        inst = pipe.find(path)
        spec = inst.code.mem_specs.get(memory)
        if spec is None:
            raise SimulationError(
                f"{inst.code.name!r} has no memory {memory!r}"
            )
        if not 0 <= index < spec.depth:
            raise SimulationError(
                f"index {index} outside memory {memory!r} "
                f"(depth {spec.depth})"
            )

        def mem_getter(p: Pipe, _inst=inst, _slot=spec.slot,
                       _i=index) -> int:
            return _inst.state[_slot][_i]

        return spec.width, mem_getter, (MEMORY_WORD, inst, spec.slot, index)

    path, leaf = _split_path(signal)
    if not path:
        code = pipe.top.code
        if leaf in code.outputs:
            width = (
                code.ir.signals[leaf].width
                if leaf in code.ir.signals else 64
            )

            def out_getter(p: Pipe, _port=leaf) -> int:
                return p.outputs()[_port]

            return width, out_getter, (OUTPUT, code.outputs.index(leaf))

    inst = pipe.find(path)
    if leaf not in inst.code.reg_slots:
        raise SimulationError(
            f"cannot resolve signal {signal!r}: "
            f"{inst.code.name!r} has no register "
            f"{'or output ' if not path else ''}{leaf!r}"
        )
    width = inst.code.reg_widths[leaf]
    slot = inst.code.reg_slots[leaf]

    def reg_getter(p: Pipe, _inst=inst, _slot=slot) -> int:
        return _inst.state[_slot]

    return width, reg_getter, (REGISTER, inst, slot)


class TraceProbe:
    """One watched value inside a :class:`TraceBuffer`.

    Two flavors:

    - *named* probes (``signal`` set) resolve against the pipe and can
      re-:meth:`bind` after a hot reload;
    - *expression* probes (``signal`` None, explicit getter) compute a
      value from the pipe, the 'printf' of the live flow
      (``TraceBuffer.add_probe``), and are never re-bound.

    A bound named probe also holds its :data:`Site` (None otherwise),
    which a buffer's capture plan reads in place of the getter.
    """

    __slots__ = ("name", "signal", "width", "getter", "missing", "site")

    def __init__(
        self,
        name: str,
        width: int,
        getter: Optional[Callable[[Pipe], int]],
        signal: Optional[str] = None,
    ):
        self.name = name
        self.signal = signal
        self.width = width
        self.getter = getter
        self.missing = getter is None
        self.site: Optional[Site] = None

    @classmethod
    def named(cls, pipe: Pipe, signal: str) -> "TraceProbe":
        """Resolve ``signal`` now; raises if it does not exist."""
        width, getter, site = resolve_site(pipe, signal)
        probe = cls(signal, width, getter, signal=signal)
        probe.site = site
        return probe

    def bind(self, pipe: Pipe) -> bool:
        """Re-resolve a named probe after a design swap.

        Returns True when the signal exists in the new design.  A
        vanished signal marks the probe ``missing`` (its history is
        kept; capture skips it).  Expression probes are left alone.
        """
        if self.signal is None:
            return not self.missing
        try:
            self.width, self.getter, self.site = resolve_site(pipe, self.signal)
        except SimulationError:
            self.getter = self.site = None
            self.missing = True
            return False
        self.missing = False
        return True

    def read(self, pipe: Pipe) -> Optional[int]:
        if self.getter is None:
            return None
        return self.getter(pipe)
