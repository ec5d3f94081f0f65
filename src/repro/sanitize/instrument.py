"""Where a sanitizer hook goes, and what it looks like in generated code.

One :class:`Instrumenter` per module compile.  The code generator
(:mod:`repro.codegen.pygen`, through :mod:`~repro.codegen.exprgen`)
calls it at every site that can misbehave at run time and at the four
structural points of ``cycle``; it answers with the text to emit and
counts what it wrote.  It is the only code that spells a call into the
:class:`~repro.sanitize.runtime.SanitizerRuntime` (bound as the global
``_san`` when the source is exec'd) or the site table ``_SAN_I``.

Sites (each adds one to :attr:`Instrumenter.sites`, emitted or elided):

* ``rr`` — a register read, checked against its poison bit;
* ``mr`` — a memory read: address bound, then word poison;
* ``ob`` — a dynamic bit/part-select index or a memory-write address,
  checked against its bound before the wrap hides it;
* ``tr`` — an assignment statically wider than its target, in place of
  the silent mask;
* ``nw`` — a nonblocking register write, noted in the per-cycle dict
  the conflict check and the commit's poison clearing read.

The :class:`~repro.sanitize.elide.ElisionPlan` decides the shape: an
``ob`` / ``tr`` site proven safe is written as the clean code would be
(and counted in :attr:`Instrumenter.elided`); under ``rr_fast`` every
other site tests its reporting condition inline and calls the hook only
when it would report, so hit counts and findings are what the plain
calls give.  Sanitized state layout (the poison bitmaps, the ``_nw``
dict) is :class:`repro.codegen.pygen.StateLayout`'s.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..hdl.consteval import mask_of
from ..ir.netlist import ModuleIR
from .elide import EMPTY_PLAN, ElisionPlan


class Instrumenter:
    """The hooks of one module compile.

    ``layout`` and ``mems`` are the generator's state layout and its
    name -> memory spec map (``depth``, ``poison_slot``); ``seq_writers``
    maps a register to the sequential blocks that may write it.  Methods
    that write statements take the emitter to write them with.
    """

    def __init__(self, ir: ModuleIR, layout, mems: Dict[str, object],
                 seq_writers: Dict[str, Set[int]],
                 plan: ElisionPlan = EMPTY_PLAN):
        self._ir = ir
        self._poison_slot = layout.reg_poison_slot
        self._nw_slot = layout.nw_slot
        self._mems = mems
        self._seq_writers = seq_writers
        self._plan = plan
        # Nothing to track without a register some block writes.
        self._tracks_writes = bool(ir.seq_blocks and ir.num_regs)
        # (module, signal, file-absolute line) per emitted site: a
        # literal table in the generated source, so store rehydration
        # carries it for free.
        self._infos: List[Tuple[str, str, int]] = []
        self.sites = 0
        self.elided = 0

    def _info(self, signal: str, line: int) -> str:
        """Register one emitted site; returns its table reference."""
        self._infos.append((self._ir.name, signal, line))
        return f"_SAN_I[{len(self._infos) - 1}]"

    def _temp(self) -> str:
        return f"_sv{len(self._infos)}"

    # -- expression sites (exprgen.ExprGen) -----------------------------------

    def reg_read(self, name: str, ref: str, line: int) -> Optional[str]:
        """The replacement for register read ``ref``, or None to keep
        it (inputs and comb wires carry no poison)."""
        sig = self._ir.signals.get(name)
        if sig is None or sig.state_index is None:
            return None
        self.sites += 1
        call = (
            f"_san.rr(s[{self._poison_slot}], {sig.state_index}, "
            f"{ref}, {self._info(name, line)})"
        )
        if self._plan.rr_fast:
            # The hook runs exactly when the bit is set (when it would
            # report or trap).  Never elided: a swap or a restore can
            # poison any register at any time.
            return (
                f"{ref} if not s[{self._poison_slot}] >> "
                f"{sig.state_index} & 1 else {call}"
            )
        return call

    def mem_read(self, name: str, index_code: str, line: int) -> str:
        """The whole indexed read of memory ``name``."""
        mem = self._mems[name]
        self.sites += 1
        info = self._info(name, line)
        if self._plan.rr_fast:
            # The hook returns mem[index % depth], which is mem[t] when
            # t < depth: in bounds and unpoisoned never calls.
            t = self._temp()
            return (
                f"(_m_{name}[{t}] if ({t} := ({index_code})) < "
                f"{mem.depth} and not s[{mem.poison_slot}] >> {t} & 1 "
                f"else _san.mr(_m_{name}, s[{mem.poison_slot}], "
                f"{t}, {info}))"
            )
        return (
            f"_san.mr(_m_{name}, s[{mem.poison_slot}], "
            f"({index_code}), {info})"
        )

    def index_bound(self, name: str, index_code: str, bound: int,
                    line: int) -> str:
        """A dynamic select index of ``name``, checked against ``bound``."""
        self.sites += 1
        if (name, line) in self._plan.ob_safe:
            self.elided += 1
            return index_code  # proven in range for any register state
        info = self._info(name, line)
        if self._plan.rr_fast:
            # ob returns the index either way: call when it reports.
            t = self._temp()
            return (
                f"({t} if ({t} := ({index_code})) < {bound} "
                f"else _san.ob({t}, {bound}, {info}))"
            )
        return f"_san.ob(({index_code}), {bound}, {info})"

    # -- statement sites (exprgen.StmtGen, pygen) -----------------------------

    def trunc(self, value_code: str, declared: int, line: int,
              target: str) -> str:
        """A value statically wider than its ``declared``-bit target:
        the complete, still masked, value expression."""
        mask = mask_of(declared)
        self.sites += 1
        if (target, line) in self._plan.tr_safe:
            self.elided += 1  # proven to fit: no bits to lose
            return f"(({value_code}) & {mask})"
        info = self._info(target, line)
        if self._plan.rr_fast:
            # Values are non-negative, so bits above the mask exist
            # exactly when value > mask.
            t = self._temp()
            return (
                f"(({t} if ({t} := ({value_code})) <= {mask} "
                f"else _san.tr({t}, {mask}, {info})) & {mask})"
            )
        return f"(_san.tr(({value_code}), {mask}, {info}) & {mask})"

    def write_note(self, emit, name: str, wmask: Optional[int], line: int,
                   block_id: int) -> None:
        """Note that sequential block ``block_id`` writes the ``wmask``
        bits (None: all) of register ``name``, before the write."""
        sig = self._ir.signals[name]
        full = mask_of(sig.width)
        mask = full if wmask is None else (wmask & full)
        self.sites += 1
        if self._plan.rr_fast and len(self._seq_writers.get(name, ())) <= 1:
            # One block can write it, so the cross-block conflict cannot
            # fire and the commit only reads the dict's keys.
            emit.line(f"_nw[{sig.state_index}] = ({block_id}, {mask})")
            return
        emit.line(
            f"_san.nw(_nw, {sig.state_index}, "
            f"{block_id}, {mask}, {self._info(name, line)})"
        )

    def mem_write_addr(self, name: str, addr_code: str, line: int) -> str:
        """The address of a write to memory ``name``, bound-checked
        before the wrap hides it."""
        self.sites += 1
        if (name, line) in self._plan.ob_safe:
            self.elided += 1  # proven < depth
            return addr_code
        return (
            f"_san.ob(({addr_code}), {self._mems[name].depth}, "
            f"{self._info(name, line)})"
        )

    # -- the structural points of cycle (pygen) -------------------------------

    def open_cycle(self, emit) -> None:
        """Top of ``cycle``: this cycle's write notes start empty."""
        if self._tracks_writes:
            emit.line(f"_nw = s[{self._nw_slot}]")
            emit.line("_nw.clear()")

    def commit_regs(self, emit) -> None:
        """After the register commit: a register written this cycle
        (a key of the notes) is defined from here on."""
        if not self._tracks_writes:
            return
        emit.line("if _nw:")
        emit.push()
        emit.line(f"_p = s[{self._poison_slot}]")
        emit.line("for _i in _nw:")
        emit.push()
        emit.line("_p &= ~(1 << _i)")
        emit.pop()
        emit.line(f"s[{self._poison_slot}] = _p")
        emit.pop()

    def commit_mem_word(self, emit, name: str) -> None:
        """Inside the commit loop of memory ``name``: word ``_a`` is
        defined from here on."""
        emit.line(f"s[{self._mems[name].poison_slot}] &= ~(1 << _a)")

    def epilogue(self) -> str:
        """Module-level text after the two functions: the site table
        (the hooks index it at call time, so the order is free)."""
        return f"\n_SAN_I = {self._infos!r}\n"
