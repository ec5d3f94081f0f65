"""Where a sanitizer hook goes, and what it looks like in generated code.

One :class:`Instrumenter` per module compile.  The code generator
(:mod:`repro.codegen.pygen`, through :mod:`~repro.codegen.exprgen`)
calls it at every site that can misbehave at run time, at the four
structural points of ``cycle`` and in each function's prologue (the
``_pz`` binding below); it answers with the text to emit and
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

The build's ``san_elide`` decides the shape, and no rule reads a value
fact: a hot swap, a checkpoint restore or a poke can put a register
anywhere inside its declared width.  With it on, an ``ob`` site whose
index is too narrow to reach its bound (``mask_of(width) < bound``) is
written as the clean code would be and counted in
:attr:`Instrumenter.elided`: every generated value is masked to its
width (:mod:`repro.codegen.exprgen`), so the check can never fire,
whatever the registers hold; an ``mr`` site whose index is that narrow
keeps its word-poison test alone (still a site, not elided).  Every
other site tests its reporting condition inline and calls the hook only
when it would report, so hit counts and findings are what the plain
calls give.
Sanitized state layout (the poison bitmaps, the ``_nw`` dict) is
:class:`repro.codegen.module.StateLayout`'s.

Each function that reads the register poison bitmap binds it once, as
``_pz`` (:meth:`Instrumenter.bind_poison`), and a zero bitmap skips all
per-bit poison work.  That is exact because poison bits are only ever
set between edges, by :meth:`repro.sim.stage.StageInst.load`;
``reset_state``, ``poke_reg``, ``write_memory`` and the commit only
clear them, and nothing inside an edge writes this instance's bitmap
before its own commit.  So a bitmap that is zero at the top of
``cycle`` is still zero at the commit: no register read in between can
report, and there is no bit for a write to clear.  The same holds for
each memory's word-poison bitmap.  Under ``san_elide`` a
single-writer write note exists only to feed that clearing, so it is
written only while ``_pz`` is nonzero; a multi-writer note also feeds
the conflict check, which does not depend on poison, and is always
written.  Memory word poison is cleared at the commit only while that
memory's bitmap is nonzero.

Two bodies.  The same argument lets zero bitmaps skip the tests
themselves.  Under ``san_elide``, each function whose body reads a
poison bitmap (binds ``_pz``, or tests or clears a memory's word
poison) is written twice (:mod:`repro.codegen.pygen`):

* the *hooked* body, everything above, named ``_pz_<name>``
  (:meth:`Instrumenter.hooked_name`: never ``eval_...``, the prefix
  ``entry_points`` takes parts by);
* the *poison-free* body, which keeps the function's name and opens by
  handing the call to the hooked one while any bitmap the hooked body
  reads is nonzero (:meth:`Instrumenter.dispatch`,
  ``if s[<bitmap>] or ...: return _pz_<name>(s, ch, <its parameters>)``).
  Written in :meth:`Instrumenter.free_body`, it has no ``rr`` hook, no
  word-poison test, no single-writer note, no commit clearing, and
  opens and clears ``_nw`` only if it writes a multi-writer note.  An
  ``mr`` site keeps only its bound test (none for an index too narrow
  to reach the depth); ``ob``, ``tr`` and multi-writer ``nw`` sites are
  as in the hooked body, since none of them depends on poison.

Bitmaps zero at the function's entry stay zero until the instance's
commit, so the poison-free body computes what the hooked one would and
no hook it leaves out could fire.  Both bodies index one ``_SAN_I``
table (the poison-free body's sites add entries to it, so
:func:`place_sites` moves every finding) and the sites are counted once,
in the hooked body.  A function that reads no bitmap (no register read
or write, no memory read or write) has one body, as has every function
of the plain-hook build (``san_elide`` off).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..hdl.consteval import mask_of
from ..ir.netlist import ModuleIR


class Instrumenter:
    """The hooks of one module compile.

    ``layout`` and ``mems`` are the generator's state layout and its
    name -> memory spec map (``depth``, ``poison_slot``); ``seq_writers``
    maps a register to the sequential blocks that may write it;
    ``elide`` is the build's ``san_elide`` (off: every site a plain hook
    call).  Methods that write statements take the emitter to write
    them with.
    """

    def __init__(self, ir: ModuleIR, layout, mems: Dict[str, object],
                 seq_writers: Dict[str, Set[int]], elide: bool):
        self._ir = ir
        self._poison_slot = layout.reg_poison_slot
        self._nw_slot = layout.nw_slot
        self._mems = mems
        self._seq_writers = seq_writers
        self._elide = elide
        # Nothing to track without a register some block writes.
        self._tracks_writes = bool(ir.seq_blocks and ir.num_regs)
        # (module, signal, file-absolute line) per emitted site: a
        # literal table in the generated source, so store rehydration
        # carries it for free.
        self._infos: List[Tuple[str, str, int]] = []
        # Whether the function being generated names ``_pz``, the
        # memories whose word-poison bitmap it tests, and whether it
        # writes a note the conflict check reads.
        self._reads_poison = False
        self._mem_poison: Set[str] = set()
        self._notes = False
        # Writing a function's poison-free body (:meth:`free_body`).
        self.poison_free = False
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
        if sig is None or sig.state_index is None or self.poison_free:
            return None
        self.sites += 1
        self._reads_poison = True
        bit = sig.state_index
        call = f"_san.rr(_pz, {bit}, {ref}, {self._info(name, line)})"
        if self._elide:
            # The hook runs exactly when the bit is set (when it would
            # report or trap).  Never elided: a swap or a restore can
            # poison any register at any time.
            return f"{call} if _pz and _pz >> {bit} & 1 else {ref}"
        return call

    def mem_read(self, name: str, index_code: str, width: int, line: int) -> str:
        """The whole indexed read of memory ``name`` at a ``width``-bit
        index."""
        mem = self._mems[name]
        self.sites += 1
        if not self.poison_free:
            self._mem_poison.add(name)
        elif self._elide and mask_of(width) < mem.depth:
            return f"_m_{name}[{index_code}]"
        info = self._info(name, line)
        if self._elide:
            # The hook returns mem[index % depth], which is mem[t] when
            # t < depth: in bounds and unpoisoned never calls.  An index
            # too narrow to reach the depth is always in bounds, so the
            # test is its word poison alone (the width rule), and in a
            # poison-free body no test at all.
            t, slot = self._temp(), mem.poison_slot
            if self.poison_free:
                test = f"({t} := ({index_code})) < {mem.depth}"
            elif mask_of(width) < mem.depth:
                test = f"not s[{slot}] >> ({t} := ({index_code})) & 1"
            else:
                test = f"({t} := ({index_code})) < {mem.depth} and not s[{slot}] >> {t} & 1"
            return f"(_m_{name}[{t}] if {test} else _san.mr(_m_{name}, s[{slot}], {t}, {info}))"
        return (
            f"_san.mr(_m_{name}, s[{mem.poison_slot}], "
            f"({index_code}), {info})"
        )

    def _elide_by_width(self, width: int, bound: int) -> bool:
        """Whether an index of ``width`` bits cannot reach ``bound``
        (the width rule; counted as elided)."""
        if self._elide and mask_of(width) < bound:
            self.elided += 1
            return True
        return False

    def index_bound(self, name: str, index_code: str, width: int,
                    bound: int, line: int) -> str:
        """A dynamic select index of ``name``, ``width`` bits wide,
        checked against ``bound``."""
        self.sites += 1
        if self._elide_by_width(width, bound):
            return index_code
        info = self._info(name, line)
        if self._elide:
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
        info = self._info(target, line)
        if self._elide:
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
        if self._elide and len(self._seq_writers.get(name, ())) <= 1:
            # One block can write it, so the cross-block conflict cannot
            # fire and only the commit's poison clearing reads the note:
            # no poison, no note.
            if not self.poison_free:
                emit.line(
                    f"if _pz: _nw[{sig.state_index}] = ({block_id}, {mask})"
                )
            return
        self._notes = True
        emit.line(
            f"_san.nw(_nw, {sig.state_index}, "
            f"{block_id}, {mask}, {self._info(name, line)})"
        )

    def mem_write_addr(self, name: str, addr_code: str, width: int,
                       line: int) -> str:
        """The ``width``-bit address of a write to memory ``name``,
        bound-checked before the wrap hides it."""
        self.sites += 1
        depth = self._mems[name].depth
        if self._elide_by_width(width, depth):
            return addr_code
        return f"_san.ob(({addr_code}), {depth}, {self._info(name, line)})"

    # -- the structural points of eval_out and cycle (pygen) ------------------

    def bind_poison(self, emit) -> Tuple[int, ...]:
        """Prologue of a function, once its body is written: bind the
        register poison bitmap as ``_pz`` if the body reads it (after
        the unpack of the ports and of the stash the function starts
        from).  Returns the state slots of the poison bitmaps the body
        reads, the register one first: while they are all zero the
        function's poison-free body computes what this one does, and
        none means it has no poison-free body to write."""
        bound, self._reads_poison = self._reads_poison, False
        mems, self._mem_poison = self._mem_poison, set()
        slots = [self._mems[name].poison_slot for name in mems]
        if bound:
            emit.line(f"_pz = s[{self._poison_slot}]")
            slots.append(self._poison_slot)
        return tuple(sorted(slots))

    def open_cycle(self, emit) -> None:
        """Prologue of ``cycle``, once its body is written: this cycle's
        write notes start empty (in a poison-free body, only if it
        writes one)."""
        notes, self._notes = self._notes, False
        if self._tracks_writes and (notes or not self.poison_free):
            emit.line(f"_nw = s[{self._nw_slot}]")
            emit.line("_nw.clear()")

    def commit_regs(self, emit) -> None:
        """After the children's ``cycle``s, where the edge's register
        writes are all done: a register written this cycle (a key of the
        notes) is defined from here on.  ``_pz`` is still
        the bitmap: nothing in the edge wrote it."""
        if not self._tracks_writes or self.poison_free:
            return
        self._reads_poison = True
        emit.line("if _pz and _nw:")
        emit.push()
        emit.line("for _i in _nw:")
        emit.push()
        emit.line("_pz &= ~(1 << _i)")
        emit.pop()
        emit.line(f"s[{self._poison_slot}] = _pz")
        emit.pop()

    def commit_mem_word(self, emit, name: str) -> None:
        """Inside the commit loop of memory ``name``: word ``_a`` is
        defined from here on (a poison-free body has no word to
        clear)."""
        if self.poison_free:
            return
        self._mem_poison.add(name)
        slot = self._mems[name].poison_slot
        emit.line(f"if s[{slot}]:")
        emit.push()
        emit.line(f"s[{slot}] &= ~(1 << _a)")
        emit.pop()

    # -- the two bodies of a function (pygen) ---------------------------------

    @contextmanager
    def free_body(self) -> Iterator[None]:
        """Write the poison-free body of the function whose hooked body
        was just written: no ``rr`` hook, no single-writer note, no
        commit clearing.  Its sites add to the table but not to the
        counts, which count the hooked body once."""
        counts = self.sites, self.elided
        self.poison_free = True
        try:
            yield
        finally:
            self.poison_free = False
            self.sites, self.elided = counts

    @staticmethod
    def hooked_name(name: str) -> str:
        """The name of function ``name``'s hooked body (never a part's:
        ``entry_points`` takes those by their ``eval_`` prefix)."""
        return f"_pz_{name}"

    def dispatch(self, emit, name: str, args: str, slots: Tuple[int, ...]) -> None:
        """First line of function ``name``'s poison-free body, which
        takes ``s, ch`` and then ``args``: while any of the poison
        bitmaps in ``slots`` (:meth:`bind_poison`) is nonzero, run the
        hooked body instead."""
        test = " or ".join(f"s[{slot}]" for slot in slots)
        emit.line(f"if {test}: return {self.hooked_name(name)}(s, ch{args})")

    def epilogue(self) -> str:
        """Module-level text after the two functions: the site table
        (the hooks index it at call time, so the order is free)."""
        return f"\n_SAN_I = {self._infos!r}\n"


def place_sites(module, header: int) -> None:
    """Move the site table of compiled ``module`` so that its lines
    count from ``header``, where the module's header is in the file now.

    The table is born in the coordinates of the IR the module was
    generated from (``module.ir.line``), and no cache key holds a
    position, so a module an edit only moved runs the code compiled
    before the move.  The hooks read the table at call time: rebinding
    it moves every finding without a recompile.
    """
    namespace = module.cycle_fn.__globals__
    at = namespace.get("_SAN_AT", module.ir.line)
    if header != at:
        namespace["_SAN_I"] = [
            (name, signal, line + header - at)
            for name, signal, line in namespace["_SAN_I"]
        ]
        namespace["_SAN_AT"] = header
