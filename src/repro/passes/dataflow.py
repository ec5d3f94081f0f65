"""Known-bits & value-range dataflow analysis (``ValueFactsPass``).

Forward abstract interpretation over each module's comb schedule and
sequential transitions.  Every signal gets a :class:`ValueFact` — a
known-bits mask/value pair plus an unsigned interval — computed under
the runtime rule of :mod:`repro.hdl.consteval`: widths are its
``width_of``, constant operands go through its ``fold_unary`` /
``fold_binary``.  The seq back-edge runs to a fixpoint with interval
widening after :data:`WIDEN_ROUNDS`.

Instance connections propagate facts across the hierarchy in two
phases: a bottom-up pass summarizes every module with unconstrained
inputs, then a top-down pass joins each child's input facts over all
of its instantiation sites — a constant-driven child input specializes
the child.

One fact tier per module, ``env``: the *from-reset* invariant
(registers start from the power-on zero state).  Its readers are the
analyzer's proof-backed checks and ``--explain``; nothing in the
compile reads it.  No fact changes what generated code computes, or
which compiled module is reused: a hot swap adopts live state outside
the from-reset ranges, so the optimizer folds syntactically, the
sanitizer elides a check by width alone and state a new version
introduces is poisoned whatever the facts say.

The final converged walk also records per-site facts for sanitizer
sites (ob/tr) and branch conditions, keyed ``(kind, name, line)`` —
the same granularity the runtime dedupes findings at — so the
proof-backed checks reason about exactly the sites codegen instruments.

Walks share work per *item* (a continuous assign, a comb block, a
sequential block) through the item memo: ``(item shape, the facts of
every name the item can read)`` -> ``(facts it writes, names every path
assigns, its site calls)``.  The shape
(:func:`repro.hdl.elaborate.item_shape`) is everything the evaluation
reads of the item and its ``ModuleIR``: the folded tree, its lines
relative to the item's first line, and the width (and depth) of every
name in it.  "Can read" is the value's and the target index's reads for
an assign, a comb block's ``reads`` (it zeroes the names it writes
before its body runs), and the names a sequential block reads *or
writes* (a path that leaves a register alone falls back to its current
fact).  Every evaluation logs its site-recorder calls, lines relative to
the item's first line, whether or not the walk records; a hit replays
the log into the walk's recorder at the item's line.  So a recording
walk may hit an entry a non-recording round made, an item an edit only
moved hits, and later rounds, the final walk, the specialised phase-2
run *and the next version of the module*
re-evaluate only the cone of what differs between them (counted:
``dataflow.items_evaluated`` / ``items_reused``).

The memo lives in the session's derived cache (kind
``passes.dataflow.items``): one dict per module run, the most recent
:data:`~repro.codegen.build.CACHE_GENERATIONS` runs of each
specialisation kept.  A run looks in its own dict, then in the older
ones, and keeps what it takes from them; an entry dies with the last
run that used it.  Entries hold facts, name sets and logs, never an IR
or AST node.  Inside an item, branch arms run in place: every store goes
through ``_put``, which journals ``(dict, name, previous)``, and
unwinding the journal after an arm leaves ``env`` / ``writes`` equal to
what they were before it; the merge joins only names an arm stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .. import obs
from ..analyze.diagnostics import QUOTE
from ..codegen.build import DerivedCache
from ..hdl import ast_nodes as ast
from ..hdl.consteval import (
    expr_reads,
    fold_binary,
    fold_unary,
    is_signed,
    mask_of,
    num_value,
    num_width,
    width_of,
)
from ..hdl.errors import HDLError
from ..ir.netlist import CombAssignIR, ModuleIR, Netlist, SeqBlockIR
from .base import Pass, PassData

ITEMS = "passes.dataflow.items"  # the item memo's kind of derived cache
WIDEN_ROUNDS = 4   # interval-growth rounds before widening kicks in
MAX_ROUNDS = 12    # hard fixpoint cap (post-widening convergence is fast)
EXPLAIN_DEPTH = 4  # derivation-chain depth surfaced by ``--explain``


# ----------------------------------------------------------------------------
# The abstract domain
# ----------------------------------------------------------------------------


class ValueFact(NamedTuple):
    """Known bits plus an unsigned interval, at a fixed bit width.

    Invariants (maintained by :func:`_make`): ``known_bits`` is a
    subset of ``known_mask``; ``lo <= hi`` and both fit in ``width``
    bits; every concrete value ``v`` satisfies
    ``v & known_mask == known_bits`` and ``lo <= v <= hi``.

    A tuple: the item memo's keys hash and compare facts by the
    thousand per edit, and a tuple does both in C.
    """

    width: int
    known_mask: int
    known_bits: int
    lo: int
    hi: int

    @property
    def mask(self) -> int:
        return mask_of(self.width)

    @property
    def is_const(self) -> bool:
        return self.lo == self.hi

    @property
    def const_value(self) -> int:
        return self.lo

    @property
    def is_top(self) -> bool:
        return not self.known_mask and self.lo == 0 and self.hi == self.mask

    def truth(self) -> Optional[bool]:
        """Known boolean interpretation, or ``None``."""
        if self.hi == 0:
            return False
        if self.lo >= 1 or self.known_bits:
            return True
        return None

    def describe(self) -> str:
        if self.is_const:
            return f"= {self.lo:#x}"
        parts = [f"in [{self.lo}, {self.hi}]"]
        if self.known_mask:
            parts.append(
                f"bits {self.known_bits:#x} known under {self.known_mask:#x}"
            )
        return ", ".join(parts)


# ValueFact(*fields) without the Python-level ``__new__`` a NamedTuple
# generates (the walk builds facts by the ten thousand per edit).
_fact = partial(tuple.__new__, ValueFact)
_TOP_CACHE: Dict[int, ValueFact] = {}


def vf_top(width: int) -> ValueFact:
    # Memoized: tops are requested constantly in the walk, and sharing
    # the (frozen) instance lets branch merges skip joins by identity.
    fact = _TOP_CACHE.get(width)
    if fact is None:
        fact = _TOP_CACHE[width] = _fact((width, 0, 0, 0, mask_of(width)))
    return fact


def vf_const(value: int, width: int) -> ValueFact:
    value &= mask_of(width)
    return _fact((width, mask_of(width), value, value, value))


def _make(width: int, km: int, kb: int, lo: int, hi: int) -> ValueFact:
    """Normalize and cross-strengthen the two abstractions.  A
    contradiction (empty concretization) degrades to top — sound, if
    imprecise, for code the walk thought reachable."""
    mask = mask_of(width)
    km &= mask
    kb &= km
    lo = max(lo, 0)
    hi = min(hi, mask)
    if lo > hi:
        return vf_top(width)
    # Bits at or above hi's magnitude are provably zero.
    km |= mask & ~mask_of(hi.bit_length())
    # Known-one bits floor the value; unknown bits ceiling it.
    lo = max(lo, kb)
    hi = min(hi, kb | (mask & ~km))
    if lo > hi:
        return vf_top(width)
    if lo == hi:
        return _fact((width, mask, lo, lo, lo))
    return _fact((width, km, kb, lo, hi))


def vf_to_width(fact: ValueFact, width: int) -> ValueFact:
    """Zero-extend or truncate, mirroring codegen's masking."""
    if width == fact.width:
        return fact
    if width > fact.width:
        # High bits are known zero.
        km = fact.known_mask | (mask_of(width) & ~mask_of(fact.width))
        return _make(width, km, fact.known_bits, fact.lo, fact.hi)
    mask = mask_of(width)
    if fact.hi <= mask:
        lo, hi = fact.lo, fact.hi
    else:
        lo, hi = 0, mask
    return _make(width, fact.known_mask, fact.known_bits, lo, hi)


def vf_join(a: Optional[ValueFact], b: Optional[ValueFact],
            ) -> Optional[ValueFact]:
    if a is None or b is None:
        return None
    if a == b:  # a fact is a fixpoint of _make, so is its join with itself
        return a
    width = max(a.width, b.width)
    a, b = vf_to_width(a, width), vf_to_width(b, width)
    km = a.known_mask & b.known_mask & ~(a.known_bits ^ b.known_bits)
    return _make(width, km, a.known_bits & km,
                 min(a.lo, b.lo), max(a.hi, b.hi))


def vf_widen(old: ValueFact, new: ValueFact) -> ValueFact:
    """Jump a still-moving interval bound to its extreme so the seq
    fixpoint terminates; the known-bits lattice has finite height and
    needs no help."""
    lo = new.lo if new.lo >= old.lo else 0
    hi = new.hi if new.hi <= old.hi else mask_of(new.width)
    return _make(new.width, new.known_mask, new.known_bits, lo, hi)


def _trailing_known(fact: ValueFact) -> int:
    """Length of the known run starting at bit 0."""
    unknown = ~fact.known_mask & fact.mask
    if not unknown:
        return fact.width
    return (unknown & -unknown).bit_length() - 1


def _as_num(fact: ValueFact, line: int) -> ast.Num:
    return ast.Num(value=fact.const_value, width=fact.width, line=line)


# ----------------------------------------------------------------------------
# Abstract expression evaluation
# ----------------------------------------------------------------------------


class FactEval:
    """Evaluates expressions over an environment of ValueFacts.

    ``eval`` returns ``None`` only for expressions codegen itself
    cannot size (the caller treats that as top).  When a call
    log (a list) is attached, the :class:`_SiteRecorder` calls for
    ob/tr sites and decided branch conditions are appended to it as
    ``(method name, line - base, *args)``, for
    :meth:`_SiteRecorder.replay`.
    """

    def __init__(self, ir: ModuleIR, env: Dict[str, ValueFact],
                 recorder=None, base: int = 0):
        self.ir = ir
        self.env = env
        self.rec = recorder
        self.base = base
        self._widths = (ir.signal_width, ir.memory_width)  # bound once

    def width_of(self, expr) -> Optional[int]:
        """The codegen width, ``None`` where codegen would raise."""
        try:
            return width_of(expr, *self._widths)
        except HDLError:
            return None

    def _top(self, expr) -> Optional[ValueFact]:
        width = self.width_of(expr)
        return vf_top(width) if width is not None else None

    # -- evaluation ----------------------------------------------------------

    def eval(self, expr) -> Optional[ValueFact]:
        if isinstance(expr, ast.Num):
            return vf_const(num_value(expr), num_width(expr))
        if isinstance(expr, ast.Id):
            fact = self.env.get(expr.name)
            return fact if fact is not None else self._top(expr)
        if isinstance(expr, ast.Unary):
            return self._eval_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr)
        if isinstance(expr, ast.Ternary):
            return self._eval_ternary(expr)
        if isinstance(expr, ast.Concat):
            return self._eval_concat(expr)
        if isinstance(expr, ast.Repl):
            return self._eval_repl(expr)
        if isinstance(expr, ast.Index):
            return self._eval_index(expr)
        if isinstance(expr, ast.Slice):
            return self._eval_slice(expr)
        if isinstance(expr, ast.IndexedPart):
            return self._eval_indexed_part(expr)
        if isinstance(expr, ast.SysCall):
            if expr.func in ("$signed", "$unsigned") and expr.args:
                fact = self.eval(expr.args[0])
                width = self.width_of(expr)
                if fact is None or width is None:
                    return self._top(expr)
                return vf_to_width(fact, width)
            return self._top(expr)
        return None

    def _eval_unary(self, expr) -> Optional[ValueFact]:
        fact = self.eval(expr.operand)
        if fact is None:
            return self._top(expr)
        if fact.is_const:
            folded = fold_unary(expr.op, _as_num(fact, expr.line), expr.line)
            if folded is not None:
                return vf_const(num_value(folded), num_width(folded))
        op, mask = expr.op, fact.mask
        if op == "~":
            return _make(fact.width, fact.known_mask,
                         ~fact.known_bits & fact.known_mask,
                         mask - fact.hi, mask - fact.lo)
        if op == "-":
            if fact.lo >= 1:
                return _make(fact.width, 0, 0,
                             mask + 1 - fact.hi, mask + 1 - fact.lo)
            return vf_top(fact.width)
        if op == "!":
            truth = fact.truth()
            return vf_top(1) if truth is None else vf_const(int(not truth), 1)
        if op == "&":
            if fact.hi < mask or (fact.known_mask & ~fact.known_bits & mask):
                return vf_const(0, 1)
            return vf_top(1)
        if op == "|":
            truth = fact.truth()
            return vf_top(1) if truth is None else vf_const(int(truth), 1)
        return vf_top(1) if op == "^" else self._top(expr)

    def _eval_binary(self, expr) -> Optional[ValueFact]:
        op = expr.op
        # Signed lowerings sign-extend at runtime; stay top there.
        if op == ">>>" and is_signed(expr.left):
            return self._top(expr)
        if (op in ("<", "<=", ">", ">=") and is_signed(expr.left)
                and is_signed(expr.right)):
            return vf_top(1)
        lf, rf = self.eval(expr.left), self.eval(expr.right)
        if lf is not None and rf is not None and lf.is_const and rf.is_const:
            folded = fold_binary(op, _as_num(lf, expr.line),
                                  _as_num(rf, expr.line), expr.line)
            if folded is not None:
                return vf_const(num_value(folded), num_width(folded))
        wl, wr = self.width_of(expr.left), self.width_of(expr.right)
        if lf is None or rf is None or wl is None or wr is None:
            return self._top(expr)
        lf, rf = vf_to_width(lf, wl), vf_to_width(rf, wr)
        wide = max(wl, wr)
        if op in ("+", "-", "*"):
            a, b = vf_to_width(lf, wide), vf_to_width(rf, wide)
            full = mask_of(wide)
            run = min(_trailing_known(a), _trailing_known(b))
            low = mask_of(run)
            if op == "+":
                kb = (a.known_bits + b.known_bits) & low
                fits = a.hi + b.hi <= full
                lo, hi = (a.lo + b.lo, a.hi + b.hi) if fits else (0, full)
            elif op == "-":
                kb = (a.known_bits - b.known_bits) & low
                fits = a.lo >= b.hi
                lo, hi = (a.lo - b.hi, a.hi - b.lo) if fits else (0, full)
            else:
                kb = (a.known_bits * b.known_bits) & low
                fits = a.hi * b.hi <= full
                lo, hi = (a.lo * b.lo, a.hi * b.hi) if fits else (0, full)
            return _make(wide, low, kb, lo, hi)
        if op == "/":
            if rf.lo >= 1:
                return _make(wide, 0, 0, lf.lo // rf.hi, lf.hi // rf.lo)
            return vf_top(wide)  # division by zero yields the mask
        if op == "%":
            if rf.lo >= 1:
                return _make(wide, 0, 0, 0, min(lf.hi, rf.hi - 1))
            return vf_top(wide)  # mod zero yields the dividend
        if op in ("<<", "<<<"):
            full = mask_of(wl)
            if rf.is_const:
                shift = rf.const_value
                if shift >= wl + 1:
                    return vf_const(0, wl)
                km = ((lf.known_mask << shift) | mask_of(shift)) & full
                kb = (lf.known_bits << shift) & full
                if lf.hi << shift <= full:
                    return _make(wl, km, kb, lf.lo << shift, lf.hi << shift)
                return _make(wl, km, kb, 0, full)
            return _make(wl, mask_of(min(rf.lo, wl)), 0, 0, full)
        if op in (">>", ">>>"):
            if rf.is_const:
                shift = rf.const_value
                keep = max(0, wl - shift)
                km = (lf.known_mask >> shift) | (
                    mask_of(wl) & ~mask_of(keep)
                )
                return _make(wl, km, lf.known_bits >> shift,
                             lf.lo >> shift, lf.hi >> shift)
            return _make(wl, 0, 0, 0, lf.hi)
        if op in ("<", "<=", ">", ">="):
            if op in (">", ">="):
                lf, rf = rf, lf
                op = "<" if op == ">" else "<="
            if lf.hi < rf.lo or (op == "<=" and lf.hi <= rf.lo):
                return vf_const(1, 1)
            if lf.lo > rf.hi or (op == "<" and lf.lo >= rf.hi):
                return vf_const(0, 1)
            return vf_top(1)
        if op in ("==", "!=", "===", "!=="):
            a, b = vf_to_width(lf, wide), vf_to_width(rf, wide)
            both = a.known_mask & b.known_mask
            if (a.hi < b.lo or b.hi < a.lo
                    or (a.known_bits ^ b.known_bits) & both):
                equal = False
            elif a.is_const and b.is_const:
                equal = True  # unequal consts hit the disjoint test above
            else:
                return vf_top(1)
            want = op in ("==", "===")
            return vf_const(int(equal == want), 1)
        if op == "&&":
            lt, rt = lf.truth(), rf.truth()
            if lt is False or rt is False:
                return vf_const(0, 1)
            if lt and rt:
                return vf_const(1, 1)
            return vf_top(1)
        if op == "||":
            lt, rt = lf.truth(), rf.truth()
            if lt or rt:
                return vf_const(1, 1)
            if lt is False and rt is False:
                return vf_const(0, 1)
            return vf_top(1)
        if op in ("&", "|", "^"):
            a, b = vf_to_width(lf, wide), vf_to_width(rf, wide)
            zero_a = a.known_mask & ~a.known_bits
            zero_b = b.known_mask & ~b.known_bits
            span = mask_of(max(a.hi.bit_length(), b.hi.bit_length()))
            if op == "&":
                ones = a.known_bits & b.known_bits
                return _make(wide, zero_a | zero_b | ones, ones,
                             0, min(a.hi, b.hi))
            if op == "|":
                ones = a.known_bits | b.known_bits
                return _make(wide, (zero_a & zero_b) | ones, ones,
                             max(a.lo, b.lo), span)
            km = a.known_mask & b.known_mask
            return _make(wide, km, (a.known_bits ^ b.known_bits) & km,
                         0, span)
        return self._top(expr)

    def _eval_ternary(self, expr) -> Optional[ValueFact]:
        width = self.width_of(expr)
        cond = self.eval(expr.cond)
        truth = cond.truth() if cond is not None else None
        if (self.rec is not None and truth is not None
                and not isinstance(expr.cond, ast.Num)):
            self.rec.append(("cond", expr.line - self.base, "ternary", truth,
                             _reads_of(expr.cond), cond))
        if truth is not None:
            arm = expr.if_true if truth else expr.if_false
            fact = self.eval(arm)
            if fact is None or width is None:
                return self._top(expr)
            return vf_to_width(fact, width)
        tf, ff = self.eval(expr.if_true), self.eval(expr.if_false)
        if width is None:
            return None
        if tf is None or ff is None:
            return vf_top(width)
        return vf_join(vf_to_width(tf, width), vf_to_width(ff, width))

    def _eval_concat(self, expr) -> Optional[ValueFact]:
        width = self.width_of(expr)
        if width is None:
            return None
        km = kb = lo = hi = 0
        offset = width
        for part in expr.parts:
            pw = self.width_of(part)
            pf = self.eval(part)
            if pw is None or pf is None:
                return vf_top(width)
            pf = vf_to_width(pf, pw)
            offset -= pw
            km |= pf.known_mask << offset
            kb |= pf.known_bits << offset
            lo |= pf.lo << offset
            hi |= pf.hi << offset
        return _make(width, km, kb, lo, hi)

    def _eval_repl(self, expr) -> Optional[ValueFact]:
        width = self.width_of(expr)
        if width is None:
            return None
        vw = self.width_of(expr.value)
        vf = self.eval(expr.value)
        if vw is None or vf is None:
            return vf_top(width)
        vf = vf_to_width(vf, vw)
        km = kb = lo = hi = 0
        for i in range(expr.count.value):
            shift = i * vw
            km |= vf.known_mask << shift
            kb |= vf.known_bits << shift
            lo |= vf.lo << shift
            hi |= vf.hi << shift
        return _make(width, km, kb, lo, hi)

    def _eval_index(self, expr) -> Optional[ValueFact]:
        index_fact = self.eval(expr.index)
        if expr.base in self.ir.memories:
            # Memory read: mr carries its own bound check and is never
            # elided, but a provably-oob address is still an analyzer
            # finding, so the site is recorded.  Contents untracked.
            spec = self.ir.memories[expr.base]
            if self.rec is not None and not isinstance(expr.index, ast.Num):
                self.rec.append(("ob", expr.line - self.base, expr.base,
                                 index_fact, spec.depth,
                                 _reads_of(expr.index)))
            return vf_top(spec.width)
        sig = self.ir.signals.get(expr.base)
        if sig is None:
            return vf_top(1)
        if self.rec is not None and not isinstance(expr.index, ast.Num):
            self.rec.append(("ob", expr.line - self.base, expr.base,
                             index_fact, sig.width, _reads_of(expr.index)))
        if index_fact is not None and index_fact.is_const:
            bit = index_fact.const_value
            if bit >= sig.width:
                return vf_const(0, 1)  # masked read: selected bit is zero
            base_fact = self.env.get(expr.base)
            if base_fact is not None and (base_fact.known_mask >> bit) & 1:
                return vf_const((base_fact.known_bits >> bit) & 1, 1)
        return vf_top(1)

    def _eval_slice(self, expr) -> Optional[ValueFact]:
        width = self.width_of(expr)
        if width is None:
            return None
        sig = self.ir.signals.get(expr.base)
        base_fact = self.env.get(expr.base)
        if sig is None or base_fact is None:
            return vf_top(width)
        lsb, msb = expr.lsb.value, expr.msb.value
        # The lower bound survives the slice when nothing above the
        # msb can be set: either the slice reaches the top, or the
        # dropped high bits are all known zero.
        above = mask_of(sig.width) & ~mask_of(msb + 1)
        covers_value = msb >= sig.width - 1 or (
            base_fact.known_mask & above == above
            and base_fact.known_bits & above == 0
        )
        lo = base_fact.lo >> lsb if covers_value else 0
        return _make(width, base_fact.known_mask >> lsb,
                     base_fact.known_bits >> lsb, lo, base_fact.hi >> lsb)

    def _eval_indexed_part(self, expr) -> Optional[ValueFact]:
        width = self.width_of(expr)
        if width is None:
            return None
        sig = self.ir.signals.get(expr.base)
        start_fact = self.eval(expr.start)
        if sig is None:
            return vf_top(width)
        bound = sig.width - width + 1 if expr.ascending else sig.width
        if self.rec is not None and not isinstance(expr.start, ast.Num):
            self.rec.append(("ob", expr.line - self.base, expr.base,
                             start_fact, bound, _reads_of(expr.start)))
        base_fact = self.env.get(expr.base)
        if start_fact is not None and start_fact.is_const \
                and base_fact is not None:
            start = start_fact.const_value
            shift = start if expr.ascending else start - (width - 1)
            if shift < 0:
                return vf_top(width)  # faults at runtime; keep top
            lo = base_fact.lo >> shift if shift + width >= sig.width else 0
            return _make(width, base_fact.known_mask >> shift,
                         base_fact.known_bits >> shift, lo,
                         base_fact.hi >> shift)
        return vf_top(width)


# ----------------------------------------------------------------------------
# Per-site facts (recorded on the final converged walk)
# ----------------------------------------------------------------------------


def _reads_of(expr) -> Tuple[str, ...]:
    return tuple(sorted(expr_reads(expr)))


@dataclass
class ObSite:
    """An index-bound (``ob``) check site.  ``fact is None`` means the
    site's index could not be pinned (never flagged)."""

    fact: Optional[ValueFact]
    bound: int
    reads: Tuple[str, ...]

    @property
    def provably_oob(self) -> bool:
        return self.fact is not None and self.fact.lo >= self.bound


@dataclass
class TrSite:
    """A truncation (``tr``) check site on a too-wide assignment."""

    fact: Optional[ValueFact]
    declared: int
    value_width: int
    reads: Tuple[str, ...]

    @property
    def provably_lossy(self) -> bool:
        if self.fact is None:
            return False
        kept = mask_of(self.declared)
        return self.fact.lo > kept or bool(self.fact.known_bits & ~kept)


@dataclass
class CondSite:
    """A branch condition; ``truth`` is set only when every evaluation
    of the site decided the same way."""

    truth: Optional[bool]
    reads: Tuple[str, ...]
    detail: str


@dataclass
class CaseSite:
    """A case arm; ``dead`` survives only if every evaluation proved
    the arm unmatchable."""

    dead: bool
    reads: Tuple[str, ...]
    detail: str


class _SiteRecorder:
    def __init__(self):
        self.ob_sites: Dict[Tuple[str, int], ObSite] = {}
        self.tr_sites: Dict[Tuple[str, int], TrSite] = {}
        self.cond_sites: Dict[Tuple[int, str], CondSite] = {}
        self.case_sites: Dict[Tuple[int, int], CaseSite] = {}

    def ob(self, line, name, fact, bound, reads):
        key = (name, line)
        prev = self.ob_sites.get(key)
        if prev is None:
            self.ob_sites[key] = ObSite(fact, bound, reads)
        elif prev.bound != bound:
            # Two sites collide on the runtime's dedup key with
            # different bounds: give up on both.
            self.ob_sites[key] = ObSite(None, min(prev.bound, bound),
                                        prev.reads)
        else:
            self.ob_sites[key] = ObSite(vf_join(prev.fact, fact), bound,
                                        prev.reads)

    def tr(self, line, name, fact, declared, value_width, reads):
        key = (name, line)
        prev = self.tr_sites.get(key)
        if prev is None:
            self.tr_sites[key] = TrSite(fact, declared, value_width, reads)
        else:
            self.tr_sites[key] = TrSite(
                vf_join(prev.fact, fact), declared,
                max(prev.value_width, value_width), prev.reads,
            )

    def cond(self, line, kind, truth, reads, fact):
        key = (line, kind)
        prev = self.cond_sites.get(key)
        if prev is None:
            detail = fact.describe() if fact is not None else ""
            self.cond_sites[key] = CondSite(truth, reads, detail)
        elif prev.truth != truth:
            self.cond_sites[key] = CondSite(None, prev.reads, prev.detail)

    def case_arm(self, line, arm_index, dead, reads, detail):
        key = (line, arm_index)
        prev = self.case_sites.get(key)
        if prev is None:
            self.case_sites[key] = CaseSite(dead, reads, detail)
        elif prev.dead and not dead:
            self.case_sites[key] = CaseSite(False, prev.reads, prev.detail)

    def replay(self, log, base: int = 0) -> None:
        """Make the calls ``log`` holds, its lines counted from ``base``."""
        for method, line, *args in log:
            getattr(self, method)(line + base, *args)


# ----------------------------------------------------------------------------
# Per-module results
# ----------------------------------------------------------------------------


@dataclass
class ModuleValueFacts:
    """Everything the analyzer consumes for one module specialization."""

    key: str
    env: Dict[str, ValueFact]          # from reset
    input_facts: Dict[str, ValueFact]
    always_written: frozenset
    ob_sites: Dict[Tuple[str, int], ObSite] = field(default_factory=dict)
    tr_sites: Dict[Tuple[str, int], TrSite] = field(default_factory=dict)
    cond_sites: Dict[Tuple[int, str], CondSite] = field(default_factory=dict)
    case_sites: Dict[Tuple[int, int], CaseSite] = field(default_factory=dict)
    origins: Dict[str, Tuple[int, str]] = field(default_factory=dict)
    deps: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    # The cache key of the run that computed these facts: equal run keys,
    # equal facts.  The analyzer keys on it.
    run_key: tuple = ()
    # All a parent reads of this module: ``(port, fact)`` per output,
    # the parent's cache key component.
    outputs: Tuple[tuple, ...] = ()
    # What the module drives into each child, per instance: the facts of
    # its input connections (``None``: codegen cannot size the
    # connection).
    child_inputs: Tuple[dict, ...] = ()

    def explain(self, name: str,
                depth: int = EXPLAIN_DEPTH) -> List[Tuple[str, int]]:
        """Derivation chain for a signal's fact (``--explain``): one
        ``(note, line)`` per fact, the note holding ``QUOTE`` where it
        quotes the line its fact comes from (0: no line)."""
        lines: List[Tuple[str, int]] = []
        seen: Set[str] = set()

        def walk(sig: str, level: int) -> None:
            if level >= depth or sig in seen:
                return
            seen.add(sig)
            fact = self.env.get(sig)
            if fact is None:
                return
            origin_line, kind = self.origins.get(sig, (0, "unconstrained"))
            where = f" (line {QUOTE}, {kind})" if origin_line \
                else f" ({kind})"
            lines.append(("  " * level + f"{sig} {fact.describe()}{where}",
                          origin_line))
            if fact.is_top:
                return
            for dep in self.deps.get(sig, ()):
                walk(dep, level + 1)

        walk(name, 0)
        return lines


# ----------------------------------------------------------------------------
# Per-module abstract interpretation
# ----------------------------------------------------------------------------


class _ModuleAnalysis:
    def __init__(self, ir: ModuleIR, run_key: tuple, input_facts,
                 child_envs, memos, input_origins=None):
        self.ir = ir
        self.run_key = run_key
        self.input_facts = input_facts
        self.child_envs = child_envs            # [inst idx] -> {port: fact}
        self.input_origins = input_origins or {}
        # The item memo (module docstring): this run's dict, then the
        # older runs' of the same specialisation, most recent first.
        self.memo, *self.older = memos
        self.journal: list = []  # undo log: (dict, name, previous fact)
        self.origins: Dict[str, Tuple[int, str]] = {}
        self.deps: Dict[str, Tuple[str, ...]] = {}
        # Per sequential block: the names it reads or writes.
        self.seq_names = [tuple(sorted({*seq.reads, *seq.writes}))
                          for seq in ir.seq_blocks]

    def run(self, key: str) -> ModuleValueFacts:
        ir = self.ir
        if ir.needs_fixpoint:
            env = {name: vf_top(sig.width)
                   for name, sig in ir.signals.items()}
            return ModuleValueFacts(
                key=key, env=env,
                input_facts=dict(self.input_facts),
                always_written=frozenset(),
                run_key=self.run_key,
                **self._boundary(env),
            )
        regs = {name: vf_const(0, sig.width)
                for name, sig in ir.signals.items()
                if sig.state_index is not None}
        rounds = 0
        while True:
            env = self._comb_walk(regs)
            writes, assigned = self._seq_walk(env)
            moving: Set[str] = set()
            new_regs = {}
            for name, cur in regs.items():
                written = writes.get(name)
                if written is None:
                    nxt = cur
                else:
                    nxt = written if name in assigned \
                        else vf_join(written, cur)
                new = vf_join(cur, nxt)
                if rounds >= WIDEN_ROUNDS:
                    new = vf_widen(cur, new)
                if new != cur:
                    moving.add(name)
                new_regs[name] = new
            regs = new_regs
            rounds += 1
            if not moving or rounds >= MAX_ROUNDS:
                break
        for name in moving:  # cap hit: degrade the stragglers, stay sound
            regs[name] = vf_top(regs[name].width)

        # Final walk with site recording + provenance: all memo hits,
        # unless the cap hit and degraded a register.
        rec = _SiteRecorder()
        env = self._comb_walk(regs, rec)
        _, assigned = self._seq_walk(env, rec)
        return ModuleValueFacts(
            key=key, env=env,
            input_facts=dict(self.input_facts),
            always_written=frozenset(assigned),
            ob_sites=rec.ob_sites,
            tr_sites=rec.tr_sites,
            cond_sites=rec.cond_sites,
            case_sites=rec.case_sites,
            origins=self.origins,
            deps=self.deps,
            run_key=self.run_key,
            **self._boundary(env),
        )

    def _boundary(self, env) -> dict:
        """The facts that cross the module's boundary: what a parent
        reads at the outputs, what each child is driven with."""
        ir = self.ir
        ev = FactEval(ir, env)
        return {
            "outputs": tuple((port, env.get(port)) for port in ir.outputs),
            "child_inputs": tuple(
                {port: ev.eval(conn)
                 for port, conn in inst.input_conns.items()}
                for inst in ir.instances),
        }

    # -- the item memo -------------------------------------------------------

    def _item(self, item, names, env, rec):
        """One item through the memo (module docstring); ``names`` is
        every name it can read.  The caller stores a comb item's facts."""
        key = (item.shape, *map(env.get, names))
        hit = self.memo.get(key)
        if hit is None:
            for older in self.older:
                hit = older.get(key)
                if hit is not None:
                    self.memo[key] = hit
                    break
        obs.incr("dataflow.items_evaluated" if hit is None
                 else "dataflow.items_reused")
        if hit is None:
            log, writes, assigned = [], {}, set()
            ev = FactEval(self.ir, env, log, item.line)
            del self.journal[:]
            if isinstance(item, CombAssignIR):
                self._exec_assign(ev, env, writes, item.target, item.value,
                                  item.line)
            elif isinstance(item, SeqBlockIR):
                self._exec_stmts(ev, item.body, env, writes, assigned)
            else:  # a comb block stores in env: its later statements read it
                for name in item.defines:
                    sig = self.ir.signals.get(name)
                    if sig is not None:
                        env[name] = writes[name] = vf_const(0, sig.width)
                self._exec_stmts(ev, item.body, env, None, assigned)
                writes = {name: env[name] for name in writes}
            hit = self.memo[key] = (writes, assigned, log)
        if rec is not None:
            rec.replay(hit[2], item.line)
        return hit

    # -- the comb schedule walk ----------------------------------------------

    def _comb_walk(self, regs, rec=None):
        ir = self.ir
        env: Dict[str, ValueFact] = {}
        for name in ir.inputs:
            sig = ir.signals[name]
            given = self.input_facts.get(name)
            env[name] = vf_to_width(given, sig.width) if given \
                else vf_top(sig.width)
            if rec is not None:
                self.origins[name] = (
                    sig.line, self.input_origins.get(name, "module input")
                )
        env.update(regs)
        for inst_index, port, target in ir.early_bind:
            self._bind_child_output(env, inst_index, port, target, rec)
        for kind, index in ir.schedule:
            if kind == "assign":
                assign = ir.comb_assigns[index]
                target = assign.target
                names = assign.reads  # the value's reads only
                if target.index is not None or target.msb is not None:
                    names += (_reads_of(target.index) + _reads_of(target.msb)
                              + _reads_of(target.lsb))
                env.update(self._item(assign, names, env, rec)[0])
                if rec is not None and target.msb is None \
                        and target.index is None:
                    self.origins[target.name] = (assign.line, "assign")
                    self.deps[target.name] = assign.reads
            elif kind == "block":
                comb = ir.comb_blocks[index]
                # ``comb.reads`` leaves out the names the block writes:
                # it zeroes them before its body runs.
                env.update(self._item(comb, comb.reads, env, rec)[0])
                if rec is not None:
                    for name in comb.defines:
                        self.origins[name] = (comb.line, "always block")
                        self.deps[name] = comb.reads
            else:  # inst: two dict lookups per port, not worth a key
                inst = ir.instances[index]
                if rec is not None:
                    log: list = []
                    ev = FactEval(ir, env, log)
                    for conn in inst.input_conns.values():
                        ev.eval(conn)  # record sites inside connections
                    rec.replay(log)
                for port, target in inst.output_conns.items():
                    self._bind_child_output(env, index, port, target, rec)
        return env

    def _bind_child_output(self, env, inst_index, port, target, rec):
        ir = self.ir
        sig = ir.signals.get(target)
        if sig is None:
            return
        fact = self.child_envs[inst_index].get(port)
        env[target] = vf_to_width(fact, sig.width) if fact is not None \
            else vf_top(sig.width)
        if rec is not None:
            inst = ir.instances[inst_index]
            self.origins[target] = (
                inst.line, f"output '{port}' of {inst.child_key}"
            )
            self.deps[target] = inst.reads

    # -- sequential transition -----------------------------------------------

    def _seq_walk(self, env, rec=None):
        merged: Dict[str, ValueFact] = {}
        assigned_all: Set[str] = set()
        for seq, names in zip(self.ir.seq_blocks, self.seq_names):
            writes, assigned, _ = self._item(seq, names, env, rec)
            for name, fact in writes.items():
                if rec is not None:
                    self.origins[name] = (seq.line, "register")
                    self.deps[name] = seq.reads
                prev = merged.get(name)
                merged[name] = fact if prev is None else vf_join(prev, fact)
            assigned_all |= assigned
        return merged, assigned_all

    # -- statements ----------------------------------------------------------

    def _put(self, dest, name, fact) -> None:
        """The statement walk's one store, journalled for rollback."""
        self.journal.append((dest, name, dest.get(name)))
        dest[name] = fact

    def _exec_stmts(self, ev, stmts, env, writes, assigned):
        for stmt in stmts:
            if isinstance(stmt, (ast.Blocking, ast.NonBlocking)):
                if self._exec_assign(ev, env, writes, stmt.target,
                                     stmt.value, stmt.line):
                    assigned.add(stmt.target.name)
            elif isinstance(stmt, ast.If):
                self._exec_if(ev, stmt, env, writes, assigned)
            elif isinstance(stmt, ast.Case):
                self._exec_case(ev, stmt, env, writes, assigned)

    def _exec_assign(self, ev, env, writes, target, value, line) -> bool:
        ir = self.ir
        if target.name in ir.memories:
            # Memory write: the address carries an ob site keyed on the
            # memory name; contents stay untracked.
            if target.index is not None:
                addr_fact = ev.eval(target.index)
                if not isinstance(target.index, ast.Num):
                    ev.rec.append(("ob", line - ev.base, target.name,
                                   addr_fact, ir.memories[target.name].depth,
                                   _reads_of(target.index)))
            ev.eval(value)
            return False
        sig = ir.signals.get(target.name)
        if sig is None:
            ev.eval(value)
            return False
        dest = writes if writes is not None else env
        if target.index is not None or target.msb is not None:
            # Partial write: bit index carries an ob site; the merged
            # register/wire value degrades to top (RMW untracked).
            if target.index is not None:
                index_fact = ev.eval(target.index)
                if not isinstance(target.index, ast.Num):
                    ev.rec.append(("ob", line - ev.base, target.name,
                                   index_fact, sig.width,
                                   _reads_of(target.index)))
            ev.eval(value)
            self._put(dest, target.name, vf_top(sig.width))
            return True  # the RMW result still lands every cycle
        value_width = ev.width_of(value)
        fact = ev.eval(value)
        if value_width is not None and value_width > sig.width:
            ev.rec.append(("tr", line - ev.base, target.name, fact,
                           sig.width, value_width, _reads_of(value)))
        self._put(dest, target.name, vf_to_width(fact, sig.width)
                  if fact is not None else vf_top(sig.width))
        return True

    def _exec_if(self, ev, stmt, env, writes, assigned):
        cond_fact = ev.eval(stmt.cond)
        truth = cond_fact.truth() if cond_fact is not None else None
        if not isinstance(stmt.cond, ast.Num):
            ev.rec.append(("cond", stmt.line - ev.base, "if", truth,
                           _reads_of(stmt.cond), cond_fact))
        if truth is True:
            self._exec_stmts(ev, stmt.then_body, env, writes, assigned)
            return
        if truth is False:
            self._exec_stmts(ev, stmt.else_body, env, writes, assigned)
            return
        self._exec_branches(ev, [stmt.then_body, stmt.else_body], env,
                            writes, assigned, include_identity=False)

    def _exec_branches(self, ev, bodies, env, writes, assigned,
                       include_identity):
        """Run each body in place, note what it stored and roll it back,
        then merge pointwise over the names some arm stored;
        ``assigned`` gains only names every path assigns."""
        journal = self.journal
        results, survivors = [], None
        for body in bodies:
            mark = len(journal)
            arm_assigned: Set[str] = set()
            self._exec_stmts(ev, body, env, writes, arm_assigned)
            stored: Dict[str, ValueFact] = {}
            while len(journal) > mark:  # newest first
                where, name, previous = journal.pop()
                stored.setdefault(name, where[name])  # the arm's last store
                if previous is None:
                    del where[name]
                else:
                    where[name] = previous
            results.append(stored)
            survivors = arm_assigned if survivors is None \
                else survivors & arm_assigned
        if include_identity:
            results.append({})
            survivors = set()
        self._merge_into(writes if writes is not None else env, results, env)
        assigned |= survivors

    def _merge_into(self, dest, results, env):
        """Join each name some arm stored over all arms; an arm that
        left it alone contributes the pre-branch value: the pending
        slot, else the current value (which preloads the slot)."""
        for name in {name for stored in results for name in stored}:
            prior = dest.get(name)
            if prior is None:
                prior = env.get(name)
            merged = None
            for stored in results:
                fact = stored.get(name, prior)
                if fact is None:  # a path with no value at all: degrade
                    sig = self.ir.signals.get(name)
                    merged = vf_top(sig.width if sig is not None else 1)
                    break
                merged = fact if merged is None else vf_join(merged, fact)
            self._put(dest, name, merged)

    def _exec_case(self, ev, stmt, env, writes, assigned):
        subject_fact = ev.eval(stmt.subject)
        syntactic_const = isinstance(stmt.subject, ast.Num)
        feasible = []
        reachable = True
        default_body = None
        default_index = None
        for index, (labels, body) in enumerate(stmt.arms):
            if not labels:
                default_body, default_index = body, index
                continue
            if not reachable:
                self._record_arm(ev, stmt, index, True, subject_fact,
                                 syntactic_const, "earlier arm always hits")
                continue
            status = self._match_status(ev, subject_fact, labels)
            if status == "never":
                self._record_arm(ev, stmt, index, True, subject_fact,
                                 syntactic_const,
                                 "labels excluded by subject range")
                continue
            self._record_arm(ev, stmt, index, False, subject_fact,
                             syntactic_const, "")
            feasible.append(body)
            if status == "always":
                reachable = False
        if default_body is not None:
            if reachable:
                feasible.append(default_body)
                self._record_arm(ev, stmt, default_index, False,
                                 subject_fact, syntactic_const, "")
            else:
                self._record_arm(ev, stmt, default_index, True, subject_fact,
                                 syntactic_const, "earlier arm always hits")
        if len(feasible) == 1 and not (reachable and default_body is None):
            self._exec_stmts(ev, feasible[0], env, writes, assigned)
            return
        if not feasible:
            return
        self._exec_branches(
            ev, feasible, env, writes, assigned,
            include_identity=(reachable and default_body is None),
        )

    def _record_arm(self, ev, stmt, index, dead, subject_fact,
                    syntactic_const, why):
        if syntactic_const:
            return
        detail = ""
        if dead:
            described = subject_fact.describe() if subject_fact else "?"
            detail = f"subject {described}; {why}"
        ev.rec.append(("case_arm", stmt.line - ev.base, index, dead,
                       _reads_of(stmt.subject), detail))

    def _match_status(self, ev, subject_fact, labels) -> str:
        """'always' / 'never' / 'maybe' for one arm's label list."""
        if subject_fact is None:
            return "maybe"
        any_maybe = False
        for label in labels:
            label_fact = ev.eval(label)
            if label_fact is None:
                any_maybe = True
                continue
            wide = max(subject_fact.width, label_fact.width)
            a = vf_to_width(subject_fact, wide)
            b = vf_to_width(label_fact, wide)
            both = a.known_mask & b.known_mask
            if (a.hi < b.lo or b.hi < a.lo
                    or (a.known_bits ^ b.known_bits) & both):
                continue  # this label can never match
            if a.is_const and b.is_const:
                return "always"
            any_maybe = True
        return "maybe" if any_maybe else "never"


# ----------------------------------------------------------------------------
# Cross-module propagation
# ----------------------------------------------------------------------------


def _topo_module_keys(netlist: Netlist) -> List[str]:
    """Module keys, children before parents."""
    order: List[str] = []
    done: Set[str] = set()

    def visit(key: str) -> None:
        if key in done:
            return
        done.add(key)
        for inst in netlist.modules[key].instances:
            visit(inst.child_key)
        order.append(key)

    for key in netlist.modules:
        visit(key)
    return order


def _join_port(slot: Dict[str, Optional[ValueFact]], port: str,
               fact: Optional[ValueFact]) -> None:
    if port in slot:
        prev = slot[port]
        slot[port] = None if prev is None or fact is None \
            else vf_join(prev, fact)
    else:
        slot[port] = fact


def _inputs_all_top(ir: ModuleIR, input_facts: Dict[str, ValueFact]) -> bool:
    """True when no port fact constrains anything once widened to the
    port's width (a narrow connection makes high bits known-zero, so
    width conversion must happen before judging)."""
    for port, fact in input_facts.items():
        sig = ir.signals.get(port)
        if sig is None:
            continue
        f = vf_to_width(fact, sig.width)
        if f.known_mask != 0 or f.lo != 0 or f.hi != f.mask:
            return False
    return True


def compute_netlist_facts(netlist: Netlist, fps=None, cache=None,
                          report=None) -> Dict[str, ModuleValueFacts]:
    """Two-phase cross-module analysis.

    Phase 1 walks bottom-up with unconstrained inputs, producing
    context-free summaries (parents read child output facts from
    these).  Phase 2 walks top-down, joining each child's input facts
    over every instantiation site — a constant-driven input
    specializes the child.  Results go through ``cache`` (a
    :class:`~repro.codegen.build.DerivedCache`; private to this call
    when omitted) per ``(key, fingerprint, the facts of every child's
    outputs, input facts)`` so a hot reload recomputes only the dirty
    module (and parents/children only when the facts crossing the
    boundary actually changed); ``report`` is told which phase-2
    results were reused.  The item memo of every run is the same
    cache's (module docstring).
    """
    fps = fps or {}
    cache = cache if cache is not None else DerivedCache()
    topo = _topo_module_keys(netlist)

    def analysis(ir: ModuleIR, run_key: tuple, input_facts,
                 **origins) -> _ModuleAnalysis:
        """A run of ``ir`` over the summaries of its children, with the
        item memo of ``run_key`` and the older runs of ``ir.key``."""
        cache.lookup(ITEMS, ir.key, run_key, dict)
        return _ModuleAnalysis(
            ir, run_key, input_facts,
            [summaries[inst.child_key].env for inst in ir.instances],
            cache.recent(ITEMS, ir.key), **origins)

    summaries: Dict[str, ModuleValueFacts] = {}
    for key in topo:
        ir = netlist.modules[key]
        child_outputs = tuple(
            summaries[inst.child_key].outputs for inst in ir.instances
        )
        summary_key = (key, fps.get(ir.name, ""), child_outputs)
        summaries[key] = cache.lookup(
            "passes.dataflow.summary", key, summary_key,
            lambda: analysis(ir, summary_key, {}).run(key),
        )

    results: Dict[str, ModuleValueFacts] = {}
    joined: Dict[str, Dict[str, Optional[ValueFact]]] = {}
    site_counts: Dict[str, int] = {}
    for key in reversed(topo):
        ir = netlist.modules[key]
        input_facts: Dict[str, ValueFact] = {} if key == netlist.top else {
            port: fact
            for port, fact in joined.get(key, {}).items()
            if fact is not None
        }
        run_key = (
            key, fps.get(ir.name, ""),
            tuple(summaries[inst.child_key].outputs for inst in ir.instances),
            tuple(sorted(input_facts.items())),
        )

        def specialize() -> ModuleValueFacts:
            if _inputs_all_top(ir, input_facts):
                # Every instantiation site drives this module with
                # unconstrained values, so the context-free phase-1 walk
                # already IS the specialized result — skip the fixpoint.
                return summaries[key]
            sites = site_counts.get(key, 0)
            origin = (
                f"joined over {sites} instantiation site(s)"
                if sites else "module input"
            )
            return analysis(
                ir, run_key, input_facts,
                input_origins={port: origin for port in input_facts},
            ).run(key)

        cached = cache.lookup("passes.dataflow", key, run_key, specialize,
                              report=report)
        results[key] = cached

        for inst, conns in zip(ir.instances, cached.child_inputs):
            site_counts[inst.child_key] = site_counts.get(
                inst.child_key, 0
            ) + 1
            slot = joined.setdefault(inst.child_key, {})
            for port, fact in conns.items():
                _join_port(slot, port, fact)
    return results


# ----------------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------------


class ValueFactsPass(Pass):
    """Writes ``PassData.value_facts``: key -> :class:`ModuleValueFacts`.

    No later pass reads the dict: the pass keeps its place in the
    pipeline, and runs only in a sanitized build (elsewhere the dict is
    empty and a clean compile pays no analysis).  Per-module results
    live in the session's derived cache, which the analyzer reads, so
    hot reloads recompute only dirty modules and the facts of an edit
    are computed once; run keys over a module's input facts keep a
    parent's edit from invalidating an unaffected child and vice versa.
    """

    name = "dataflow"

    def run(self, data: PassData) -> None:
        data.value_facts = compute_netlist_facts(
            data.netlist, fps=data.fps, cache=data.cache, report=data.report,
        ) if data.build.sanitize else {}
