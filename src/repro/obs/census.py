"""A census of generated code: what each generated function executed
over a run of the simulation.

:func:`census` runs ``run(cycles)`` under ``sys.settrace`` and traces
opcodes in generated frames only (``<lhdl:...>`` code,
:attr:`repro.codegen.build.ModuleKey.filename`); every other frame runs
untraced.  Per generated function — the module key's spec read off the
code's filename, and the function's name — it counts calls, line
events, executed instructions (an ``EXTENDED_ARG`` prefix and the
instruction it extends are one), conditional jumps and the distinct
jump sites that ran, subscript loads and stores (``BINARY_SUBSCR`` /
``STORE_SUBSCR``: a generated module reads and writes its state list by
subscript), and the instruction bytes of the code it entered: two a
bytecode instruction, without the inline cache entries that Python 3.11
and later interleave in ``co_code`` for the specializer (data, not
code, and sized differently from one Python release to the next).

This is the one reading of what generated code does per cycle: the
work budgets (``tests/test_work_budget.py``) and the host model behind
Table VII (:mod:`repro.hostmodel`) both read it.  Tracing costs
milliseconds per cycle of a 4x4 mesh, so nothing on the live loop
imports this module.
"""

from __future__ import annotations

import dis
import sys
from collections import Counter
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Tuple

_GENERATED = "<lhdl:"

_EXTENDED_ARG = dis.opmap["EXTENDED_ARG"]
_LOAD = dis.opmap["BINARY_SUBSCR"]
_STORE = dis.opmap["STORE_SUBSCR"]
_JUMPS = frozenset(
    code for name, code in dis.opmap.items() if "JUMP" in name and "_IF_" in name
)


def _spec_of(filename: str) -> str:
    """The module key spec a generated code filename names
    (``<lhdl:spec@digest>`` -> ``spec``)."""
    return filename[len(_GENERATED):-1].rpartition("@")[0]


@dataclass
class FunctionCensus:
    """What one generated function (or, summed, one module) executed."""

    calls: int = 0
    lines: int = 0
    opcodes: int = 0
    jumps: int = 0  # conditional jumps executed
    jump_sites: int = 0  # distinct conditional jumps that ran
    loads: int = 0  # BINARY_SUBSCR executed
    stores: int = 0  # STORE_SUBSCR executed
    code_bytes: int = 0  # instruction bytes of the code entered

    def add(self, other: "FunctionCensus") -> None:
        for field in fields(self):
            name = field.name
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class Census:
    """A census of ``cycles`` cycles, by (module key spec, function name)."""

    cycles: int
    functions: Dict[Tuple[str, str], FunctionCensus]

    def by_spec(self) -> Dict[str, FunctionCensus]:
        """The functions' counts summed per module key spec."""
        total: Dict[str, FunctionCensus] = {}
        for (spec, _), counts in self.functions.items():
            total.setdefault(spec, FunctionCensus()).add(counts)
        return total


def _instruction_bytes(code) -> int:
    """The bytes of ``code``'s instructions, inline caches left out."""
    return 2 * sum(1 for _ in dis.get_instructions(code))


def census(run: Callable[[int], object], cycles: int) -> Census:
    """Run ``run(cycles)`` and count what generated code executed in it.

    Any trace function installed before is suspended for the run and
    restored after it.
    """
    # By ``id(code)``: equal code objects of two modules (replicated
    # instances) compare and hash alike, whatever their filenames.
    codes: Dict[int, object] = {}
    calls: Counter = Counter()
    lines: Counter = Counter()
    executed: Dict[int, List[int]] = {}  # id(code) -> times, by code unit

    def enter(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(_GENERATED):
            return None
        ident = id(code)
        codes[ident] = code
        calls[ident] += 1
        ran = executed.get(ident)
        if ran is None:
            ran = executed[ident] = [0] * (len(code.co_code) // 2)

        def local(frame, event, arg):
            if event == "opcode":
                ran[frame.f_lasti >> 1] += 1
            elif event == "line":
                lines[ident] += 1
            return local

        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        run(cycles)
    finally:
        sys.settrace(previous)

    counts: Dict[int, FunctionCensus] = {
        ident: FunctionCensus(calls=n, lines=lines[ident],
                              code_bytes=_instruction_bytes(codes[ident]))
        for ident, n in calls.items()
    }
    for ident, ran in executed.items():
        ops = codes[ident].co_code
        entry = counts[ident]
        for unit, n in enumerate(ran):
            if not n:
                continue
            offset = 2 * unit
            while ops[offset] == _EXTENDED_ARG:
                offset += 2
            op = ops[offset]
            entry.opcodes += n
            if op in _JUMPS:
                entry.jumps += n
                entry.jump_sites += 1
            elif op == _LOAD:
                entry.loads += n
            elif op == _STORE:
                entry.stores += n
    functions: Dict[Tuple[str, str], FunctionCensus] = {}
    for ident, entry in counts.items():
        code = codes[ident]
        key = _spec_of(code.co_filename), code.co_name
        functions.setdefault(key, FunctionCensus()).add(entry)
    return Census(cycles=cycles, functions=functions)
