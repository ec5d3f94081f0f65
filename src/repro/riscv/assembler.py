"""A small two-pass RV64I assembler.

Supports the RV64I base set, the usual pseudo-instructions (``li``,
``la``, ``mv``, ``j``, ``jr``, ``ret``, ``nop``, ``beqz``, ``bnez``,
``call`` as ``jal ra``), labels, and a few directives (``.org``,
``.word``, ``.dword``, ``.equ``, ``.zero``).

Example::

    .equ COUNT, 10
        li   t0, COUNT
        li   t1, 0
    loop:
        addi t1, t1, 3
        addi t0, t0, -1
        bnez t0, loop
        sd   t1, 0x100(zero)
        ecall
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import encode, isa
from .isa import (
    F3_ADD_SUB, F3_AND, F3_BEQ, F3_BGE, F3_BGEU, F3_BLT, F3_BLTU, F3_BNE,
    F3_LB, F3_LBU, F3_LD, F3_LH, F3_LHU, F3_LW, F3_LWU, F3_OR, F3_SB, F3_SD,
    F3_SH, F3_SLL, F3_SLT, F3_SLTU, F3_SRL_SRA, F3_SW, F3_XOR,
    OP_AUIPC, OP_BRANCH, OP_IMM, OP_IMM32, OP_JAL, OP_JALR, OP_LOAD, OP_LUI,
    OP_OP, OP_OP32, OP_STORE, REG_NAMES,
)


class AsmError(ValueError):
    def __init__(self, message: str, line: int = 0):
        if line:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_MEM_OPERAND_RE = re.compile(r"^(-?\w+)\(([\w.$]+)\)$")

# (mnemonic) -> (funct3, funct7) for OP/OP32 R-type instructions.
_R_TYPE = {
    "add": (OP_OP, F3_ADD_SUB, 0b0000000),
    "sub": (OP_OP, F3_ADD_SUB, 0b0100000),
    "sll": (OP_OP, F3_SLL, 0b0000000),
    "slt": (OP_OP, F3_SLT, 0b0000000),
    "sltu": (OP_OP, F3_SLTU, 0b0000000),
    "xor": (OP_OP, F3_XOR, 0b0000000),
    "srl": (OP_OP, F3_SRL_SRA, 0b0000000),
    "sra": (OP_OP, F3_SRL_SRA, 0b0100000),
    "or": (OP_OP, F3_OR, 0b0000000),
    "and": (OP_OP, F3_AND, 0b0000000),
    "addw": (OP_OP32, F3_ADD_SUB, 0b0000000),
    "subw": (OP_OP32, F3_ADD_SUB, 0b0100000),
    "sllw": (OP_OP32, F3_SLL, 0b0000000),
    "srlw": (OP_OP32, F3_SRL_SRA, 0b0000000),
    "sraw": (OP_OP32, F3_SRL_SRA, 0b0100000),
}

_I_TYPE = {
    "addi": (OP_IMM, F3_ADD_SUB),
    "slti": (OP_IMM, F3_SLT),
    "sltiu": (OP_IMM, F3_SLTU),
    "xori": (OP_IMM, F3_XOR),
    "ori": (OP_IMM, F3_OR),
    "andi": (OP_IMM, F3_AND),
    "addiw": (OP_IMM32, F3_ADD_SUB),
}

_SHIFT_I = {
    "slli": (OP_IMM, F3_SLL, 0b000000, False),
    "srli": (OP_IMM, F3_SRL_SRA, 0b000000, False),
    "srai": (OP_IMM, F3_SRL_SRA, 0b010000, False),
    "slliw": (OP_IMM32, F3_SLL, 0b000000, True),
    "srliw": (OP_IMM32, F3_SRL_SRA, 0b000000, True),
    "sraiw": (OP_IMM32, F3_SRL_SRA, 0b010000, True),
}

_LOADS = {
    "lb": F3_LB, "lh": F3_LH, "lw": F3_LW, "ld": F3_LD,
    "lbu": F3_LBU, "lhu": F3_LHU, "lwu": F3_LWU,
}

_STORES = {"sb": F3_SB, "sh": F3_SH, "sw": F3_SW, "sd": F3_SD}

_BRANCHES = {
    "beq": F3_BEQ, "bne": F3_BNE, "blt": F3_BLT,
    "bge": F3_BGE, "bltu": F3_BLTU, "bgeu": F3_BGEU,
}


class _Item(NamedTuple):
    """One pass-1 item: either resolved words or a pending encoder."""

    address: int
    size: int  # bytes
    line: int
    words: Optional[List[int]] = None
    encoder: Optional[Callable[["Assembler"], List[int]]] = None


class Program(NamedTuple):
    """Assembled machine code."""

    words: List[int]  # 32-bit words, index = address/4
    labels: Dict[str, int]
    size_bytes: int

    def as_mem64(self, depth: int) -> List[int]:
        """Pack into 64-bit little-endian words for the RTL memory."""
        mem = [0] * depth
        for i, word in enumerate(self.words):
            index = i // 2
            if index >= depth:
                raise AsmError(
                    f"program ({len(self.words) * 4} bytes) exceeds memory"
                )
            if i % 2 == 0:
                mem[index] |= word
            else:
                mem[index] |= word << 32
        return mem


class Assembler:
    def __init__(self) -> None:
        self.labels: Dict[str, int] = {}
        self.constants: Dict[str, int] = {}
        self._items: List[_Item] = []
        self._pc = 0

    # -- operand parsing ------------------------------------------------------

    def _reg(self, token: str, line: int) -> int:
        reg = REG_NAMES.get(token.strip())
        if reg is None:
            raise AsmError(f"unknown register {token.strip()!r}", line)
        return reg

    def _int(self, token: str, line: int) -> int:
        token = token.strip()
        if token in self.constants:
            return self.constants[token]
        try:
            return int(token, 0)
        except ValueError:
            raise AsmError(f"expected integer, got {token!r}", line) from None

    def _symbol_or_int(self, token: str, line: int) -> int:
        token = token.strip()
        if token in self.labels:
            return self.labels[token]
        return self._int(token, line)

    # -- pass 1 -----------------------------------------------------------------

    def assemble(self, source: str) -> Program:
        for lineno, raw in enumerate(source.splitlines(), start=1):
            line = raw.split("#")[0].split(";")[0].strip()
            while True:
                match = _LABEL_RE.match(line)
                if not match:
                    break
                self._define_label(match.group(1), lineno)
                line = line[match.end():].strip()
            if not line:
                continue
            self._statement(line, lineno)
        return self._finish()

    def _define_label(self, name: str, line: int) -> None:
        if name in self.labels:
            raise AsmError(f"duplicate label {name!r}", line)
        self.labels[name] = self._pc

    def _emit_words(self, words: List[int], line: int) -> None:
        self._items.append(
            _Item(address=self._pc, size=4 * len(words), line=line, words=words)
        )
        self._pc += 4 * len(words)

    def _emit_pending(
        self, size_words: int, line: int,
        encoder: Callable[["Assembler"], List[int]],
    ) -> None:
        self._items.append(
            _Item(address=self._pc, size=4 * size_words, line=line,
                  encoder=encoder)
        )
        self._pc += 4 * size_words

    def _statement(self, line: str, lineno: int) -> None:
        if line.startswith("."):
            self._directive(line, lineno)
            return
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operands = [p.strip() for p in parts[1].split(",")] if len(parts) > 1 else []
        self._instruction(mnemonic, operands, lineno)

    def _directive(self, line: str, lineno: int) -> None:
        parts = line.split(None, 1)
        name = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        if name == ".org":
            target = self._int(rest, lineno)
            if target < self._pc:
                raise AsmError(".org cannot move backwards", lineno)
            if target % 4:
                raise AsmError(".org must be 4-byte aligned", lineno)
            pad = (target - self._pc) // 4
            if pad:
                self._emit_words([0] * pad, lineno)
        elif name == ".word":
            values = [self._int(v, lineno) & 0xFFFFFFFF for v in rest.split(",")]
            self._emit_words(values, lineno)
        elif name == ".dword":
            words: List[int] = []
            for token in rest.split(","):
                value = self._int(token, lineno) & isa.MASK64
                words.append(value & 0xFFFFFFFF)
                words.append(value >> 32)
            self._emit_words(words, lineno)
        elif name == ".zero":
            count = self._int(rest, lineno)
            if count % 4:
                raise AsmError(".zero must be a multiple of 4 bytes", lineno)
            self._emit_words([0] * (count // 4), lineno)
        elif name == ".equ":
            name_token, _, value_token = rest.partition(",")
            if not value_token:
                raise AsmError(".equ needs NAME, value", lineno)
            self.constants[name_token.strip()] = self._int(value_token, lineno)
        else:
            raise AsmError(f"unknown directive {name!r}", lineno)

    # -- instructions --------------------------------------------------------------

    def _instruction(self, m: str, ops: List[str], line: int) -> None:
        handler = getattr(self, f"_ins_{m}", None)
        if handler is not None:
            handler(ops, line)
            return
        if m in _R_TYPE:
            self._need(ops, 3, m, line)
            opcode, f3, f7 = _R_TYPE[m]
            rd, rs1, rs2 = (self._reg(o, line) for o in ops)
            self._emit_words([encode.encode_r(opcode, rd, f3, rs1, rs2, f7)], line)
        elif m in _I_TYPE:
            self._need(ops, 3, m, line)
            opcode, f3 = _I_TYPE[m]
            rd, rs1 = self._reg(ops[0], line), self._reg(ops[1], line)
            imm = self._int(ops[2], line)
            self._emit_words([encode.encode_i(opcode, rd, f3, rs1, imm)], line)
        elif m in _SHIFT_I:
            self._need(ops, 3, m, line)
            opcode, f3, f6, word = _SHIFT_I[m]
            rd, rs1 = self._reg(ops[0], line), self._reg(ops[1], line)
            shamt = self._int(ops[2], line)
            self._emit_words(
                [encode.encode_shift_i(opcode, rd, f3, rs1, shamt, f6, word)],
                line,
            )
        elif m in _LOADS:
            self._need(ops, 2, m, line)
            rd = self._reg(ops[0], line)
            imm, rs1 = self._mem_operand(ops[1], line)
            self._emit_words(
                [encode.encode_i(OP_LOAD, rd, _LOADS[m], rs1, imm)], line
            )
        elif m in _STORES:
            self._need(ops, 2, m, line)
            rs2 = self._reg(ops[0], line)
            imm, rs1 = self._mem_operand(ops[1], line)
            self._emit_words(
                [encode.encode_s(OP_STORE, _STORES[m], rs1, rs2, imm)], line
            )
        elif m in _BRANCHES:
            self._need(ops, 3, m, line)
            rs1, rs2 = self._reg(ops[0], line), self._reg(ops[1], line)
            target = ops[2]
            pc = self._pc

            def enc(asm: "Assembler") -> List[int]:
                offset = asm._symbol_or_int(target, line) - pc
                return [encode.encode_b(OP_BRANCH, _BRANCHES[m], rs1, rs2, offset)]

            self._emit_pending(1, line, enc)
        else:
            raise AsmError(f"unknown instruction {m!r}", line)

    @staticmethod
    def _need(ops: List[str], count: int, m: str, line: int) -> None:
        if len(ops) != count:
            raise AsmError(f"{m} expects {count} operands, got {len(ops)}", line)

    def _mem_operand(self, token: str, line: int) -> Tuple[int, int]:
        match = _MEM_OPERAND_RE.match(token.strip())
        if not match:
            raise AsmError(f"expected offset(reg), got {token!r}", line)
        return self._int(match.group(1), line), self._reg(match.group(2), line)

    # -- individual instructions / pseudos ---------------------------------------

    def _ins_lui(self, ops: List[str], line: int) -> None:
        self._need(ops, 2, "lui", line)
        rd = self._reg(ops[0], line)
        imm = self._int(ops[1], line)
        self._emit_words([encode.encode_u(OP_LUI, rd, imm << 12)], line)

    def _ins_auipc(self, ops: List[str], line: int) -> None:
        self._need(ops, 2, "auipc", line)
        rd = self._reg(ops[0], line)
        imm = self._int(ops[1], line)
        self._emit_words([encode.encode_u(OP_AUIPC, rd, imm << 12)], line)

    def _ins_jal(self, ops: List[str], line: int) -> None:
        if len(ops) == 1:
            ops = ["ra", ops[0]]
        self._need(ops, 2, "jal", line)
        rd = self._reg(ops[0], line)
        target = ops[1]
        pc = self._pc

        def enc(asm: "Assembler") -> List[int]:
            offset = asm._symbol_or_int(target, line) - pc
            return [encode.encode_j(OP_JAL, rd, offset)]

        self._emit_pending(1, line, enc)

    def _ins_jalr(self, ops: List[str], line: int) -> None:
        if len(ops) == 1:
            ops = ["ra", ops[0], "0"]
        self._need(ops, 3, "jalr", line)
        rd, rs1 = self._reg(ops[0], line), self._reg(ops[1], line)
        imm = self._int(ops[2], line)
        self._emit_words([encode.encode_i(OP_JALR, rd, 0, rs1, imm)], line)

    def _ins_ecall(self, ops: List[str], line: int) -> None:
        self._emit_words([isa.ECALL], line)

    def _ins_ebreak(self, ops: List[str], line: int) -> None:
        self._emit_words([isa.EBREAK], line)

    def _ins_nop(self, ops: List[str], line: int) -> None:
        self._emit_words([isa.NOP], line)

    def _ins_mv(self, ops: List[str], line: int) -> None:
        self._need(ops, 2, "mv", line)
        self._instruction("addi", [ops[0], ops[1], "0"], line)

    def _ins_not(self, ops: List[str], line: int) -> None:
        self._need(ops, 2, "not", line)
        self._instruction("xori", [ops[0], ops[1], "-1"], line)

    def _ins_neg(self, ops: List[str], line: int) -> None:
        self._need(ops, 2, "neg", line)
        self._instruction("sub", [ops[0], "zero", ops[1]], line)

    def _ins_seqz(self, ops: List[str], line: int) -> None:
        self._need(ops, 2, "seqz", line)
        self._instruction("sltiu", [ops[0], ops[1], "1"], line)

    def _ins_snez(self, ops: List[str], line: int) -> None:
        self._need(ops, 2, "snez", line)
        self._instruction("sltu", [ops[0], "zero", ops[1]], line)

    def _ins_j(self, ops: List[str], line: int) -> None:
        self._need(ops, 1, "j", line)
        self._instruction("jal", ["zero", ops[0]], line)

    def _ins_jr(self, ops: List[str], line: int) -> None:
        self._need(ops, 1, "jr", line)
        self._instruction("jalr", ["zero", ops[0], "0"], line)

    def _ins_ret(self, ops: List[str], line: int) -> None:
        self._instruction("jalr", ["zero", "ra", "0"], line)

    def _ins_call(self, ops: List[str], line: int) -> None:
        self._need(ops, 1, "call", line)
        self._instruction("jal", ["ra", ops[0]], line)

    def _ins_beqz(self, ops: List[str], line: int) -> None:
        self._need(ops, 2, "beqz", line)
        self._instruction("beq", [ops[0], "zero", ops[1]], line)

    def _ins_bnez(self, ops: List[str], line: int) -> None:
        self._need(ops, 2, "bnez", line)
        self._instruction("bne", [ops[0], "zero", ops[1]], line)

    def _ins_bgez(self, ops: List[str], line: int) -> None:
        self._need(ops, 2, "bgez", line)
        self._instruction("bge", [ops[0], "zero", ops[1]], line)

    def _ins_bltz(self, ops: List[str], line: int) -> None:
        self._need(ops, 2, "bltz", line)
        self._instruction("blt", [ops[0], "zero", ops[1]], line)

    def _ins_li(self, ops: List[str], line: int) -> None:
        self._need(ops, 2, "li", line)
        rd = self._reg(ops[0], line)
        value = isa.sign_extend(self._int(ops[1], line), 64)
        self._emit_words(self._li_sequence(rd, value, line), line)

    def _li_sequence(self, rd: int, value: int, line: int) -> List[int]:
        if -2048 <= value <= 2047:
            return [encode.encode_i(OP_IMM, rd, F3_ADD_SUB, 0, value)]
        if -(1 << 31) <= value < (1 << 31):
            hi = (value + 0x800) >> 12
            lo = value - (hi << 12)
            words = [encode.encode_u(OP_LUI, rd, (hi << 12) & 0xFFFFFFFF)]
            if lo:
                words.append(encode.encode_i(OP_IMM32, rd, F3_ADD_SUB, rd, lo))
            return words
        # General 64-bit constant: materialize the upper 32 bits, then
        # shift in the lower bits 11 at a time (worst case 8 words).
        upper = value >> 32
        lower = value & 0xFFFFFFFF
        words = self._li_sequence(rd, isa.sign_extend(upper, 32), line)
        remaining = 32
        chunk_bits = [11, 11, 10]
        for bits in chunk_bits:
            remaining -= bits
            chunk = (lower >> remaining) & ((1 << bits) - 1)
            words.append(
                encode.encode_shift_i(OP_IMM, rd, F3_SLL, rd, bits, 0)
            )
            if chunk:
                words.append(
                    encode.encode_i(OP_IMM, rd, F3_ADD_SUB, rd, chunk)
                )
        return words

    def _ins_la(self, ops: List[str], line: int) -> None:
        """Load address: fixed two-word lui+addiw form (addresses in
        this system fit comfortably in 31 bits)."""
        self._need(ops, 2, "la", line)
        rd = self._reg(ops[0], line)
        target = ops[1]

        def enc(asm: "Assembler") -> List[int]:
            value = asm._symbol_or_int(target, line)
            hi = (value + 0x800) >> 12
            lo = value - (hi << 12)
            return [
                encode.encode_u(OP_LUI, rd, (hi << 12) & 0xFFFFFFFF),
                encode.encode_i(OP_IMM32, rd, F3_ADD_SUB, rd, lo),
            ]

        self._emit_pending(2, line, enc)

    # -- pass 2 ---------------------------------------------------------------------

    def _finish(self) -> Program:
        words: List[int] = []
        for item in self._items:
            assert item.address == 4 * len(words)
            if item.words is not None:
                words.extend(w & 0xFFFFFFFF for w in item.words)
            else:
                encoded = item.encoder(self)  # type: ignore[misc]
                if 4 * len(encoded) != item.size:
                    raise AsmError("pass-2 size mismatch", item.line)
                words.extend(w & 0xFFFFFFFF for w in encoded)
        return Program(
            words=words, labels=dict(self.labels), size_bytes=4 * len(words)
        )


def assemble(source: str) -> Program:
    """Assemble ``source`` into a :class:`Program`."""
    return Assembler().assemble(source)
