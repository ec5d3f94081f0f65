"""AST node definitions for LHDL.

The tree is deliberately small and explicit: every node is a frozen-ish
dataclass with a source line, so elaboration and LiveParser diagnostics
can point back at the user's file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass
class Expr:
    line: int = 0


@dataclass
class Num(Expr):
    """Integer literal; ``width`` is None for plain decimals."""

    value: int = 0
    width: Optional[int] = None


@dataclass
class Id(Expr):
    name: str = ""


@dataclass
class Unary(Expr):
    op: str = ""  # ! ~ - + & | ^ (last three are reductions)
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Binary(Expr):
    op: str = ""
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class Ternary(Expr):
    cond: Expr = None  # type: ignore[assignment]
    if_true: Expr = None  # type: ignore[assignment]
    if_false: Expr = None  # type: ignore[assignment]


@dataclass
class Concat(Expr):
    parts: List[Expr] = field(default_factory=list)


@dataclass
class Repl(Expr):
    count: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass
class Index(Expr):
    """Single-bit select ``sig[i]`` or memory word select ``mem[addr]``."""

    base: str = ""
    index: Expr = None  # type: ignore[assignment]


@dataclass
class Slice(Expr):
    """Constant part select ``sig[msb:lsb]``."""

    base: str = ""
    msb: Expr = None  # type: ignore[assignment]
    lsb: Expr = None  # type: ignore[assignment]


@dataclass
class IndexedPart(Expr):
    """Indexed part select ``sig[start +: width]`` (or ``-:``)."""

    base: str = ""
    start: Expr = None  # type: ignore[assignment]
    width: Expr = None  # type: ignore[assignment]
    ascending: bool = True  # True for +:, False for -:


@dataclass
class SysCall(Expr):
    """``$signed(x)`` / ``$unsigned(x)`` / ``$clog2(x)``."""

    func: str = ""
    args: List[Expr] = field(default_factory=list)


# --------------------------------------------------------------------------
# Statements (inside always blocks)
# --------------------------------------------------------------------------


@dataclass
class Stmt:
    line: int = 0


@dataclass
class LValue:
    """Assignment target: whole signal, bit/word index, or part select."""

    name: str = ""
    index: Optional[Expr] = None  # bit select or memory address
    msb: Optional[Expr] = None  # part select bounds (with lsb)
    lsb: Optional[Expr] = None
    line: int = 0


@dataclass
class NonBlocking(Stmt):
    target: LValue = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass
class Blocking(Stmt):
    target: LValue = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then_body: List[Stmt] = field(default_factory=list)
    else_body: List[Stmt] = field(default_factory=list)


@dataclass
class Case(Stmt):
    subject: Expr = None  # type: ignore[assignment]
    # Each arm is ([labels], body); the default arm has labels == [].
    arms: List[Tuple[List[Expr], List[Stmt]]] = field(default_factory=list)


# --------------------------------------------------------------------------
# Module items
# --------------------------------------------------------------------------


@dataclass
class Param:
    name: str
    default: Expr
    is_local: bool = False
    line: int = 0


@dataclass
class Port:
    direction: str  # "input" | "output"
    name: str
    msb: Optional[Expr] = None  # None means 1-bit scalar
    lsb: Optional[Expr] = None
    is_reg: bool = False
    line: int = 0


@dataclass
class Net:
    """wire/reg declaration; ``depth`` is set for memories."""

    kind: str  # "wire" | "reg"
    name: str
    msb: Optional[Expr] = None
    lsb: Optional[Expr] = None
    depth_msb: Optional[Expr] = None
    depth_lsb: Optional[Expr] = None
    line: int = 0

    @property
    def is_memory(self) -> bool:
        return self.depth_msb is not None


@dataclass
class ContAssign:
    target: LValue
    value: Expr
    line: int = 0


@dataclass
class Always:
    """``always @(posedge clk)`` or ``always @(*)`` block."""

    kind: str  # "seq" | "comb"
    clock: Optional[str] = None
    body: List[Stmt] = field(default_factory=list)
    line: int = 0


@dataclass
class Instance:
    module: str
    name: str
    param_overrides: Dict[str, Expr] = field(default_factory=dict)
    # Port connections: port-name -> expression (inputs) / lvalue-ish
    # expression (outputs must be plain ids, indexes, or slices).
    connections: Dict[str, Expr] = field(default_factory=dict)
    line: int = 0


@dataclass
class Module:
    name: str
    params: List[Param] = field(default_factory=list)
    ports: List[Port] = field(default_factory=list)
    nets: List[Net] = field(default_factory=list)
    assigns: List[ContAssign] = field(default_factory=list)
    always_blocks: List[Always] = field(default_factory=list)
    instances: List[Instance] = field(default_factory=list)
    line: int = 0
    end_line: int = 0

    def port(self, name: str) -> Optional[Port]:
        for port in self.ports:
            if port.name == name:
                return port
        return None


@dataclass
class Design:
    """A parsed compilation unit: every module in one source text."""

    modules: Dict[str, Module] = field(default_factory=dict)
