"""Token definitions for the LHDL lexer.

LHDL is the Verilog subset understood by this reproduction (see
``repro.hdl.parser`` for the grammar).  Tokens carry enough position
information for LiveParser to map behavioural changes back to source
regions.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

# Token kinds.
KEYWORD = "KEYWORD"
IDENT = "IDENT"
NUMBER = "NUMBER"  # plain decimal literal
SIZED_NUMBER = "SIZED_NUMBER"  # e.g. 8'hFF
OP = "OP"
PUNCT = "PUNCT"
SYSCALL = "SYSCALL"  # $signed, $unsigned, ...
MACRO = "MACRO"  # `NAME (only in raw, un-preprocessed text)
EOF = "EOF"
# A module item an earlier parse read, standing in for its tokens (no
# lexer makes one; see ``repro.hdl.parser.ModuleItem``).
ITEM = "ITEM"

KEYWORDS = frozenset(
    {
        "module",
        "endmodule",
        "parameter",
        "localparam",
        "input",
        "output",
        "wire",
        "reg",
        "assign",
        "always",
        "posedge",
        "negedge",
        "begin",
        "end",
        "if",
        "else",
        "case",
        "endcase",
        "default",
    }
)

# Multi-character operators, longest first so the lexer can do greedy
# matching by scanning this tuple in order.
MULTI_CHAR_OPS = (
    ">>>",
    "<<<",
    "===",
    "!==",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "<<",
    ">>",
    "+:",
    "-:",
)

SINGLE_CHAR_OPS = frozenset("+-*/%&|^~!<>?")
PUNCTUATION = frozenset("()[]{}:;,.#=@")


class Token(NamedTuple):
    """A single lexical token, in file coordinates.

    ``value`` is the raw text for identifiers/operators; for sized
    numbers it is the canonical ``(width, value)`` pair encoded by the
    lexer in ``num_width``/``num_value``.  A named tuple because the
    lexer builds one per token: construction is the cost that matters.
    """

    kind: str
    value: str
    line: int
    col: int
    num_value: Optional[int] = None
    num_width: Optional[int] = None

    def is_op(self, text: str) -> bool:
        return self.kind == OP and self.value == text

    def is_punct(self, text: str) -> bool:
        return self.kind == PUNCT and self.value == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == KEYWORD and self.value == text

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"{self.kind}({self.value!r})@{self.line}:{self.col}"
