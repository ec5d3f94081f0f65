"""Recursive-descent parser for LHDL.

Supported grammar (ANSI-style ports, Verilog-2001 flavour)::

    module NAME #(parameter P = expr, ...) (input [msb:lsb] a, output reg b, ...);
        parameter / localparam declarations
        wire / reg declarations (incl. memories:  reg [63:0] mem [0:4095];)
        assign lvalue = expr;
        always @(posedge clk) stmt     -- sequential, non-blocking <=
        always @(*) stmt               -- combinational, blocking =
        MODULE #(.P(expr)) inst (.port(expr), ...);
    endmodule

Expressions: the usual Verilog operator set with standard precedence,
concatenation ``{a, b}``, replication ``{N{a}}``, bit/part/indexed-part
selects, ``$signed`` / ``$unsigned`` / ``$clog2``.

A parse can reuse what an earlier parse of the same text read: a token
of kind ``ITEM`` stands for one :class:`ModuleItem` (a module item or
header, with its nodes), and the parser appends those nodes where it
meets the token, in place of reading the item again.  Anywhere else the
token matches nothing, so the parse fails (LiveParser then reads the
region whole).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from . import ast_nodes as ast
from .errors import ParseError
from .lexer import tokenize
from .preprocessor import preprocess
from .tokens import EOF, IDENT, ITEM, NUMBER, OP, SIZED_NUMBER, SYSCALL, Token

# Binary operator precedence: higher binds tighter.
_BINARY_PRECEDENCE: Dict[str, int] = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6, "===": 6, "!==": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_UNARY_OPS = frozenset({"!", "~", "-", "+", "&", "|", "^"})
_SYSCALLS = frozenset({"$signed", "$unsigned", "$clog2"})


# ``ModuleItem.attr`` of a module header.
HEADER = "header"


class ModuleItem(NamedTuple):
    """A module item, or a module header, as one parse read it: what a
    later parse of the same lines appends instead of reading them."""

    first: int  # line of its first token
    last: int  # line of its last token
    look: int  # line of the token after it (the parser looked at it)
    piece: str  # its tokens' fingerprint text (``lexer.fingerprint_parts``)
    attr: str  # the ``ast.Module`` list it extends, or HEADER
    nodes: tuple  # what it appends; (name, params, ports) for a header


class Parser:
    """One-token-lookahead parser over a token list."""

    def __init__(self, tokens: List[Token], items: Optional[list] = None):
        """``items``, when a list, gets one ``(start, end, attr, nodes)``
        per module header and item the parse reads or reuses, in text
        order: ``tokens[start:end]`` are its tokens."""
        self._tokens = tokens
        self._pos = 0
        self._items = items

    # -- token plumbing ----------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        i = min(self._pos + ahead, len(self._tokens) - 1)
        return self._tokens[i]

    def _next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != EOF:
            self._pos += 1
        return tok

    def _error(self, message: str, tok: Optional[Token] = None) -> ParseError:
        tok = tok or self._peek()
        return ParseError(f"{message} (got {tok.kind} {tok.value!r})", tok.line, tok.col)

    def _expect_punct(self, text: str) -> Token:
        tok = self._next()
        if not tok.is_punct(text):
            raise self._error(f"expected {text!r}", tok)
        return tok

    def _expect_op(self, text: str) -> Token:
        tok = self._next()
        if not tok.is_op(text):
            raise self._error(f"expected {text!r}", tok)
        return tok

    def _expect_keyword(self, text: str) -> Token:
        tok = self._next()
        if not tok.is_keyword(text):
            raise self._error(f"expected keyword {text!r}", tok)
        return tok

    def _expect_ident(self) -> Token:
        tok = self._next()
        if tok.kind != IDENT:
            raise self._error("expected identifier", tok)
        return tok

    def _accept_punct(self, text: str) -> bool:
        if self._peek().is_punct(text):
            self._next()
            return True
        return False

    def _accept_op(self, text: str) -> bool:
        if self._peek().is_op(text):
            self._next()
            return True
        return False

    def _accept_keyword(self, text: str) -> bool:
        if self._peek().is_keyword(text):
            self._next()
            return True
        return False

    # -- top level ---------------------------------------------------------

    def parse_design(self) -> ast.Design:
        design = ast.Design()
        while self._peek().kind != EOF:
            module = self.parse_module()
            if module.name in design.modules:
                raise ParseError(
                    f"duplicate module {module.name!r}", module.line, 1
                )
            design.modules[module.name] = module
        return design

    def parse_module(self) -> ast.Module:
        """A header, then items up to ``endmodule``.  The header and each
        item are either read or, where an ``ITEM`` token stands for
        them, appended as an earlier parse read them; both go to
        ``items`` (see :class:`Parser`)."""
        items, start = self._items, self._pos
        head = self._peek()
        if head.kind == ITEM and head.value.attr == HEADER:
            self._pos += 1
            header = head.value.nodes
            module = ast.Module(name=header[0], line=head.line)
            module.params.extend(header[1])
            module.ports.extend(header[2])
        else:
            module = self._parse_header()
            header = (module.name, tuple(module.params), tuple(module.ports))
        if items is not None:
            items.append((start, self._pos, HEADER, header))
        while not self._peek().is_keyword("endmodule"):
            tok = self._peek()
            if tok.kind == EOF:
                raise self._error(f"unterminated module {module.name!r}")
            start = self._pos
            if tok.kind == ITEM and tok.value.attr != HEADER:
                self._pos += 1
                attr, nodes = tok.value.attr, tok.value.nodes
            else:
                attr, nodes = self._parse_module_item()
            getattr(module, attr).extend(nodes)
            if items is not None:
                items.append((start, self._pos, attr, nodes))
        end = self._next()  # endmodule
        module.end_line = end.line
        return module

    def _parse_header(self) -> ast.Module:
        """``module NAME #(...) (...);``"""
        start = self._expect_keyword("module")
        name = self._expect_ident()
        module = ast.Module(name=name.value, line=start.line)
        if self._accept_punct("#"):
            self._expect_punct("(")
            module.params.extend(self._parse_header_params())
            self._expect_punct(")")
        self._expect_punct("(")
        if not self._peek().is_punct(")"):
            module.ports.extend(self._parse_port_list())
        self._expect_punct(")")
        self._expect_punct(";")
        return module

    def _parse_header_params(self) -> List[ast.Param]:
        params: List[ast.Param] = []
        self._expect_keyword("parameter")
        while True:
            self._accept_keyword("parameter")  # optional on later entries
            name = self._expect_ident()
            self._expect_punct("=")
            default = self.parse_expr()
            params.append(ast.Param(name.value, default, line=name.line))
            if not self._accept_punct(","):
                return params

    def _parse_range(self) -> Tuple[Optional[ast.Expr], Optional[ast.Expr]]:
        if not self._accept_punct("["):
            return None, None
        msb = self.parse_expr()
        self._expect_punct(":")
        lsb = self.parse_expr()
        self._expect_punct("]")
        return msb, lsb

    def _parse_port_list(self) -> List[ast.Port]:
        ports: List[ast.Port] = []
        direction = None
        is_reg = False
        msb: Optional[ast.Expr] = None
        lsb: Optional[ast.Expr] = None
        while True:
            tok = self._peek()
            if tok.is_keyword("input") or tok.is_keyword("output"):
                direction = self._next().value
                is_reg = self._accept_keyword("reg")
                msb, lsb = self._parse_range()
            elif direction is None:
                raise self._error("expected 'input' or 'output'")
            name = self._expect_ident()
            ports.append(
                ast.Port(direction, name.value, msb, lsb, is_reg=is_reg, line=name.line)
            )
            if not self._accept_punct(","):
                return ports

    # -- module items ------------------------------------------------------

    def _parse_module_item(self) -> Tuple[str, list]:
        """One item: the ``ast.Module`` list it extends, and its nodes."""
        tok = self._peek()
        if tok.is_keyword("parameter") or tok.is_keyword("localparam"):
            return "params", self._parse_param_item()
        if tok.is_keyword("wire") or tok.is_keyword("reg"):
            return "nets", self._parse_net_decl()
        if tok.is_keyword("assign"):
            return "assigns", self._parse_cont_assign()
        if tok.is_keyword("always"):
            return "always_blocks", [self._parse_always()]
        if tok.kind == IDENT:
            return "instances", [self._parse_instance()]
        raise self._error("expected module item")

    def _parse_param_item(self) -> List[ast.Param]:
        kw = self._next()
        is_local = kw.value == "localparam"
        params: List[ast.Param] = []
        while True:
            name = self._expect_ident()
            self._expect_punct("=")
            default = self.parse_expr()
            params.append(
                ast.Param(name.value, default, is_local=is_local, line=name.line)
            )
            if self._accept_punct(";"):
                return params
            self._expect_punct(",")

    def _parse_net_decl(self) -> List[ast.Net]:
        kw = self._next()
        msb, lsb = self._parse_range()
        nets: List[ast.Net] = []
        while True:
            name = self._expect_ident()
            depth_msb, depth_lsb = self._parse_range()
            nets.append(
                ast.Net(
                    kind=kw.value,
                    name=name.value,
                    msb=msb,
                    lsb=lsb,
                    depth_msb=depth_msb,
                    depth_lsb=depth_lsb,
                    line=name.line,
                )
            )
            if self._accept_punct(";"):
                return nets
            self._expect_punct(",")

    def _parse_cont_assign(self) -> List[ast.ContAssign]:
        kw = self._next()
        assigns: List[ast.ContAssign] = []
        while True:
            target = self._parse_lvalue()
            self._expect_punct("=")
            value = self.parse_expr()
            assigns.append(ast.ContAssign(target, value, line=kw.line))
            if self._accept_punct(";"):
                return assigns
            self._expect_punct(",")

    def _parse_always(self) -> ast.Always:
        kw = self._expect_keyword("always")
        self._expect_punct("@")
        self._expect_punct("(")
        if self._accept_op("*"):
            block = ast.Always(kind="comb", line=kw.line)
        elif self._peek().is_keyword("posedge"):
            self._next()
            clock = self._expect_ident()
            block = ast.Always(kind="seq", clock=clock.value, line=kw.line)
        else:
            raise self._error("expected 'posedge <clk>' or '*'")
        self._expect_punct(")")
        block.body = self._parse_stmt_as_list(block.kind)
        return block

    def _parse_stmt_as_list(self, kind: str) -> List[ast.Stmt]:
        if self._peek().is_keyword("begin"):
            return self._parse_block(kind)
        return [self._parse_stmt(kind)]

    def _parse_block(self, kind: str) -> List[ast.Stmt]:
        self._expect_keyword("begin")
        stmts: List[ast.Stmt] = []
        while not self._peek().is_keyword("end"):
            if self._peek().kind == EOF:
                raise self._error("unterminated begin block")
            stmts.append(self._parse_stmt(kind))
        self._next()  # end
        return stmts

    def _parse_stmt(self, kind: str) -> ast.Stmt:
        tok = self._peek()
        if tok.is_keyword("begin"):
            # An anonymous nested block folds into an If for simplicity:
            # represent as If(cond=1) would be odd, so just flatten inline.
            stmts = self._parse_block(kind)
            block = ast.If(line=tok.line, cond=ast.Num(value=1, line=tok.line))
            block.then_body = stmts
            return block
        if tok.is_keyword("if"):
            return self._parse_if(kind)
        if tok.is_keyword("case"):
            return self._parse_case(kind)
        return self._parse_assignment_stmt(kind)

    def _parse_if(self, kind: str) -> ast.If:
        kw = self._expect_keyword("if")
        self._expect_punct("(")
        cond = self.parse_expr()
        self._expect_punct(")")
        node = ast.If(cond=cond, line=kw.line)
        node.then_body = self._parse_stmt_as_list(kind)
        if self._accept_keyword("else"):
            node.else_body = self._parse_stmt_as_list(kind)
        return node

    def _parse_case(self, kind: str) -> ast.Case:
        kw = self._expect_keyword("case")
        self._expect_punct("(")
        subject = self.parse_expr()
        self._expect_punct(")")
        node = ast.Case(subject=subject, line=kw.line)
        while not self._peek().is_keyword("endcase"):
            if self._peek().kind == EOF:
                raise self._error("unterminated case")
            labels: List[ast.Expr] = []
            if self._accept_keyword("default"):
                pass  # empty labels == default arm
            else:
                labels.append(self.parse_expr())
                while self._accept_punct(","):
                    labels.append(self.parse_expr())
            self._expect_punct(":")
            body = self._parse_stmt_as_list(kind)
            node.arms.append((labels, body))
        self._next()  # endcase
        return node

    def _parse_assignment_stmt(self, kind: str) -> ast.Stmt:
        target = self._parse_lvalue()
        tok = self._next()
        if tok.is_op("<="):
            if kind != "seq":
                raise ParseError(
                    "non-blocking '<=' only allowed in always @(posedge)",
                    tok.line, tok.col,
                )
            value = self.parse_expr()
            self._expect_punct(";")
            return ast.NonBlocking(target=target, value=value, line=target.line)
        if tok.is_punct("="):
            if kind != "comb":
                raise ParseError(
                    "blocking '=' only allowed in always @(*)", tok.line, tok.col
                )
            value = self.parse_expr()
            self._expect_punct(";")
            return ast.Blocking(target=target, value=value, line=target.line)
        raise self._error("expected '<=' or '='", tok)

    def _parse_lvalue(self) -> ast.LValue:
        name = self._expect_ident()
        lval = ast.LValue(name=name.value, line=name.line)
        if self._accept_punct("["):
            first = self.parse_expr()
            if self._accept_punct(":"):
                lval.msb = first
                lval.lsb = self.parse_expr()
            else:
                lval.index = first
            self._expect_punct("]")
        return lval

    def _parse_instance(self) -> ast.Instance:
        module_name = self._expect_ident()
        inst = ast.Instance(module=module_name.value, name="", line=module_name.line)
        if self._accept_punct("#"):
            self._expect_punct("(")
            while True:
                self._expect_punct(".")
                pname = self._expect_ident()
                self._expect_punct("(")
                inst.param_overrides[pname.value] = self.parse_expr()
                self._expect_punct(")")
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")
        inst_name = self._expect_ident()
        inst.name = inst_name.value
        self._expect_punct("(")
        if not self._peek().is_punct(")"):
            while True:
                self._expect_punct(".")
                pname = self._expect_ident()
                self._expect_punct("(")
                if self._peek().is_punct(")"):
                    conn: Optional[ast.Expr] = None  # unconnected port
                else:
                    conn = self.parse_expr()
                self._expect_punct(")")
                if conn is not None:
                    inst.connections[pname.value] = conn
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        self._expect_punct(";")
        return inst

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(1)
        if self._accept_op("?"):
            if_true = self._parse_ternary()
            self._expect_punct(":")
            if_false = self._parse_ternary()
            return ast.Ternary(
                cond=cond, if_true=if_true, if_false=if_false, line=cond.line
            )
        return cond

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        left = self._parse_unary()
        while True:
            tok = self._peek()
            if tok.kind != OP:
                return left
            prec = _BINARY_PRECEDENCE.get(tok.value)
            if prec is None or prec < min_prec:
                return left
            self._next()
            right = self._parse_binary(prec + 1)
            left = ast.Binary(op=tok.value, left=left, right=right, line=tok.line)

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind == OP and tok.value in _UNARY_OPS:
            self._next()
            operand = self._parse_unary()
            if tok.value == "+":
                return operand
            return ast.Unary(op=tok.value, operand=operand, line=tok.line)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        tok = self._next()
        if tok.kind == NUMBER:
            return ast.Num(value=tok.num_value or 0, line=tok.line)
        if tok.kind == SIZED_NUMBER:
            return ast.Num(value=tok.num_value or 0, width=tok.num_width, line=tok.line)
        if tok.kind == SYSCALL:
            if tok.value not in _SYSCALLS:
                raise self._error(f"unsupported system function {tok.value}", tok)
            self._expect_punct("(")
            args = [self.parse_expr()]
            while self._accept_punct(","):
                args.append(self.parse_expr())
            self._expect_punct(")")
            return ast.SysCall(func=tok.value, args=args, line=tok.line)
        if tok.is_punct("("):
            inner = self.parse_expr()
            self._expect_punct(")")
            return inner
        if tok.is_punct("{"):
            return self._parse_concat_or_repl(tok)
        if tok.kind == IDENT:
            return self._parse_id_suffix(tok)
        raise self._error("expected expression", tok)

    def _parse_concat_or_repl(self, open_tok: Token) -> ast.Expr:
        first = self.parse_expr()
        if self._peek().is_punct("{"):
            self._next()
            value_parts = [self.parse_expr()]
            while self._accept_punct(","):
                value_parts.append(self.parse_expr())
            self._expect_punct("}")
            self._expect_punct("}")
            value: ast.Expr
            if len(value_parts) == 1:
                value = value_parts[0]
            else:
                value = ast.Concat(parts=value_parts, line=open_tok.line)
            return ast.Repl(count=first, value=value, line=open_tok.line)
        parts = [first]
        while self._accept_punct(","):
            parts.append(self.parse_expr())
        self._expect_punct("}")
        if len(parts) == 1:
            return parts[0]
        return ast.Concat(parts=parts, line=open_tok.line)

    def _parse_id_suffix(self, tok: Token) -> ast.Expr:
        if not self._accept_punct("["):
            return ast.Id(name=tok.value, line=tok.line)
        first = self.parse_expr()
        nxt = self._peek()
        if nxt.is_punct(":"):
            self._next()
            lsb = self.parse_expr()
            self._expect_punct("]")
            return ast.Slice(base=tok.value, msb=first, lsb=lsb, line=tok.line)
        if nxt.is_op("+:") or nxt.is_op("-:"):
            ascending = nxt.value == "+:"
            self._next()
            width = self.parse_expr()
            self._expect_punct("]")
            return ast.IndexedPart(
                base=tok.value, start=first, width=width,
                ascending=ascending, line=tok.line,
            )
        self._expect_punct("]")
        return ast.Index(base=tok.value, index=first, line=tok.line)


def parse(
    source: str,
    predefines: Optional[Dict[str, str]] = None,
    tokens: Optional[List[Token]] = None,
    items: Optional[list] = None,
) -> ast.Design:
    """Preprocess + tokenize + parse ``source`` into a :class:`Design`.

    ``tokens`` is ``source`` already lexed, for macro-free text that
    preprocessing would leave as it is (a module region LiveParser
    fingerprinted, lexed at its line): parsed without a second scan,
    every node and error in the coordinates the tokens carry.  They may
    hold ``ITEM`` tokens (the module docstring); ``items`` is the
    :class:`Parser`'s.
    """
    if tokens is None:
        tokens = tokenize(preprocess(source, predefines).text)
    return Parser(tokens, items).parse_design()


def parse_expr(source: str) -> ast.Expr:
    """Parse a standalone expression (used by tests and the REPL)."""
    return Parser(tokenize(source)).parse_expr()
