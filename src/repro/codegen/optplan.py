"""Per-module optimization plans and the constant-folding transforms.

The pass framework (:mod:`repro.passes`) analyzes each elaborated
module and condenses its conclusions into one :class:`OptPlan` per
specialization; codegen consumes the plan without ever mutating the
shared :class:`~repro.ir.netlist.ModuleIR` (which analyzer caches and
pickled artifacts alias).

The transforms here are width-exact: every literal introduced carries
the width the replaced read had, and constant subtrees collapse with
the same width rules :class:`~repro.codegen.exprgen.ExprGen` applies at
runtime — so optimized and plain code are bit-identical by
construction.  ``$signed``/``$unsigned`` wrappers block folding (their
signedness changes how an *enclosing* compare or shift lowers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..hdl import ast_nodes as ast
from .exprgen import mask_of


@dataclass(frozen=True)
class OptPlan:
    """Everything codegen needs to emit the optimized variant.

    * ``consts`` — comb wires proven constant; reads are replaced with
      sized literals (values already masked to the declared width).
    * ``dead_assigns`` / ``dead_blocks`` — schedule-index sets whose
      results nothing live reads; their emission is skipped.
    * ``skip_children`` — instance indices whose subtree is pure
      (stateless): their ``cycle`` calls are elided.
    """

    level: str = "none"
    consts: Dict[str, int] = field(default_factory=dict)
    const_widths: Dict[str, int] = field(default_factory=dict)
    dead_assigns: Tuple[int, ...] = ()
    dead_blocks: Tuple[int, ...] = ()
    skip_children: Tuple[int, ...] = ()

    @property
    def is_noop(self) -> bool:
        return (
            not self.consts
            and not self.dead_assigns
            and not self.dead_blocks
            and not self.skip_children
        )


# ----------------------------------------------------------------------------
# Width-exact constant folding
# ----------------------------------------------------------------------------


def num_width(num: ast.Num) -> int:
    """The width ExprGen.width_of assigns this literal."""
    if num.width is not None:
        return num.width
    return max(32, num.value.bit_length())


def num_value(num: ast.Num) -> int:
    """The masked value ExprGen.gen emits for this literal."""
    return num.value & mask_of(num_width(num))


def _fold_unary(op: str, operand: ast.Num, line: int):
    width = num_width(operand)
    value = num_value(operand)
    if op == "~":
        return ast.Num(value=(~value) & mask_of(width), width=width, line=line)
    if op == "-":
        return ast.Num(value=(-value) & mask_of(width), width=width, line=line)
    if op == "!":
        return ast.Num(value=0 if value else 1, width=1, line=line)
    if op == "&":
        return ast.Num(
            value=1 if value == mask_of(width) else 0, width=1, line=line
        )
    if op == "|":
        return ast.Num(value=1 if value else 0, width=1, line=line)
    if op == "^":
        return ast.Num(value=bin(value).count("1") & 1, width=1, line=line)
    return None


def _fold_binary(op: str, left: ast.Num, right: ast.Num, line: int):
    wl, wr = num_width(left), num_width(right)
    lv, rv = num_value(left), num_value(right)
    wide = max(wl, wr)
    if op in ("+", "-", "*"):
        value = {"+": lv + rv, "-": lv - rv, "*": lv * rv}[op]
        return ast.Num(value=value & mask_of(wide), width=wide, line=line)
    if op == "/":
        return ast.Num(
            value=(lv // rv) if rv else mask_of(wide), width=wide, line=line
        )
    if op == "%":
        return ast.Num(value=(lv % rv) if rv else lv, width=wide, line=line)
    if op in ("<<", "<<<"):
        value = (lv << rv) & mask_of(wl) if rv < wl + 1 else 0
        return ast.Num(value=value, width=wl, line=line)
    if op in (">>", ">>>"):
        # Bare literals are unsigned (is_signed needs a $signed node,
        # and $signed wrappers block folding entirely).
        return ast.Num(value=lv >> rv, width=wl, line=line)
    if op in ("==", "==="):
        return ast.Num(value=int(lv == rv), width=1, line=line)
    if op in ("!=", "!=="):
        return ast.Num(value=int(lv != rv), width=1, line=line)
    if op in ("<", "<=", ">", ">="):
        result = {
            "<": lv < rv, "<=": lv <= rv, ">": lv > rv, ">=": lv >= rv
        }[op]
        return ast.Num(value=int(result), width=1, line=line)
    if op == "&&":
        return ast.Num(value=int(bool(lv) and bool(rv)), width=1, line=line)
    if op == "||":
        return ast.Num(value=int(bool(lv) or bool(rv)), width=1, line=line)
    if op in ("&", "|", "^"):
        value = {"&": lv & rv, "|": lv | rv, "^": lv ^ rv}[op]
        return ast.Num(value=value, width=wide, line=line)
    return None


def substitute_expr(
    expr: ast.Expr, consts: Dict[str, int], widths: Dict[str, int]
) -> ast.Expr:
    """Replace reads of constant signals with sized literals and
    collapse the constant subtrees that creates.  Returns a new tree
    (or ``expr`` itself when nothing applies); never mutates."""
    if isinstance(expr, ast.Num):
        return expr
    if isinstance(expr, ast.Id):
        if expr.name in consts:
            return ast.Num(
                value=consts[expr.name], width=widths[expr.name],
                line=expr.line,
            )
        return expr
    if isinstance(expr, ast.Unary):
        operand = substitute_expr(expr.operand, consts, widths)
        if isinstance(operand, ast.Num):
            folded = _fold_unary(expr.op, operand, expr.line)
            if folded is not None:
                return folded
        return ast.Unary(op=expr.op, operand=operand, line=expr.line)
    if isinstance(expr, ast.Binary):
        left = substitute_expr(expr.left, consts, widths)
        right = substitute_expr(expr.right, consts, widths)
        if isinstance(left, ast.Num) and isinstance(right, ast.Num):
            folded = _fold_binary(expr.op, left, right, expr.line)
            if folded is not None:
                return folded
        return ast.Binary(op=expr.op, left=left, right=right, line=expr.line)
    if isinstance(expr, ast.Ternary):
        cond = substitute_expr(expr.cond, consts, widths)
        if_true = substitute_expr(expr.if_true, consts, widths)
        if_false = substitute_expr(expr.if_false, consts, widths)
        if (
            isinstance(cond, ast.Num)
            and isinstance(if_true, ast.Num)
            and isinstance(if_false, ast.Num)
        ):
            # Ternary width is max(arms); keep it on the survivor.
            width = max(num_width(if_true), num_width(if_false))
            chosen = if_true if num_value(cond) else if_false
            return ast.Num(value=num_value(chosen), width=width,
                           line=expr.line)
        return ast.Ternary(cond=cond, if_true=if_true, if_false=if_false,
                           line=expr.line)
    if isinstance(expr, ast.Concat):
        parts = [substitute_expr(p, consts, widths) for p in expr.parts]
        if all(isinstance(p, ast.Num) for p in parts):
            total = sum(num_width(p) for p in parts)
            value, offset = 0, total
            for part in parts:
                offset -= num_width(part)
                value |= num_value(part) << offset
            return ast.Num(value=value, width=total, line=expr.line)
        return ast.Concat(parts=parts, line=expr.line)
    if isinstance(expr, ast.Repl):
        count = substitute_expr(expr.count, consts, widths)
        value = substitute_expr(expr.value, consts, widths)
        if (
            isinstance(count, ast.Num)
            and isinstance(value, ast.Num)
            and count.value >= 1
        ):
            vw = num_width(value)
            factor = sum(1 << (i * vw) for i in range(count.value))
            return ast.Num(value=num_value(value) * factor,
                           width=count.value * vw, line=expr.line)
        return ast.Repl(count=count, value=value, line=expr.line)
    if isinstance(expr, ast.Index):
        index = substitute_expr(expr.index, consts, widths)
        if expr.base in consts and isinstance(index, ast.Num):
            return ast.Num(
                value=(consts[expr.base] >> num_value(index)) & 1,
                width=1, line=expr.line,
            )
        return ast.Index(base=expr.base, index=index, line=expr.line)
    if isinstance(expr, ast.Slice):
        msb = substitute_expr(expr.msb, consts, widths)
        lsb = substitute_expr(expr.lsb, consts, widths)
        if (
            expr.base in consts
            and isinstance(msb, ast.Num)
            and isinstance(lsb, ast.Num)
            and msb.value >= lsb.value
        ):
            width = msb.value - lsb.value + 1
            return ast.Num(
                value=(consts[expr.base] >> lsb.value) & mask_of(width),
                width=width, line=expr.line,
            )
        return ast.Slice(base=expr.base, msb=msb, lsb=lsb, line=expr.line)
    if isinstance(expr, ast.IndexedPart):
        start = substitute_expr(expr.start, consts, widths)
        width_e = substitute_expr(expr.width, consts, widths)
        if (
            expr.base in consts
            and isinstance(start, ast.Num)
            and isinstance(width_e, ast.Num)
            and width_e.value > 0
        ):
            width = width_e.value
            shift = (
                num_value(start) if expr.ascending
                else num_value(start) - (width - 1)
            )
            if shift >= 0:  # negative shifts fault at runtime; keep those
                return ast.Num(
                    value=(consts[expr.base] >> shift) & mask_of(width),
                    width=width, line=expr.line,
                )
        return ast.IndexedPart(base=expr.base, start=start, width=width_e,
                               ascending=expr.ascending, line=expr.line)
    if isinstance(expr, ast.SysCall):
        return ast.SysCall(
            func=expr.func,
            args=[substitute_expr(a, consts, widths) for a in expr.args],
            line=expr.line,
        )
    return expr


# ----------------------------------------------------------------------------
# Statement-level: substitution plus unreachable-branch pruning
# ----------------------------------------------------------------------------


def optimize_stmts(
    stmts: List[ast.Stmt], consts: Dict[str, int], widths: Dict[str, int]
) -> List[ast.Stmt]:
    """Substitute constants through a statement body and drop branches
    whose condition folds to a literal.  Used both by codegen (the code
    that is emitted) and by the dead-logic pass (the reads that remain)
    — one implementation so the two can never disagree."""
    out: List[ast.Stmt] = []
    for stmt in stmts:
        out.extend(_opt_stmt(stmt, consts, widths))
    return out


def _opt_lvalue(lval: ast.LValue, consts, widths) -> ast.LValue:
    return ast.LValue(
        name=lval.name,
        index=(substitute_expr(lval.index, consts, widths)
               if lval.index is not None else None),
        msb=(substitute_expr(lval.msb, consts, widths)
             if lval.msb is not None else None),
        lsb=(substitute_expr(lval.lsb, consts, widths)
             if lval.lsb is not None else None),
        line=lval.line,
    )


def _opt_stmt(stmt: ast.Stmt, consts, widths) -> List[ast.Stmt]:
    if isinstance(stmt, ast.NonBlocking):
        return [ast.NonBlocking(
            target=_opt_lvalue(stmt.target, consts, widths),
            value=substitute_expr(stmt.value, consts, widths),
            line=stmt.line,
        )]
    if isinstance(stmt, ast.Blocking):
        return [ast.Blocking(
            target=_opt_lvalue(stmt.target, consts, widths),
            value=substitute_expr(stmt.value, consts, widths),
            line=stmt.line,
        )]
    if isinstance(stmt, ast.If):
        cond = substitute_expr(stmt.cond, consts, widths)
        if isinstance(cond, ast.Num):
            live = stmt.then_body if num_value(cond) else stmt.else_body
            return optimize_stmts(live, consts, widths)
        return [ast.If(
            cond=cond,
            then_body=optimize_stmts(stmt.then_body, consts, widths),
            else_body=optimize_stmts(stmt.else_body, consts, widths),
            line=stmt.line,
        )]
    if isinstance(stmt, ast.Case):
        subject = substitute_expr(stmt.subject, consts, widths)
        arms = [
            ([substitute_expr(lbl, consts, widths) for lbl in labels], body)
            for labels, body in stmt.arms
        ]
        all_const = isinstance(subject, ast.Num) and all(
            isinstance(lbl, ast.Num) for labels, _ in arms for lbl in labels
        )
        if all_const:
            sv = num_value(subject)
            default = None
            for labels, body in arms:
                if not labels:
                    default = body
                    continue
                if any(num_value(lbl) == sv for lbl in labels):
                    return optimize_stmts(body, consts, widths)
            if default is not None:
                return optimize_stmts(default, consts, widths)
            return []
        return [ast.Case(
            subject=subject,
            arms=[
                (labels, optimize_stmts(body, consts, widths))
                for labels, body in arms
            ],
            line=stmt.line,
        )]
    return [stmt]
