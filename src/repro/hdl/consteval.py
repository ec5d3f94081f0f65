"""What an LHDL expression means: its width, its constant value, its fold.

Two rules live here and nowhere else.

*Parameter arithmetic* (:func:`eval_const`) is unbounded-integer
arithmetic: ``localparam W = A - B``, ``1 << 40``, memory depths and
port ranges.

*The runtime rule* is what generated code computes, a non-negative int
masked to the node's width.  :func:`width_of` is the one place widths
are decided; elaboration, the optimiser, the abstract interpreter, the
sanitizer census and both code generators call it:

* a sized literal has its width, a bare decimal (and a parameter)
  ``max(32, bit_length)``;
* arithmetic / bitwise binary and the ternary: ``max`` of the operands;
* comparisons, logical operators and reductions: 1;
* shifts: the left operand; ``~`` and ``-``: the operand;
* concatenation: the sum of the parts; replication ``count * width``;
* a bit-select is 1 bit (a memory word the memory's width), a
  part-select its own width.

Compares, ``/``, ``%`` and ``>>`` act on the masked values (a negative
parameter compares as its two's complement), ``x / 0`` is all-ones and
``x % 0`` is ``x``.  Where a compare or ``>>>`` reads its operands as
two's complement instead is :func:`is_signed`, the signedness rule.
:func:`substitute` / :func:`rewrite_stmts` are the
one folder: :func:`fold_params` / :func:`fold_stmts` run it at
elaboration with parameters as bare literals, the optimiser
(:mod:`repro.codegen.optplan`) with proven-constant wires as sized
ones, so a folded expression is bit-identical to the unfolded one.
``$signed`` / ``$unsigned`` wrappers block folding (their signedness
changes how an *enclosing* compare or shift lowers).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

from . import ast_nodes as ast
from .errors import CodegenError, ElaborationError, WidthError

WidthLookup = Callable[[str], Optional[int]]  # name -> width, None: unknown
# (name, line) -> the literal standing for that name, None: not constant
LiteralOf = Callable[[str, int], Optional[ast.Num]]


def eval_const(expr: ast.Expr, env: Dict[str, int]) -> int:
    """Evaluate ``expr`` to an int using parameter values in ``env``.

    Raises :class:`ElaborationError` if the expression references
    anything that is not a parameter (i.e. is not compile-time
    constant).
    """
    if isinstance(expr, ast.Num):
        return expr.value
    if isinstance(expr, ast.Id):
        if expr.name in env:
            return env[expr.name]
        raise ElaborationError(
            f"{expr.name!r} is not a constant (not a parameter)", expr.line
        )
    if isinstance(expr, ast.Unary):
        val = eval_const(expr.operand, env)
        if expr.op == "-":
            return -val
        if expr.op == "~":
            return ~val
        if expr.op == "!":
            return 0 if val else 1
        raise ElaborationError(
            f"reduction {expr.op!r} not allowed in constant expression", expr.line
        )
    if isinstance(expr, ast.Binary):
        left = eval_const(expr.left, env)
        right = eval_const(expr.right, env)
        return _apply_const_binary(expr.op, left, right, expr.line)
    if isinstance(expr, ast.Ternary):
        return (
            eval_const(expr.if_true, env)
            if eval_const(expr.cond, env)
            else eval_const(expr.if_false, env)
        )
    if isinstance(expr, ast.SysCall) and expr.func == "$clog2":
        val = eval_const(expr.args[0], env)
        return max(val - 1, 0).bit_length()
    raise ElaborationError("expression is not compile-time constant", expr.line)


def _apply_const_binary(op: str, left: int, right: int, line: int) -> int:
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ElaborationError("division by zero in constant expression", line)
        return left // right
    if op == "%":
        if right == 0:
            raise ElaborationError("modulo by zero in constant expression", line)
        return left % right
    if op in ("<<", "<<<"):
        return left << right
    if op in (">>", ">>>"):
        return left >> right
    if op == "&":
        return left & right
    if op == "|":
        return left | right
    if op == "^":
        return left ^ right
    if op == "==":
        return int(left == right)
    if op == "!=":
        return int(left != right)
    if op == "<":
        return int(left < right)
    if op == "<=":
        return int(left <= right)
    if op == ">":
        return int(left > right)
    if op == ">=":
        return int(left >= right)
    if op == "&&":
        return int(bool(left) and bool(right))
    if op == "||":
        return int(bool(left) or bool(right))
    raise ElaborationError(f"operator {op!r} not allowed in constant expression", line)


# ----------------------------------------------------------------------------
# The runtime expression rule: widths, literals and the folder
# ----------------------------------------------------------------------------


def mask_of(width: int) -> int:
    return (1 << width) - 1


def num_width(num: ast.Num) -> int:
    """A sized literal has its width; a bare decimal is 32 bits, or as
    many as its magnitude needs."""
    if num.width is not None:
        return num.width
    return max(32, num.value.bit_length())


def num_value(num: ast.Num) -> int:
    """The masked, non-negative value the generated code holds."""
    return num.value & mask_of(num_width(num))


def const_int(expr: ast.Expr, what: str) -> int:
    """The raw value of a literal in a position that needs one (a
    replication count, a part-select bound)."""
    if isinstance(expr, ast.Num):
        return expr.value
    raise CodegenError(f"{what} must be constant", getattr(expr, "line", 0))


_ONE_BIT_BINARY = frozenset(
    ("==", "!=", "===", "!==", "<", "<=", ">", ">=", "&&", "||"))
_SHIFTS = frozenset(("<<", ">>", ">>>", "<<<"))


def width_of(expr: ast.Expr, signal_width: WidthLookup,
             memory_width: WidthLookup) -> int:
    """The width of ``expr`` in generated code (the module docstring's
    rule).  Both lookups return ``None`` for a name they do not know."""
    if isinstance(expr, ast.Num):
        return num_width(expr)
    if isinstance(expr, ast.Id):
        width = signal_width(expr.name)
        if width is None:
            if memory_width(expr.name) is not None:
                raise CodegenError(
                    f"memory {expr.name!r} used without an index", expr.line
                )
            raise CodegenError(f"unknown signal {expr.name!r}", expr.line)
        return width
    if isinstance(expr, ast.Unary):
        if expr.op in ("!", "&", "|", "^"):
            return 1
        return width_of(expr.operand, signal_width, memory_width)
    if isinstance(expr, ast.Binary):
        if expr.op in _ONE_BIT_BINARY:
            return 1
        left = width_of(expr.left, signal_width, memory_width)
        if expr.op in _SHIFTS:
            return left
        return max(left, width_of(expr.right, signal_width, memory_width))
    if isinstance(expr, ast.Ternary):
        return max(width_of(expr.if_true, signal_width, memory_width),
                   width_of(expr.if_false, signal_width, memory_width))
    if isinstance(expr, ast.Concat):
        return sum(width_of(p, signal_width, memory_width)
                   for p in expr.parts)
    if isinstance(expr, ast.Repl):
        count = const_int(expr.count, "replication count")
        if count < 1:
            raise WidthError(
                f"replication count must be >= 1, got {count}", expr.line
            )
        return count * width_of(expr.value, signal_width, memory_width)
    if isinstance(expr, ast.Index):
        mem_width = memory_width(expr.base)
        return mem_width if mem_width is not None else 1
    if isinstance(expr, ast.Slice):
        msb = const_int(expr.msb, "slice msb")
        lsb = const_int(expr.lsb, "slice lsb")
        if msb < lsb:
            raise WidthError(f"slice [{msb}:{lsb}] is reversed", expr.line)
        return msb - lsb + 1
    if isinstance(expr, ast.IndexedPart):
        width = const_int(expr.width, "indexed part width")
        if width < 0:  # a negative parameter; mask_of would not survive it
            raise WidthError(
                f"indexed part width must be >= 0, got {width}", expr.line
            )
        return width
    if isinstance(expr, ast.SysCall):
        if expr.func in ("$signed", "$unsigned"):
            return width_of(expr.args[0], signal_width, memory_width)
        if expr.func == "$clog2":
            return 32
    raise CodegenError(f"cannot size {type(expr).__name__}",
                       getattr(expr, "line", 0))


def is_signed(expr: ast.Expr) -> bool:
    """``$signed(x)``, or a ternary with two signed arms.  Signedness
    changes ``<``, ``<=``, ``>``, ``>=`` (both operands signed) and
    ``>>>`` (left operand signed) only."""
    if isinstance(expr, ast.SysCall) and expr.func == "$signed":
        return True
    if isinstance(expr, ast.Ternary):
        return is_signed(expr.if_true) and is_signed(expr.if_false)
    return False


def fold_unary(op: str, operand: ast.Num, line: int) -> Optional[ast.Num]:
    """``op`` applied to a literal, as the generated code computes it
    (``None``: not an operator this folds)."""
    width, value = num_width(operand), num_value(operand)
    if op in ("~", "-"):
        result = ~value if op == "~" else -value
        return ast.Num(value=result & mask_of(width), width=width, line=line)
    bit = {"!": not value, "&": value == mask_of(width), "|": value != 0,
           "^": bin(value).count("1") & 1}.get(op)
    return None if bit is None else ast.Num(value=int(bit), width=1, line=line)


def fold_binary(op: str, left: ast.Num, right: ast.Num,
                line: int) -> Optional[ast.Num]:
    """``left op right`` over two literals, as the generated code
    computes it: on masked non-negative values, at the rule's width.
    Literals are unsigned (signedness needs a ``$signed`` node, and
    those block folding), so ``>>>`` is ``>>``."""
    lv, rv = num_value(left), num_value(right)
    if op in _ONE_BIT_BINARY:
        bit = {"==": lv == rv, "===": lv == rv, "!=": lv != rv,
               "!==": lv != rv, "<": lv < rv, "<=": lv <= rv, ">": lv > rv,
               ">=": lv >= rv, "&&": lv and rv, "||": lv or rv}[op]
        return ast.Num(value=int(bool(bit)), width=1, line=line)
    width = num_width(left)
    if op in ("<<", "<<<"):
        value = (lv << rv) & mask_of(width) if rv <= width else 0
    elif op in (">>", ">>>"):
        value = lv >> rv
    else:
        width = max(width, num_width(right))
        if op == "/":
            value = lv // rv if rv else mask_of(width)
        elif op == "%":
            value = lv % rv if rv else lv
        else:
            table = {"+": lv + rv, "-": lv - rv, "*": lv * rv,
                     "&": lv & rv, "|": lv | rv, "^": lv ^ rv}
            if op not in table:
                return None
            value = table[op] & mask_of(width)
    return ast.Num(value=value, width=width, line=line)


def _nums(*nodes: ast.Expr) -> bool:
    for node in nodes:
        if not isinstance(node, ast.Num):
            return False
    return True


def substitute(expr: ast.Expr, literal_of: LiteralOf) -> ast.Expr:
    """Rebuild ``expr`` with every name ``literal_of(name, line)`` knows
    replaced by that literal and the constant subtrees this creates
    collapsed.  Returns a new tree (or ``expr`` itself when nothing
    applies); never mutates."""
    if isinstance(expr, ast.Num):
        return expr
    if isinstance(expr, ast.Id):
        return literal_of(expr.name, expr.line) or expr
    if isinstance(expr, ast.Unary):
        operand = substitute(expr.operand, literal_of)
        if isinstance(operand, ast.Num):
            folded = fold_unary(expr.op, operand, expr.line)
            if folded is not None:
                return folded
        return ast.Unary(op=expr.op, operand=operand, line=expr.line)
    if isinstance(expr, ast.Binary):
        left = substitute(expr.left, literal_of)
        right = substitute(expr.right, literal_of)
        if isinstance(left, ast.Num) and isinstance(right, ast.Num):
            folded = fold_binary(expr.op, left, right, expr.line)
            if folded is not None:
                return folded
        return ast.Binary(op=expr.op, left=left, right=right, line=expr.line)
    if isinstance(expr, ast.Ternary):
        cond = substitute(expr.cond, literal_of)
        if_true = substitute(expr.if_true, literal_of)
        if_false = substitute(expr.if_false, literal_of)
        if _nums(cond, if_true, if_false):
            # Ternary width is max(arms); keep it on the survivor.
            width = max(num_width(if_true), num_width(if_false))
            chosen = if_true if num_value(cond) else if_false
            return ast.Num(value=num_value(chosen), width=width,
                           line=expr.line)
        return ast.Ternary(cond=cond, if_true=if_true, if_false=if_false,
                           line=expr.line)
    if isinstance(expr, ast.Concat):
        parts = [substitute(p, literal_of) for p in expr.parts]
        if _nums(*parts):
            value = total = 0
            for part in parts:
                value = (value << num_width(part)) | num_value(part)
                total += num_width(part)
            return ast.Num(value=value, width=total, line=expr.line)
        return ast.Concat(parts=parts, line=expr.line)
    if isinstance(expr, ast.Repl):
        count = substitute(expr.count, literal_of)
        value = substitute(expr.value, literal_of)
        if _nums(count, value) and count.value >= 1:
            vw = num_width(value)
            factor = sum(1 << (i * vw) for i in range(count.value))
            return ast.Num(value=num_value(value) * factor,
                           width=count.value * vw, line=expr.line)
        return ast.Repl(count=count, value=value, line=expr.line)
    if isinstance(expr, ast.Index):
        index = substitute(expr.index, literal_of)
        base = literal_of(expr.base, expr.line)
        if base and isinstance(index, ast.Num):
            return ast.Num(value=(num_value(base) >> num_value(index)) & 1,
                           width=1, line=expr.line)
        return ast.Index(base=expr.base, index=index, line=expr.line)
    if isinstance(expr, ast.Slice):
        msb = substitute(expr.msb, literal_of)
        lsb = substitute(expr.lsb, literal_of)
        base = literal_of(expr.base, expr.line)
        if base and _nums(msb, lsb) and msb.value >= lsb.value >= 0:
            width = msb.value - lsb.value + 1
            return ast.Num(
                value=(num_value(base) >> lsb.value) & mask_of(width),
                width=width, line=expr.line,
            )
        return ast.Slice(base=expr.base, msb=msb, lsb=lsb, line=expr.line)
    if isinstance(expr, ast.IndexedPart):
        start = substitute(expr.start, literal_of)
        width_e = substitute(expr.width, literal_of)
        base = literal_of(expr.base, expr.line)
        if base and _nums(start, width_e) and width_e.value > 0:
            width = width_e.value
            shift = (
                num_value(start) if expr.ascending
                else num_value(start) - (width - 1)
            )
            if shift >= 0:  # negative shifts fault at runtime; keep those
                return ast.Num(
                    value=(num_value(base) >> shift) & mask_of(width),
                    width=width, line=expr.line,
                )
        return ast.IndexedPart(base=expr.base, start=start, width=width_e,
                               ascending=expr.ascending, line=expr.line)
    if isinstance(expr, ast.SysCall):
        args = [substitute(a, literal_of) for a in expr.args]
        if expr.func == "$clog2" and args and isinstance(args[0], ast.Num):
            # Parameter arithmetic (eval_const's rule), a bare literal.
            return ast.Num(value=max(args[0].value - 1, 0).bit_length(),
                           line=expr.line)
        return ast.SysCall(func=expr.func, args=args, line=expr.line)
    return expr


def rewrite_stmts(stmts: List[ast.Stmt], literal_of: LiteralOf,
                  prune: bool) -> List[ast.Stmt]:
    """:func:`substitute` through a statement list.  ``prune`` also
    drops the branches a literal condition (or an all-literal ``case``)
    makes unreachable; without it every ``if`` and arm stays, condition
    folded, for the analyzer to report on."""
    out: List[ast.Stmt] = []
    for stmt in stmts:
        if isinstance(stmt, (ast.NonBlocking, ast.Blocking)):
            target = stmt.target
            out.append(type(stmt)(
                target=ast.LValue(
                    name=target.name,
                    index=_substitute_opt(target.index, literal_of),
                    msb=_substitute_opt(target.msb, literal_of),
                    lsb=_substitute_opt(target.lsb, literal_of),
                    line=target.line,
                ),
                value=substitute(stmt.value, literal_of),
                line=stmt.line,
            ))
        elif isinstance(stmt, ast.If):
            cond = substitute(stmt.cond, literal_of)
            if prune and isinstance(cond, ast.Num):
                live = stmt.then_body if num_value(cond) else stmt.else_body
                out.extend(rewrite_stmts(live, literal_of, prune))
            else:
                out.append(ast.If(
                    cond=cond,
                    then_body=rewrite_stmts(stmt.then_body, literal_of, prune),
                    else_body=rewrite_stmts(stmt.else_body, literal_of, prune),
                    line=stmt.line,
                ))
        elif isinstance(stmt, ast.Case):
            subject = substitute(stmt.subject, literal_of)
            arms = [
                ([substitute(lbl, literal_of) for lbl in labels], body)
                for labels, body in stmt.arms
            ]
            all_labels = [lbl for labels, _ in arms for lbl in labels]
            if prune and _nums(subject, *all_labels):
                out.extend(rewrite_stmts(
                    _taken_arm(num_value(subject), arms), literal_of, prune
                ))
            else:
                out.append(ast.Case(
                    subject=subject,
                    arms=[
                        (labels, rewrite_stmts(body, literal_of, prune))
                        for labels, body in arms
                    ],
                    line=stmt.line,
                ))
        else:
            out.append(stmt)
    return out


def _substitute_opt(expr: Optional[ast.Expr],
                    literal_of: LiteralOf) -> Optional[ast.Expr]:
    return substitute(expr, literal_of) if expr is not None else None


def _taken_arm(subject: int, arms) -> List[ast.Stmt]:
    """The body an all-literal ``case`` runs: the first arm with a
    matching label, else the default, else nothing."""
    default: List[ast.Stmt] = []
    for labels, body in arms:
        if not labels:
            default = body
        elif any(num_value(lbl) == subject for lbl in labels):
            return body
    return default


def _param_literals(env: Dict[str, int]) -> LiteralOf:
    """Parameters as bare literals (``num_width`` sizes them)."""
    def literal_of(name: str, line: int) -> Optional[ast.Num]:
        return ast.Num(value=env[name], line=line) if name in env else None
    return literal_of


def fold_params(expr: ast.Expr, env: Dict[str, int]) -> ast.Expr:
    """Return a copy of ``expr`` with parameter references replaced by
    literals and constant subtrees collapsed."""
    return substitute(expr, _param_literals(env))


def fold_stmts(stmts: List[ast.Stmt], env: Dict[str, int]) -> List[ast.Stmt]:
    """Parameter-fold every expression inside a statement list."""
    return rewrite_stmts(stmts, _param_literals(env), prune=False)


def expr_reads(expr: ast.Expr) -> Set[str]:
    """Names of signals/memories read by ``expr`` (after folding)."""
    reads: Set[str] = set()
    _collect_reads(expr, reads)
    return reads


def _collect_reads(expr: ast.Expr, out: Set[str]) -> None:
    if isinstance(expr, ast.Num):
        return
    if isinstance(expr, ast.Id):
        out.add(expr.name)
    elif isinstance(expr, ast.Unary):
        _collect_reads(expr.operand, out)
    elif isinstance(expr, ast.Binary):
        _collect_reads(expr.left, out)
        _collect_reads(expr.right, out)
    elif isinstance(expr, ast.Ternary):
        _collect_reads(expr.cond, out)
        _collect_reads(expr.if_true, out)
        _collect_reads(expr.if_false, out)
    elif isinstance(expr, ast.Concat):
        for part in expr.parts:
            _collect_reads(part, out)
    elif isinstance(expr, ast.Repl):
        _collect_reads(expr.count, out)
        _collect_reads(expr.value, out)
    elif isinstance(expr, ast.Index):
        out.add(expr.base)
        _collect_reads(expr.index, out)
    elif isinstance(expr, ast.Slice):
        out.add(expr.base)
        _collect_reads(expr.msb, out)
        _collect_reads(expr.lsb, out)
    elif isinstance(expr, ast.IndexedPart):
        out.add(expr.base)
        _collect_reads(expr.start, out)
        _collect_reads(expr.width, out)
    elif isinstance(expr, ast.SysCall):
        for arg in expr.args:
            _collect_reads(arg, out)


def stmt_reads_writes(stmts: Iterable[ast.Stmt]) -> "tuple[Set[str], Set[str]]":
    """Signals read / written by a statement list (conservative)."""
    reads: Set[str] = set()
    writes: Set[str] = set()
    _walk_stmts(list(stmts), reads, writes)
    return reads, writes


def _walk_stmts(stmts: List[ast.Stmt], reads: Set[str], writes: Set[str]) -> None:
    for stmt in stmts:
        if isinstance(stmt, (ast.NonBlocking, ast.Blocking)):
            writes.add(stmt.target.name)
            _collect_reads(stmt.value, reads)
            if stmt.target.index is not None:
                _collect_reads(stmt.target.index, reads)
            if stmt.target.msb is not None:
                _collect_reads(stmt.target.msb, reads)
            if stmt.target.lsb is not None:
                _collect_reads(stmt.target.lsb, reads)
        elif isinstance(stmt, ast.If):
            _collect_reads(stmt.cond, reads)
            _walk_stmts(stmt.then_body, reads, writes)
            _walk_stmts(stmt.else_body, reads, writes)
        elif isinstance(stmt, ast.Case):
            _collect_reads(stmt.subject, reads)
            for labels, body in stmt.arms:
                for label in labels:
                    _collect_reads(label, reads)
                _walk_stmts(body, reads, writes)
