"""Where a continuous assign is evaluated: at its schedule position, or
only on the paths that read it (mux shadowing).

A generated function (``eval_out`` or ``cycle``, :mod:`pygen`) may move
a pure continuous assign out of its schedule position when every read
of it in that function is *guarded* and no two of the reads can run on
one path.  The value is then written where it is read instead, as the
code it would have assigned, so a cycle that takes none of those paths
never computes it.  A guarded position is one the generated code only
reaches through a branch that :mod:`exprgen` already writes:

* an arm of an ``if`` or ``case`` statement;
* an arm of ``?:`` (in the ``branch`` mux style; ``select`` evaluates
  both arms);
* the right operand of ``&&`` or ``||``.

:class:`PathReads` lists every read of the code generated for an
expression or a statement list together with its *path*: the guards
around it, from the outside in, each as ``(guard, arm)``.  Two reads
are :func:`exclusive` when their paths part at one guard, in two of its
arms.  A read the generated code might reach by a branch this module
does not model (a ``case`` label, the dividend of ``/``) counts as
unguarded, which only ever keeps a value in place.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Sequence, Tuple

from ..hdl import ast_nodes as ast

Path = Tuple[Tuple[int, int], ...]
Read = Tuple[str, Path]

# Bounds on what a move may cost in generated text: a value is written
# at most MAX_COPIES times (one per read), and a value written inside
# another written inside another ... at most MAX_DEPTH deep, which keeps
# a long chain of moves within the parser's nesting limits.
MAX_COPIES = 16
MAX_DEPTH = 8


def exclusive(a: Path, b: Path) -> bool:
    """Whether no run takes both paths: they part at one guard, in two
    of its arms (paths that part at two guards, or where one extends
    the other, can both run)."""
    for (guard_a, arm_a), (guard_b, arm_b) in zip(a, b):
        if guard_a != guard_b:
            return False
        if arm_a != arm_b:
            return True
    return False


def all_exclusive(paths: Sequence[Path]) -> bool:
    """Whether every two of ``paths`` are :func:`exclusive`."""
    return all(
        exclusive(a, paths[j])
        for i, a in enumerate(paths) for j in range(i + 1, len(paths))
    )


class PathReads:
    """The reads of generated code, each with its path.

    ``branch`` is the build's mux style (``"branch"``: a ``?:`` arm is
    guarded).  Guard numbers are unique across every call on one
    instance, so two units never share a guard; the copies of a moved
    value share its own guards, each behind the path of its place.
    """

    def __init__(self, branch: bool):
        self._branch = branch
        self._guards = itertools.count()

    def expr(self, expr: ast.Expr) -> List[Read]:
        out: List[Read] = []
        self._expr(expr, (), out)
        return out

    def stmts(self, stmts: List[ast.Stmt]) -> List[Read]:
        out: List[Read] = []
        self._stmts(stmts, (), out)
        return out

    def _arms(self, path: Path, count: int) -> List[Path]:
        guard = next(self._guards)
        return [path + ((guard, arm),) for arm in range(count)]

    def _expr(self, expr: ast.Expr, path: Path, out: List[Read]) -> None:
        if isinstance(expr, ast.Id):
            out.append((expr.name, path))
        elif isinstance(expr, ast.Unary):
            self._expr(expr.operand, path, out)
        elif isinstance(expr, ast.Binary):
            self._expr(expr.left, path, out)
            if expr.op in ("&&", "||"):
                (path,) = self._arms(path, 1)
            self._expr(expr.right, path, out)
        elif isinstance(expr, ast.Ternary):
            self._expr(expr.cond, path, out)
            if_true = if_false = path
            if self._branch:
                if_true, if_false = self._arms(path, 2)
            self._expr(expr.if_true, if_true, out)
            self._expr(expr.if_false, if_false, out)
        elif isinstance(expr, ast.Concat):
            for part in expr.parts:
                self._expr(part, path, out)
        elif isinstance(expr, ast.Repl):
            self._expr(expr.value, path, out)
        elif isinstance(expr, ast.Index):
            out.append((expr.base, path))
            self._expr(expr.index, path, out)
        elif isinstance(expr, (ast.Slice, ast.IndexedPart)):
            out.append((expr.base, path))
            if isinstance(expr, ast.IndexedPart):
                self._expr(expr.start, path, out)
        elif isinstance(expr, ast.SysCall):
            for arg in expr.args:
                self._expr(arg, path, out)

    def _stmts(self, stmts: List[ast.Stmt], path: Path,
               out: List[Read]) -> None:
        """As :class:`~repro.codegen.exprgen.StmtGen` writes them."""
        for stmt in stmts:
            if isinstance(stmt, (ast.NonBlocking, ast.Blocking)):
                self._expr(stmt.value, path, out)
                if stmt.target.index is not None:
                    self._expr(stmt.target.index, path, out)
            elif isinstance(stmt, ast.If):
                if (isinstance(stmt.cond, ast.Num) and stmt.cond.value == 1
                        and not stmt.else_body):
                    self._stmts(stmt.then_body, path, out)  # no branch
                    continue
                self._expr(stmt.cond, path, out)
                then_path, else_path = self._arms(path, 2)
                self._stmts(stmt.then_body, then_path, out)
                self._stmts(stmt.else_body, else_path, out)
            elif isinstance(stmt, ast.Case):
                self._expr(stmt.subject, path, out)
                labelled = [body for labels, body in stmt.arms if labels]
                default = [body for labels, body in stmt.arms if not labels]
                for labels, _ in stmt.arms:
                    for label in labels:
                        self._expr(label, path, out)
                if not labelled:  # a lone default is written unguarded
                    self._stmts(default[-1] if default else [], path, out)
                    continue
                bodies = labelled + default[-1:]
                for body, arm in zip(bodies, self._arms(path, len(bodies))):
                    self._stmts(body, arm, out)


def carries_hook(expr: ast.Expr, hooked: Callable[..., bool]) -> bool:
    """Whether a sanitized build writes a hook into the code of
    ``expr``: a read ``hooked(name)`` accepts (a register: ``rr``), or
    an indexed read ``hooked(name, index)`` accepts (a memory word:
    ``mr``; a dynamic select index: ``ob``)."""
    if isinstance(expr, ast.Id):
        return hooked(expr.name)
    if isinstance(expr, ast.Unary):
        return carries_hook(expr.operand, hooked)
    if isinstance(expr, ast.Binary):
        return (carries_hook(expr.left, hooked)
                or carries_hook(expr.right, hooked))
    if isinstance(expr, ast.Ternary):
        return any(carries_hook(part, hooked)
                   for part in (expr.cond, expr.if_true, expr.if_false))
    if isinstance(expr, ast.Concat):
        return any(carries_hook(part, hooked) for part in expr.parts)
    if isinstance(expr, ast.Repl):
        return carries_hook(expr.value, hooked)
    if isinstance(expr, ast.Index):
        return hooked(expr.base, expr.index) or carries_hook(expr.index, hooked)
    if isinstance(expr, ast.Slice):
        return hooked(expr.base)
    if isinstance(expr, ast.IndexedPart):
        return (hooked(expr.base) or not isinstance(expr.start, ast.Num)
                or carries_hook(expr.start, hooked))
    if isinstance(expr, ast.SysCall):
        return any(carries_hook(arg, hooked) for arg in expr.args)
    return False
