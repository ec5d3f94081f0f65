"""Per-module optimization plans and how codegen applies their constants.

The optimization passes (:mod:`repro.passes.optimize`) write one
:class:`OptPlan` per specialization (constprop starts it, deadlogic and
sensitivity refine it); codegen consumes it without ever mutating the
shared :class:`~repro.ir.netlist.ModuleIR` (which analyzer caches and
pickled artifacts alias).

The two transforms are :mod:`repro.hdl.consteval`'s folder with the
plan's constants as *sized* literals (each carries the width the
replaced read had) and unreachable branches pruned.  Codegen asks the
plan for them (:meth:`OptPlan.expr`, :meth:`OptPlan.body`); a build with
nothing to apply compiles under :data:`NO_OPT`.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from ..hdl import ast_nodes as ast
from ..hdl.consteval import LiteralOf, rewrite_stmts, substitute


class OptPlan(NamedTuple):
    """Everything codegen needs to emit the optimized variant.

    * ``consts`` — comb wires proven constant; reads are replaced with
      sized literals (values already masked to the declared width).
    * ``dead_assigns`` / ``dead_blocks`` — schedule-index sets whose
      results nothing live reads; their emission is skipped.
    * ``skip_children`` — instance indices whose subtree is pure
      (stateless): their ``cycle`` calls are elided.
    """

    consts: Dict[str, int] = {}  # shared defaults: a plan is never written
    const_widths: Dict[str, int] = {}
    dead_assigns: Tuple[int, ...] = ()
    dead_blocks: Tuple[int, ...] = ()
    skip_children: Tuple[int, ...] = ()

    @property
    def is_noop(self) -> bool:
        """Whether the plan rewrites nothing codegen emits (a skipped
        child is a call left out, not a rewrite)."""
        return (
            not self.consts
            and not self.dead_assigns
            and not self.dead_blocks
        )

    def expr(self, expr: ast.Expr) -> ast.Expr:
        """The expression codegen emits for ``expr``: constants
        substituted and folded, or ``expr`` itself under a no-op plan."""
        if self.is_noop:
            return expr
        return substitute_expr(expr, self.consts, self.const_widths)

    def body(self, stmts: List[ast.Stmt]) -> List[ast.Stmt]:
        """The statements codegen emits for a block body: constants
        substituted and static branches pruned (also with no constants:
        an ``if (1)`` goes), or ``stmts`` itself under a no-op plan."""
        if self.is_noop:
            return stmts
        return optimize_stmts(stmts, self.consts, self.const_widths)


# Nothing to apply: what a clean build and ``opt=none`` compile under.
NO_OPT = OptPlan()


def _sized_literals(consts: Dict[str, int], widths: Dict[str, int]) -> LiteralOf:
    def literal_of(name: str, line: int) -> Optional[ast.Num]:
        if name in consts:
            return ast.Num(value=consts[name], width=widths[name], line=line)
        return None
    return literal_of


def substitute_expr(
    expr: ast.Expr, consts: Dict[str, int], widths: Dict[str, int]
) -> ast.Expr:
    """Replace reads of constant signals with sized literals and
    collapse the constant subtrees that creates."""
    return substitute(expr, _sized_literals(consts, widths))


def optimize_stmts(
    stmts: List[ast.Stmt], consts: Dict[str, int], widths: Dict[str, int]
) -> List[ast.Stmt]:
    """Substitute constants through a statement body and drop branches
    whose condition folds to a literal.  Codegen (the code that is
    emitted) and the dead-logic pass (the reads that remain) both call
    this."""
    return rewrite_stmts(stmts, _sized_literals(consts, widths), prune=True)
