"""Expression and statement code generation.

Both generators (shared-module :mod:`pygen` and flattened
:mod:`flatgen`) lower expressions through this module; they differ only
in how signal names resolve to Python references, which is abstracted
behind :class:`Resolver`.

Value invariant: every generated sub-expression evaluates to a Python
int already masked to the node's width (non-negative, ``< 2**width``).
A place that only tests a value (an ``if``, a ``?:`` condition, an
operand of ``&&`` / ``||`` / ``!``) takes :meth:`ExprGen.test` instead:
``a == b``, ``a and b``, ``not a``, where the value would be
``1 if a == b else 0``.

The width of every node is :func:`repro.hdl.consteval.width_of` (a
documented deviation set from full Verilog, chosen to be predictable;
the rule is written out there and nowhere else).  ``$signed`` changes
interpretation for ``<``, ``<=``, ``>``, ``>=`` and ``>>>`` only; both
comparison operands must be signed (:func:`repro.hdl.consteval.is_signed`).

``x / 0`` is all-ones and ``x % 0`` is ``x`` (Verilog would give X; this
simulator has no X state).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..hdl import ast_nodes as ast
from ..hdl.consteval import const_int, is_signed, mask_of, num_value, width_of
from ..hdl.errors import CodegenError
from .emitter import FunctionEmitter, block


class Resolver:
    """Maps signal/memory names to Python references for one scope.

    ``hooks`` is the one optional instrumentation object (a sanitized
    build's :class:`repro.sanitize.instrument.Instrumenter`); None
    generates the clean code.  Expressions call three of its methods:

    * ``reg_read(name, ref_code, line)`` — wrap a register read;
      return the replacement expression, or None to keep ``ref_code``.
    * ``mem_read(name, index_code, width, line)`` — replace an indexed
      memory read at a ``width``-bit index entirely (bound + word-poison
      checked access).
    * ``index_bound(name, index_code, width, bound, line)`` — wrap a
      dynamic bit/part-select index, ``width`` bits wide, with a bound
      check.

    ``inlined`` maps a comb local the scope writes at its reads (see
    :mod:`repro.codegen.sinking`) to the code it would have assigned
    and, when that is the 0/1 of a test, the bare test
    (:meth:`ExprGen.forms`); a read of it is that code, a test of it
    that test.  The generator fills it as it goes.
    """

    def __init__(
        self,
        signal_ref: Callable[[str], str],
        signal_width: Callable[[str], Optional[int]],
        memory_ref: Callable[[str], Optional[str]],
        memory_width: Callable[[str], int],
        memory_depth: Callable[[str], int],
        hooks: Optional[object] = None,
        inlined: Optional[Dict[str, Tuple["Code", Optional["Code"]]]] = None,
    ):
        self.signal_ref = signal_ref
        self.signal_width = signal_width
        self.memory_ref = memory_ref
        self.memory_width = memory_width
        self.memory_depth = memory_depth
        self.hooks = hooks
        self.inlined = {} if inlined is None else inlined


# Python's binding strengths, loosest first.  Every generated piece of
# code carries the strength of its outermost operator (:data:`Code`),
# and :func:`paren` parenthesizes an operand only when it binds more
# loosely than its place needs.  ``:=`` is always parenthesized, and a
# comparison operand binds tighter than any comparison, so neither
# chains nor walruses change meaning.
(COND, OR, AND, NOT, CMP, BOR, BXOR, BAND, SHIFT, ARITH, TERM, UNARY,
 ATOM) = range(13)
Code = Tuple[str, int]


def paren(code: Code, need: int) -> str:
    """``code``'s text, parenthesized when it binds more loosely than
    ``need`` (the strength its place requires)."""
    text, strength = code
    return text if strength >= need else f"({text})"


class ExprGen:
    """Generates masked Python expressions from LHDL expression trees.

    Text is written with the parentheses Python's precedence needs and
    no others: every method below builds a :data:`Code` and places its
    operands with :func:`paren`, so the generated module parses to the
    same Python AST (and bytecode) as a fully parenthesized spelling,
    with less for ``compile()`` to read.  Hook replacements (a sanitized
    build's) count as a conditional expression, the loosest strength.
    """

    def __init__(self, resolver: Resolver, emitter: FunctionEmitter,
                 mux_style: str = "branch"):
        """``mux_style`` selects how ternaries lower:

        * ``"branch"`` — LiveSim's style: conditional expressions that
          branch (paper §V-A: "groups muxes with the same condition
          into if-else blocks"; more branches, fewer data reads).
        * ``"select"`` — Verilator-like: evaluate both arms and select
          arithmetically (no branch, more evaluated ops).
        """
        self._resolver = resolver
        self._emitter = emitter
        self._mux_style = mux_style

    # -- width inference ----------------------------------------------------

    def width_of(self, expr: ast.Expr) -> int:
        return width_of(expr, self._resolver.signal_width,
                        self._maybe_memory_width)

    def _maybe_memory_width(self, name: str) -> Optional[int]:
        if self._resolver.memory_ref(name) is not None:
            return self._resolver.memory_width(name)
        return None

    # -- generation -----------------------------------------------------------

    def gen(self, expr: ast.Expr) -> str:
        """A Python expression for ``expr`` (masked), fit for any place
        that takes a whole expression: an assignment's right-hand side,
        an argument, a subscript."""
        return self.code(expr)[0]

    def test(self, expr: ast.Expr) -> Code:
        """A Python expression whose truth is whether ``expr`` is
        nonzero, for a place that only tests it (an ``if``, a ``?:``
        condition, an operand of ``&&`` / ``||`` / ``!``): the bare test
        where the value would be ``1 if <test> else 0``, and a branching
        ``?:`` whose arms are tests in turn."""
        truth = self._truth(expr)
        if truth is not None:
            return truth
        if isinstance(expr, ast.Ternary) and self._mux_style == "branch":
            cond = self.test(expr.cond)
            return (f"{paren(self.test(expr.if_true), OR)} if {paren(cond, OR)} "
                    f"else {self.test(expr.if_false)[0]}", COND)
        return self.code(expr)

    def forms(self, expr: ast.Expr) -> Tuple[Code, Optional[Code]]:
        """``expr``'s value and, when that value is the 0/1 of a test,
        the bare test too (None otherwise), generated once: what a comb
        local written at its reads is read as (:class:`Resolver`)."""
        truth = self._truth(expr)
        if truth is None:
            return self.code(expr), None
        return self._bit(truth), truth

    # Binary operators whose value is the 0/1 of a test.
    _COMPARE = frozenset({"==", "===", "!=", "!==", "<", "<=", ">", ">="})

    def _truth(self, expr: ast.Expr) -> Optional[Code]:
        """The bare test of an expression whose value is the 0/1 of one
        (a comparison, ``&&``, ``||``, ``!``, a reduction ``&`` or ``|``,
        a comb local written at its reads as one), else None."""
        if isinstance(expr, ast.Binary):
            op = expr.op
            if op in self._COMPARE:
                return self._compare(expr)
            if op in ("&&", "||"):
                # Both operands bind tighter than the operator: Python
                # flattens ``a and b and c`` into one node, which the
                # fully parenthesized spelling would not.
                word, strength = ("and", AND) if op == "&&" else ("or", OR)
                left = self.test(expr.left)
                right = self.test(expr.right)
                return (f"{paren(left, strength + 1)} {word} "
                        f"{paren(right, strength + 1)}", strength)
        elif isinstance(expr, ast.Unary):
            if expr.op == "!":
                return f"not {paren(self.test(expr.operand), NOT)}", NOT
            if expr.op == "|":
                return self.test(expr.operand)
            if expr.op == "&":
                mask = mask_of(self.width_of(expr.operand))
                return f"{paren(self.code(expr.operand), BOR)} == {mask}", CMP
        elif isinstance(expr, ast.Id):
            inlined = self._resolver.inlined.get(expr.name)
            if inlined is not None:
                return inlined[1]
        return None

    @staticmethod
    def _bit(truth: Code) -> Code:
        """The 0/1 value of a bare test."""
        return f"1 if {paren(truth, OR)} else 0", COND

    def code(self, expr: ast.Expr) -> Code:
        """:meth:`gen`'s text with its strength, for an operand place."""
        if isinstance(expr, ast.Num):
            return str(num_value(expr)), ATOM
        if isinstance(expr, ast.Id):
            mem_ref = self._resolver.memory_ref(expr.name)
            if mem_ref is not None:
                raise CodegenError(
                    f"memory {expr.name!r} used without an index", expr.line
                )
            return self._signal_read(expr.name, expr.line)
        if isinstance(expr, ast.Unary):
            return self._gen_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._gen_binary(expr)
        if isinstance(expr, ast.Ternary):
            return self._gen_ternary(expr)
        if isinstance(expr, ast.Concat):
            return self._gen_concat(expr)
        if isinstance(expr, ast.Repl):
            return self._gen_repl(expr)
        if isinstance(expr, ast.Index):
            return self._gen_index(expr)
        if isinstance(expr, ast.Slice):
            return self._gen_slice(expr)
        if isinstance(expr, ast.IndexedPart):
            return self._gen_indexed_part(expr)
        if isinstance(expr, ast.SysCall):
            if expr.func in ("$signed", "$unsigned"):
                return self.code(expr.args[0])
            raise CodegenError(f"non-constant {expr.func} call", expr.line)
        raise CodegenError(f"cannot generate {type(expr).__name__}",
                           getattr(expr, "line", 0))

    def _signal_read(self, name: str, line: int) -> Code:
        """Resolve a signal read, routed through the register-read hook
        when hooks are installed; an inlined local is its code."""
        inlined = self._resolver.inlined.get(name)
        if inlined is not None:
            return inlined[0]
        ref = self._resolver.signal_ref(name)
        hooks = self._resolver.hooks
        if hooks is not None:
            wrapped = hooks.reg_read(name, ref, line)
            if wrapped is not None:
                return wrapped, COND
        return ref, ATOM

    @staticmethod
    def _sext(code: Code, width: int) -> Code:
        """Sign-extend a masked ``width``-bit value to a Python int."""
        if width <= 0:
            return code
        sign = 1 << (width - 1)
        return f"({paren(code, BXOR)} ^ {sign}) - {sign}", ARITH

    def _gen_unary(self, expr: ast.Unary) -> Code:
        if expr.op in ("!", "&", "|"):
            return self._bit(self._truth(expr))
        operand = self.code(expr.operand)
        if expr.op in ("~", "-"):
            mask = mask_of(self.width_of(expr.operand))
            return f"{expr.op}{paren(operand, UNARY)} & {mask}", BAND
        if expr.op == "^":
            return f"bin({operand[0]}).count('1') & 1", BAND
        raise CodegenError(f"unknown unary {expr.op!r}", expr.line)

    # Associative ops whose chains flatten into one expression.  This
    # matters beyond aesthetics: a 256-term reduction (e.g. the
    # all-halted AND of a 256-core mesh) would otherwise nest past
    # CPython's parenthesis limit.  Masking distributes over + and *
    # modulo 2**w only when every node in the chain has the same width
    # w, so those chains stop at any sub-node of a narrower width (its
    # mask drops carry bits the wider sum must not see, e.g. the inner
    # add of ``c + (a + a)`` with 8-bit ``a`` and 16-bit ``c``).
    # Bitwise chains can't carry past their operands' widths, so they
    # flatten unconditionally.  The strength each operator binds at:
    _STRENGTH = {"+": ARITH, "-": ARITH, "*": TERM, "&": BAND, "|": BOR,
                 "^": BXOR}
    _FLATTENABLE = frozenset({"+", "*", "&", "|", "^"})

    def _collect_chain(
        self,
        expr: ast.Expr,
        op: str,
        out: List[ast.Expr],
        width: Optional[int] = None,
    ) -> None:
        if (
            isinstance(expr, ast.Binary)
            and expr.op == op
            and (width is None or self.width_of(expr) == width)
        ):
            self._collect_chain(expr.left, op, out, width)
            self._collect_chain(expr.right, op, out, width)
        else:
            out.append(expr)

    def _chain(self, op: str, operands: List[Code]) -> Code:
        """``op`` over ``operands``, left-associated: the first operand
        may bind as loosely as ``op``, the rest must bind tighter."""
        strength = self._STRENGTH[op]
        first, *rest = operands
        text = paren(first, strength)
        for operand in rest:
            text += f" {op} {paren(operand, strength + 1)}"
        return text, strength

    @staticmethod
    def _masked(code: Code, mask: int) -> Code:
        return f"{paren(code, BAND)} & {mask}", BAND

    def _gen_binary(self, expr: ast.Binary) -> Code:
        op = expr.op
        if op in self._COMPARE or op in ("&&", "||"):
            return self._bit(self._truth(expr))
        if op in self._FLATTENABLE:
            operands: List[ast.Expr] = []
            chain_width = self.width_of(expr) if op in ("+", "*") else None
            self._collect_chain(expr, op, operands, chain_width)
            if len(operands) > 2:
                width = max(self.width_of(o) for o in operands)
                joined = self._chain(op, [self.code(o) for o in operands])
                if op in ("+", "*"):
                    return self._masked(joined, mask_of(width))
                return joined
        left = self.code(expr.left)
        right = self.code(expr.right)
        wl = self.width_of(expr.left)
        wr = self.width_of(expr.right)
        result_mask = mask_of(max(wl, wr))
        if op in ("+", "-", "*"):
            return self._masked(self._chain(op, [left, right]), result_mask)
        if op == "/":
            tmp = self._emitter.fresh("div")
            return (f"{paren(left, TERM)} // {tmp} if ({tmp} := {right[0]}) "
                    f"else {result_mask}", COND)
        if op == "%":
            tmp = self._emitter.fresh("mod")
            return (f"{paren(left, TERM)} % {tmp} if ({tmp} := {right[0]}) "
                    f"else {left[0]}", COND)
        if op in ("<<", "<<<"):
            shift_cap = wl + 1
            tmp = self._emitter.fresh("sh")
            return (
                f"{paren(left, SHIFT)} << {tmp} & {mask_of(wl)}"
                f" if ({tmp} := {right[0]}) < {shift_cap} else 0", COND
            )
        if op == ">>" or (op == ">>>" and not is_signed(expr.left)):
            return f"{paren(left, SHIFT)} >> {paren(right, ARITH)}", SHIFT
        if op == ">>>":
            return self._masked(
                (f"{paren(self._sext(left, wl), SHIFT)} >> "
                 f"{paren(right, ARITH)}", SHIFT), mask_of(wl))
        if op in ("&", "|", "^"):
            return self._chain(op, [left, right])
        raise CodegenError(f"unknown binary {op!r}", expr.line)

    def _compare(self, expr: ast.Binary) -> Code:
        """The bare test of a comparison."""
        op = expr.op
        left = self.code(expr.left)
        right = self.code(expr.right)
        if op in ("<", "<=", ">", ">=") and (
                is_signed(expr.left) and is_signed(expr.right)):
            left = self._sext(left, self.width_of(expr.left))
            right = self._sext(right, self.width_of(expr.right))
        compare = op[:2] if op[0] in "=!" else op
        return f"{paren(left, BOR)} {compare} {paren(right, BOR)}", CMP

    def _gen_ternary(self, expr: ast.Ternary) -> Code:
        cond = self.test(expr.cond)
        if_true = self.code(expr.if_true)
        if_false = self.code(expr.if_false)
        if self._mux_style == "branch":
            return (f"{paren(if_true, OR)} if {paren(cond, OR)} "
                    f"else {if_false[0]}", COND)
        # Arithmetic select: evaluate both arms, pick by multiplication
        # (the Verilator-like no-branch lowering).
        width = max(self.width_of(expr.if_true), self.width_of(expr.if_false))
        sel = self._emitter.fresh("sel")
        return self._masked((
            f"{paren(if_true, TERM)} * ({sel} := 1 if {paren(cond, OR)} "
            f"else 0) + {paren(if_false, TERM)} * (1 - {sel})", ARITH,
        ), mask_of(width))

    def _gen_concat(self, expr: ast.Concat) -> Code:
        parts: List[Code] = []
        widths = [self.width_of(p) for p in expr.parts]
        total = sum(widths)
        offset = total
        for part, width in zip(expr.parts, widths):
            offset -= width
            if isinstance(part, ast.Num) and not num_value(part):
                continue  # a zero part contributes no bit
            code = self.code(part)
            if offset:
                code = f"{paren(code, SHIFT)} << {offset}", SHIFT
            parts.append(code)
        if not parts:
            return "0", ATOM
        return self._chain("|", parts) if len(parts) > 1 else parts[0]

    def _gen_repl(self, expr: ast.Repl) -> Code:
        count = const_int(expr.count, "replication count")
        value_width = self.width_of(expr.value)
        factor = sum(1 << (i * value_width) for i in range(count))
        return f"{paren(self.code(expr.value), TERM)} * {factor}", TERM

    def mem_index(self, name: str, index: Code, width: int) -> Code:
        """Index ``index``, ``width`` bits wide, of memory ``name``,
        wrapped into its depth as the clean code reads and writes it; an
        index too narrow to reach the depth needs no wrap."""
        depth = self._resolver.memory_depth(name)
        if mask_of(width) < depth:
            return index
        if depth & (depth - 1) == 0:
            return f"{paren(index, BAND)} & {depth - 1}", BAND
        return f"{paren(index, TERM)} % {depth}", TERM

    def _bound_checked(self, name: str, index: Code, bound: int,
                       index_expr: ast.Expr, line: int) -> Code:
        """Wrap a dynamic select index with the oob hook (constant
        indices are the static analyzer's domain and stay clean)."""
        hooks = self._resolver.hooks
        if hooks is None or isinstance(index_expr, ast.Num) or bound < 1:
            return index
        checked = hooks.index_bound(name, index[0],
                                    self.width_of(index_expr), bound, line)
        return index if checked == index[0] else (checked, COND)

    def _gen_index(self, expr: ast.Index) -> Code:
        mem_ref = self._resolver.memory_ref(expr.base)
        index = self.code(expr.index)
        if mem_ref is not None:
            hooks = self._resolver.hooks
            width = self.width_of(expr.index)
            if hooks is not None:
                return hooks.mem_read(expr.base, index[0], width, expr.line), COND
            wrapped = self.mem_index(expr.base, index, width)
            return f"{mem_ref}[{wrapped[0]}]", ATOM
        base = self._signal_read(expr.base, expr.line)
        width = self._resolver.signal_width(expr.base)
        if width is not None:
            index = self._bound_checked(
                expr.base, index, width, expr.index, expr.line
            )
        return f"{paren(base, SHIFT)} >> {paren(index, ARITH)} & 1", BAND

    def _gen_slice(self, expr: ast.Slice) -> Code:
        width = self.width_of(expr)  # constant bounds, not reversed
        lsb = expr.lsb.value
        base = self._signal_read(expr.base, expr.line)
        if lsb:
            base = f"{paren(base, SHIFT)} >> {lsb}", SHIFT
        return self._masked(base, mask_of(width))

    def _gen_indexed_part(self, expr: ast.IndexedPart) -> Code:
        width = self.width_of(expr)
        base = self._signal_read(expr.base, expr.line)
        start = self.code(expr.start)
        base_width = self._resolver.signal_width(expr.base)
        if base_width is not None:
            # Ascending reads [start, start+width-1]; descending reads
            # [start-width+1, start] — either way the extreme touched
            # bit must stay below the declared width.
            bound = base_width - width + 1 if expr.ascending else base_width
            start = self._bound_checked(
                expr.base, start, bound, expr.start, expr.line
            )
        if not expr.ascending:
            start = f"{paren(start, ARITH)} - {width - 1}", ARITH
        return self._masked(
            (f"{paren(base, SHIFT)} >> {paren(start, ARITH)}", SHIFT),
            mask_of(width))


class StmtGen:
    """Generates statement bodies (sequential and comb always blocks)."""

    def __init__(
        self,
        exprgen: ExprGen,
        emitter: FunctionEmitter,
        write_target: Callable[[ast.LValue, str], None],
        read_target_current: Callable[[str], str],
        is_memory: Callable[[str], bool],
        target_width: Callable[[str], int],
        mem_write: Optional[Callable[[str, str, str, int], None]] = None,
        hooks: Optional[object] = None,
        block_id: Optional[int] = None,
    ):
        """Callbacks:

        * ``write_target(lvalue, value_code)`` — full or partial signal
          assignment.
        * ``read_target_current(name)`` — current value of a target
          (for read-modify-write partial updates): a name or a
          subscript, an operand anywhere.
        * ``mem_write(name, addr_code, value_code, line)`` — memory
          word write, to an address already wrapped into the depth
          (:meth:`ExprGen.mem_index`), fit for a tuple item; None in a
          comb block, where a memory write is an error.
        * ``target_width(name)`` — declared width of a target signal.

        ``hooks`` is the resolver's instrumentation object (None: clean
        code).  Statements call three more of its methods:

        * ``trunc(value_code, declared, line, name)`` — replacement for
          the silent truncation mask; returns the complete (still
          masked) value expression.
        * ``mem_write_addr(name, addr_code, width, line)`` — wrap the
          ``width``-bit address of a memory write with a bound check.
        * ``write_note(emitter, name, mask_or_None, line, block_id)`` —
          written before each register write of sequential block
          ``block_id`` (None mask: the full declared width).  A comb
          block has no ``block_id`` and notes nothing.
        """
        self._exprgen = exprgen
        self._emitter = emitter
        self._write_target = write_target
        self._read_target_current = read_target_current
        self._mem_write = mem_write
        self._is_memory = is_memory
        self._target_width = target_width
        self._hooks = hooks
        self._block_id = block_id

    def _note_write(self, name: str, mask: Optional[int], line: int) -> None:
        if self._hooks is not None and self._block_id is not None:
            self._hooks.write_note(
                self._emitter, name, mask, line, self._block_id
            )

    def gen_stmts(self, stmts: List[ast.Stmt]) -> None:
        for stmt in stmts:
            self.gen_stmt(stmt)

    def gen_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, (ast.NonBlocking, ast.Blocking)):
            self._gen_assign(stmt)
        elif isinstance(stmt, ast.If):
            self._gen_if(stmt)
        elif isinstance(stmt, ast.Case):
            self._gen_case(stmt)
        else:
            raise CodegenError(f"unknown statement {type(stmt).__name__}", stmt.line)

    def _gen_assign(self, stmt: "ast.NonBlocking | ast.Blocking") -> None:
        target = stmt.target
        value = self._exprgen.code(stmt.value)
        value_code = value[0]
        value_width = self._exprgen.width_of(stmt.value)
        if self._is_memory(target.name):
            if target.index is None:
                raise CodegenError(
                    f"memory {target.name!r} assignment needs an address",
                    stmt.line,
                )
            addr = self._exprgen.code(target.index)
            width = self._exprgen.width_of(target.index)
            if self._hooks is not None:
                checked = self._hooks.mem_write_addr(
                    target.name, addr[0], width, stmt.line,
                )
                if checked != addr[0]:
                    addr = checked, COND
            addr = self._exprgen.mem_index(target.name, addr, width)
            if self._mem_write is None:
                raise CodegenError(
                    f"memory {target.name!r} may only be written in always @(posedge)", stmt.line)
            self._mem_write(target.name, addr[0], value_code, stmt.line)
            return
        declared = self._target_width(target.name)
        if target.index is not None:
            # Single-bit read-modify-write.  The final mask also drops
            # writes to out-of-range bit positions (Verilog: a select
            # past the declared width has no effect).
            idx = self._emitter.fresh("bi")
            val = self._emitter.fresh("bv")
            self._emitter.line(f"{idx} = {self._exprgen.gen(target.index)}")
            self._emitter.line(f"{val} = {paren(value, BAND)} & 1")
            current = self._read_target_current(target.name)
            merged = (
                f"({current} & ~(1 << {idx}) | {val} << {idx})"
                f" & {mask_of(declared)}"
            )
            self._note_write(
                target.name,
                (1 << target.index.value) & mask_of(declared)
                if isinstance(target.index, ast.Num)
                else None,  # dynamic bit: conservatively full width
                stmt.line,
            )
            self._write_target(ast.LValue(name=target.name, line=target.line), merged)
            return
        if target.msb is not None:
            msb = _require_const(target.msb, stmt.line)
            lsb = _require_const(target.lsb, stmt.line) if target.lsb else 0
            width = msb - lsb + 1
            hole = ~(mask_of(width) << lsb) & mask_of(declared)
            current = self._read_target_current(target.name)
            merged = (
                f"{current} & {hole}"
                f" | ({paren(value, BAND)} & {mask_of(width)}) << {lsb}"
            )
            self._note_write(
                target.name, (mask_of(width) << lsb) & mask_of(declared),
                stmt.line,
            )
            self._write_target(ast.LValue(name=target.name, line=target.line), merged)
            return
        if value_width > declared:
            if self._hooks is not None:
                value_code = self._hooks.trunc(
                    value_code, declared, stmt.line, target.name
                )
            else:
                value_code = f"{paren(value, BAND)} & {mask_of(declared)}"
        self._note_write(target.name, None, stmt.line)
        self._write_target(target, value_code)

    def _gen_if(self, stmt: ast.If) -> None:
        # Flattened anonymous blocks come through as If(cond=Num(1)).
        if isinstance(stmt.cond, ast.Num) and stmt.cond.value == 1 and not stmt.else_body:
            self.gen_stmts(stmt.then_body)
            return
        cond = self._exprgen.test(stmt.cond)[0]
        with block(self._emitter, f"if {cond}:"):
            if stmt.then_body:
                self.gen_stmts(stmt.then_body)
            else:
                self._emitter.line("pass")
        if stmt.else_body:
            with block(self._emitter, "else:"):
                self.gen_stmts(stmt.else_body)

    def _gen_case(self, stmt: ast.Case) -> None:
        subject = self._emitter.fresh("case")
        self._emitter.line(f"{subject} = {self._exprgen.gen(stmt.subject)}")
        first = True
        default_body: Optional[List[ast.Stmt]] = None
        emitted_any = False
        for labels, body in stmt.arms:
            if not labels:
                default_body = body
                continue
            condition = " or ".join(
                f"{subject} == {paren(self._exprgen.code(lbl), BOR)}"
                for lbl in labels
            )
            keyword = "if" if first else "elif"
            with block(self._emitter, f"{keyword} {condition}:"):
                if body:
                    self.gen_stmts(body)
                else:
                    self._emitter.line("pass")
            first = False
            emitted_any = True
        if default_body is not None:
            if emitted_any:
                with block(self._emitter, "else:"):
                    if default_body:
                        self.gen_stmts(default_body)
                    else:
                        self._emitter.line("pass")
            else:
                self.gen_stmts(default_body)


def _require_const(expr: Optional[ast.Expr], line: int) -> int:
    if isinstance(expr, ast.Num):
        return expr.value
    raise CodegenError("part-select bounds must be constant", line)
