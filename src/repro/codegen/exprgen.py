"""Expression and statement code generation.

Both generators (shared-module :mod:`pygen` and flattened
:mod:`flatgen`) lower expressions through this module; they differ only
in how signal names resolve to Python references, which is abstracted
behind :class:`Resolver`.

Value invariant: every generated sub-expression evaluates to a Python
int already masked to the node's width (non-negative, ``< 2**width``).

The width of every node is :func:`repro.hdl.consteval.width_of` (a
documented deviation set from full Verilog, chosen to be predictable;
the rule is written out there and nowhere else).  ``$signed`` changes
interpretation for ``<``, ``<=``, ``>``, ``>=`` and ``>>>`` only; both
comparison operands must be signed (:func:`repro.hdl.consteval.is_signed`).

``x / 0`` is all-ones and ``x % 0`` is ``x`` (Verilog would give X; this
simulator has no X state).
"""

from __future__ import annotations

from typing import Callable, List, Optional

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
    * ``mem_read(name, index_code, line)`` — replace an indexed
      memory read entirely (bound + word-poison checked access).
    * ``index_bound(name, index_code, bound, line)`` — wrap a
      dynamic bit/part-select index with a bound check.
    """

    def __init__(
        self,
        signal_ref: Callable[[str], str],
        signal_width: Callable[[str], Optional[int]],
        memory_ref: Callable[[str], Optional[str]],
        memory_width: Callable[[str], int],
        memory_depth: Callable[[str], int],
        hooks: Optional[object] = None,
    ):
        self.signal_ref = signal_ref
        self.signal_width = signal_width
        self.memory_ref = memory_ref
        self.memory_width = memory_width
        self.memory_depth = memory_depth
        self.hooks = hooks


class ExprGen:
    """Generates masked Python expressions from LHDL expression trees."""

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
        """Return a Python expression string for ``expr`` (masked)."""
        if isinstance(expr, ast.Num):
            return str(num_value(expr))
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
                return self.gen(expr.args[0])
            raise CodegenError(f"non-constant {expr.func} call", expr.line)
        raise CodegenError(f"cannot generate {type(expr).__name__}",
                           getattr(expr, "line", 0))

    def _signal_read(self, name: str, line: int) -> str:
        """Resolve a signal read, routed through the register-read hook
        when hooks are installed."""
        ref = self._resolver.signal_ref(name)
        hooks = self._resolver.hooks
        if hooks is not None:
            wrapped = hooks.reg_read(name, ref, line)
            if wrapped is not None:
                return f"({wrapped})"
        return ref

    def sext(self, code: str, width: int) -> str:
        """Sign-extend a masked ``width``-bit value to a Python int."""
        if width <= 0:
            return code
        sign = 1 << (width - 1)
        return f"((({code}) ^ {sign}) - {sign})"

    def _gen_unary(self, expr: ast.Unary) -> str:
        operand = self.gen(expr.operand)
        op_width = self.width_of(expr.operand)
        if expr.op == "~":
            return f"((~({operand})) & {mask_of(op_width)})"
        if expr.op == "-":
            return f"((-({operand})) & {mask_of(op_width)})"
        if expr.op == "!":
            return f"(0 if ({operand}) else 1)"
        if expr.op == "&":
            return f"(1 if ({operand}) == {mask_of(op_width)} else 0)"
        if expr.op == "|":
            return f"(1 if ({operand}) else 0)"
        if expr.op == "^":
            return f"(bin({operand}).count('1') & 1)"
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
    # flatten unconditionally.
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

    def _gen_binary(self, expr: ast.Binary) -> str:
        op = expr.op
        if op in self._FLATTENABLE:
            operands: List[ast.Expr] = []
            chain_width = self.width_of(expr) if op in ("+", "*") else None
            self._collect_chain(expr, op, operands, chain_width)
            if len(operands) > 2:
                width = max(self.width_of(o) for o in operands)
                joined = f" {op} ".join(f"({self.gen(o)})" for o in operands)
                if op in ("+", "*"):
                    return f"(({joined}) & {mask_of(width)})"
                return f"({joined})"
        left = self.gen(expr.left)
        right = self.gen(expr.right)
        wl = self.width_of(expr.left)
        wr = self.width_of(expr.right)
        result_mask = mask_of(max(wl, wr))
        if op == "+":
            return f"((({left}) + ({right})) & {result_mask})"
        if op == "-":
            return f"((({left}) - ({right})) & {result_mask})"
        if op == "*":
            return f"((({left}) * ({right})) & {result_mask})"
        if op == "/":
            tmp = self._emitter.fresh("div")
            return f"((({left}) // {tmp}) if ({tmp} := ({right})) else {result_mask})"
        if op == "%":
            tmp = self._emitter.fresh("mod")
            return f"((({left}) % {tmp}) if ({tmp} := ({right})) else ({left}))"
        if op in ("<<", "<<<"):
            shift_cap = wl + 1
            tmp = self._emitter.fresh("sh")
            return (
                f"(((({left}) << {tmp}) & {mask_of(wl)})"
                f" if ({tmp} := ({right})) < {shift_cap} else 0)"
            )
        if op == ">>":
            return f"(({left}) >> ({right}))"
        if op == ">>>":
            if is_signed(expr.left):
                return f"(({self.sext(left, wl)} >> ({right})) & {mask_of(wl)})"
            return f"(({left}) >> ({right}))"
        if op in ("==", "==="):
            return f"(1 if ({left}) == ({right}) else 0)"
        if op in ("!=", "!=="):
            return f"(1 if ({left}) != ({right}) else 0)"
        if op in ("<", "<=", ">", ">="):
            signed = is_signed(expr.left) and is_signed(expr.right)
            if signed:
                left = self.sext(left, wl)
                right = self.sext(right, wr)
            return f"(1 if ({left}) {op} ({right}) else 0)"
        if op == "&&":
            return f"(1 if ({left}) and ({right}) else 0)"
        if op == "||":
            return f"(1 if ({left}) or ({right}) else 0)"
        if op == "&":
            return f"(({left}) & ({right}))"
        if op == "|":
            return f"(({left}) | ({right}))"
        if op == "^":
            return f"(({left}) ^ ({right}))"
        raise CodegenError(f"unknown binary {op!r}", expr.line)

    def _gen_ternary(self, expr: ast.Ternary) -> str:
        cond = self.gen(expr.cond)
        if_true = self.gen(expr.if_true)
        if_false = self.gen(expr.if_false)
        if self._mux_style == "branch":
            return f"(({if_true}) if ({cond}) else ({if_false}))"
        # Arithmetic select: evaluate both arms, pick by multiplication
        # (the Verilator-like no-branch lowering).
        width = max(self.width_of(expr.if_true), self.width_of(expr.if_false))
        sel = self._emitter.fresh("sel")
        return (
            f"(((({if_true}) * ({sel} := (1 if ({cond}) else 0)))"
            f" + (({if_false}) * (1 - {sel}))) & {mask_of(width)})"
        )

    def _gen_concat(self, expr: ast.Concat) -> str:
        parts: List[str] = []
        widths = [self.width_of(p) for p in expr.parts]
        total = sum(widths)
        offset = total
        for part, width in zip(expr.parts, widths):
            offset -= width
            code = self.gen(part)
            if offset:
                parts.append(f"(({code}) << {offset})")
            else:
                parts.append(f"({code})")
        return "(" + " | ".join(parts) + ")"

    def _gen_repl(self, expr: ast.Repl) -> str:
        count = const_int(expr.count, "replication count")
        value_width = self.width_of(expr.value)
        factor = sum(1 << (i * value_width) for i in range(count))
        return f"((({self.gen(expr.value)}) * {factor}))"

    def _mem_index_code(self, name: str, index_code: str, line: int) -> str:
        depth = self._resolver.memory_depth(name)
        if depth & (depth - 1) == 0:
            return f"(({index_code}) & {depth - 1})"
        return f"(({index_code}) % {depth})"

    def _bound_checked(self, name: str, index_code: str, bound: int,
                       index_expr: ast.Expr, line: int) -> str:
        """Wrap a dynamic select index with the oob hook (constant
        indices are the static analyzer's domain and stay clean)."""
        hooks = self._resolver.hooks
        if hooks is None or isinstance(index_expr, ast.Num) or bound < 1:
            return index_code
        return hooks.index_bound(name, index_code, bound, line)

    def _gen_index(self, expr: ast.Index) -> str:
        mem_ref = self._resolver.memory_ref(expr.base)
        index_code = self.gen(expr.index)
        if mem_ref is not None:
            hooks = self._resolver.hooks
            if hooks is not None:
                return hooks.mem_read(expr.base, index_code, expr.line)
            return f"{mem_ref}[{self._mem_index_code(expr.base, index_code, expr.line)}]"
        base = self._signal_read(expr.base, expr.line)
        width = self._resolver.signal_width(expr.base)
        if width is not None:
            index_code = self._bound_checked(
                expr.base, index_code, width, expr.index, expr.line
            )
        return f"((({base}) >> ({index_code})) & 1)"

    def _gen_slice(self, expr: ast.Slice) -> str:
        width = self.width_of(expr)  # constant bounds, not reversed
        lsb = expr.lsb.value
        base = self._signal_read(expr.base, expr.line)
        if lsb == 0:
            return f"(({base}) & {mask_of(width)})"
        return f"((({base}) >> {lsb}) & {mask_of(width)})"

    def _gen_indexed_part(self, expr: ast.IndexedPart) -> str:
        width = self.width_of(expr)
        base = self._signal_read(expr.base, expr.line)
        start = self.gen(expr.start)
        base_width = self._resolver.signal_width(expr.base)
        if base_width is not None:
            # Ascending reads [start, start+width-1]; descending reads
            # [start-width+1, start] — either way the extreme touched
            # bit must stay below the declared width.
            bound = base_width - width + 1 if expr.ascending else base_width
            start = self._bound_checked(
                expr.base, start, bound, expr.start, expr.line
            )
        if expr.ascending:
            return f"((({base}) >> ({start})) & {mask_of(width)})"
        return f"((({base}) >> (({start}) - {width - 1})) & {mask_of(width)})"


class StmtGen:
    """Generates statement bodies (sequential and comb always blocks)."""

    def __init__(
        self,
        exprgen: ExprGen,
        emitter: FunctionEmitter,
        write_target: Callable[[ast.LValue, str], None],
        read_target_current: Callable[[str], str],
        mem_write: Callable[[str, str, str, int], None],
        is_memory: Callable[[str], bool],
        target_width: Callable[[str], int],
        hooks: Optional[object] = None,
        block_id: Optional[int] = None,
    ):
        """Callbacks:

        * ``write_target(lvalue, value_code)`` — full or partial signal
          assignment.
        * ``read_target_current(name)`` — current value of a target
          (for read-modify-write partial updates).
        * ``mem_write(name, addr_code, value_code, line)`` — memory
          word write.
        * ``target_width(name)`` — declared width of a target signal.

        ``hooks`` is the resolver's instrumentation object (None: clean
        code).  Statements call two more of its methods:

        * ``trunc(value_code, declared, line, name)`` — replacement for
          the silent truncation mask; returns the complete (still
          masked) value expression.
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
        value_code = self._exprgen.gen(stmt.value)
        value_width = self._exprgen.width_of(stmt.value)
        if self._is_memory(target.name):
            if target.index is None:
                raise CodegenError(
                    f"memory {target.name!r} assignment needs an address",
                    stmt.line,
                )
            addr_code = self._exprgen.gen(target.index)
            self._mem_write(target.name, addr_code, value_code, stmt.line)
            return
        declared = self._target_width(target.name)
        if target.index is not None:
            # Single-bit read-modify-write.  The final mask also drops
            # writes to out-of-range bit positions (Verilog: a select
            # past the declared width has no effect).
            idx = self._emitter.fresh("bi")
            val = self._emitter.fresh("bv")
            self._emitter.line(f"{idx} = {self._exprgen.gen(target.index)}")
            self._emitter.line(f"{val} = ({value_code}) & 1")
            current = self._read_target_current(target.name)
            merged = (
                f"((({current}) & ~(1 << {idx}))"
                f" | ({val} << {idx})) & {mask_of(declared)}"
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
                f"(({current}) & {hole})"
                f" | ((({value_code}) & {mask_of(width)}) << {lsb})"
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
                value_code = f"(({value_code}) & {mask_of(declared)})"
        self._note_write(target.name, None, stmt.line)
        self._write_target(target, value_code)

    def _gen_if(self, stmt: ast.If) -> None:
        # Flattened anonymous blocks come through as If(cond=Num(1)).
        if isinstance(stmt.cond, ast.Num) and stmt.cond.value == 1 and not stmt.else_body:
            self.gen_stmts(stmt.then_body)
            return
        cond = self._exprgen.gen(stmt.cond)
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
            label_codes = [self._exprgen.gen(lbl) for lbl in labels]
            condition = " or ".join(f"{subject} == ({c})" for c in label_codes)
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
