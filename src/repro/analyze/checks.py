"""The static analyses: dataflow checks over one elaborated module.

Every check is a :class:`Check` subclass analyzing a single
:class:`~repro.ir.netlist.ModuleIR` specialization (plus read-only
access to its children's IR through :class:`CheckContext`).  That
granularity is deliberate: it makes results cacheable per
``(module, parameter-set)`` under the same fingerprint discipline the
compile cache uses, so a hot reload re-analyzes only dirty modules.

Semantic checks (beyond the migrated width/quality lints):

``comb-loop``
    A genuine combinational cycle through the module's signals, with
    the full path reported.  The simulator *tolerates* these (it
    iterates evaluation to a fixed point), which is exactly why the
    analyzer must not: a loop that settles in simulation is still
    unsynthesizable and usually a missing register.
``multi-driver``
    One signal (or memory) written from more than one always block —
    last-writer-wins in simulation, bus contention in hardware.  The
    elaborator already rejects conflicts between *kinds* of drivers;
    this catches same-kind conflicts it tolerates.
``latch``
    A combinational block that assigns a signal on some paths only.
    The generated code zero-fills, so simulation stays defined, but
    synthesis infers a latch — the classic silent mismatch.
``nb-race``
    A register partially assigned (bit/part select) in one clocked
    block while another clocked block writes it in the same eval
    phase.  The parser already forbids blocking ``=`` in clocked
    blocks, but partial nonblocking assignment compiles to a
    read-modify-write of the *pending* value, so the merge observes
    same-phase writes from sibling blocks — the observed value
    depends on block evaluation order.
``dead-branch``
    Branches no execution can reach, found via consteval: parameters
    are already folded at elaboration, so an ``if (W == 8)`` in a
    ``W = 16`` specialization shows up as a constant condition here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..hdl import ast_nodes as ast
from ..hdl.consteval import expr_reads
from ..ir.netlist import ModuleIR, Netlist
from .diagnostics import (
    QUOTE,
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    Diagnostic,
)

# Diagnostic kinds (the migrated four keep their historical names).
TRUNCATION = "truncation"
EXTENSION = "extension"
UNUSED = "unused-signal"
CONSTANT_CONDITION = "constant-condition"
COMB_LOOP = "comb-loop"
MULTI_DRIVER = "multi-driver"
LATCH = "latch"
NB_RACE = "nb-race"
DEAD_BRANCH = "dead-branch"
# Proof-backed kinds (repro.passes.dataflow value facts).
OOB_INDEX = "oob-index"
PROVED_CONDITION = "proved-condition"
TRUNC_LOSS = "trunc-loss"
UNREACHABLE_ARM = "unreachable-arm"


class CheckContext:
    """What a check may see besides the module under analysis.

    Only child IR lookups plus the (optional) per-module value facts —
    nothing mutable, nothing session-scoped — so a check's result is a
    pure function of the module, its children's combinational
    summaries, and the run key of the facts (all folded into the
    analyzer's cache key).
    """

    def __init__(self, netlist: Netlist, value_facts=None):
        self._netlist = netlist
        self._value_facts = value_facts or {}

    def child(self, key: str) -> ModuleIR:
        return self._netlist.modules[key]

    def facts_for(self, key: str):
        """The module's :class:`repro.passes.dataflow.ModuleValueFacts`
        (duck-typed here — this package never imports repro.passes at
        module level), or None when analysis ran without facts."""
        return self._value_facts.get(key)


class Check:
    """Base class: one analysis pass over one module specialization."""

    name: str = ""
    severity: str = SEVERITY_WARNING

    def run(self, ir: ModuleIR, ctx: CheckContext) -> List[Diagnostic]:
        raise NotImplementedError

    def diag(
        self,
        kind: str,
        ir: ModuleIR,
        message: str,
        line: int,
        severity: Optional[str] = None,
        path: Tuple[str, ...] = (),
        notes: Tuple[str, ...] = (),
        quoted: Tuple[int, ...] = (),
    ) -> Diagnostic:
        """``message`` and ``notes`` quote the lines ``quoted`` where
        they hold :data:`QUOTE` (:meth:`Diagnostic.quoting`)."""
        return Diagnostic.quoting(
            kind, ir.name, message, line, quoted, notes,
            severity=severity or self.severity,
            check=self.name,
            path=path,
        )


# ---------------------------------------------------------------------------
# Width inference (shared by the truncation/extension checks)
# ---------------------------------------------------------------------------


class WidthOracle:
    """The width the user *wrote*, for the width-mismatch checks.

    Not the codegen rule (:func:`repro.hdl.consteval.width_of`): a bare
    decimal is context-sized here (``None``, where codegen says
    ``max(32, bit_length)``) and that propagates through every
    composite, so ``w + 1`` is as wide as ``w``.
    """

    def __init__(self, ir: ModuleIR):
        self._ir = ir

    def width(self, expr: ast.Expr) -> Optional[int]:
        if isinstance(expr, ast.Num):
            return expr.width  # None for bare decimals: context-sized
        if isinstance(expr, ast.Id):
            sig = self._ir.signals.get(expr.name)
            return sig.width if sig else None
        if isinstance(expr, ast.Unary):
            if expr.op in ("!", "&", "|", "^"):
                return 1
            return self.width(expr.operand)
        if isinstance(expr, ast.Binary):
            if expr.op in ("==", "!=", "===", "!==", "<", "<=", ">", ">=",
                           "&&", "||"):
                return 1
            if expr.op in ("<<", ">>", ">>>", "<<<"):
                return self.width(expr.left)
            left = self.width(expr.left)
            right = self.width(expr.right)
            if left is None or right is None:
                return left if right is None else right
            return max(left, right)
        if isinstance(expr, ast.Ternary):
            left = self.width(expr.if_true)
            right = self.width(expr.if_false)
            if left is None or right is None:
                return left if right is None else right
            return max(left, right)
        if isinstance(expr, ast.Concat):
            widths = [self.width(p) for p in expr.parts]
            if any(w is None for w in widths):
                return None
            return sum(widths)  # type: ignore[arg-type]
        if isinstance(expr, ast.Repl):
            if isinstance(expr.count, ast.Num):
                inner = self.width(expr.value)
                if inner is not None:
                    return expr.count.value * inner
            return None
        if isinstance(expr, ast.Index):
            if expr.base in self._ir.memories:
                return self._ir.memories[expr.base].width
            return 1
        if isinstance(expr, ast.Slice):
            if isinstance(expr.msb, ast.Num) and isinstance(expr.lsb, ast.Num):
                return expr.msb.value - expr.lsb.value + 1
            return None
        if isinstance(expr, ast.IndexedPart):
            if isinstance(expr.width, ast.Num):
                return expr.width.value
            return None
        if isinstance(expr, ast.SysCall):
            if expr.func in ("$signed", "$unsigned") and expr.args:
                return self.width(expr.args[0])
            return None
        return None


def _is_synthetic_if(stmt: ast.If) -> bool:
    """Flattened begin/end blocks lower to ``if (1)`` with no else —
    synthetic structure, not a user-written constant condition."""
    return (
        isinstance(stmt.cond, ast.Num)
        and stmt.cond.value == 1
        and not stmt.else_body
    )


# ---------------------------------------------------------------------------
# Migrated width/quality checks (formerly repro.hdl.lint)
# ---------------------------------------------------------------------------


class WidthCheck(Check):
    """Truncating / zero-extending assignments (``truncation`` /
    ``extension``)."""

    name = "width"
    severity = SEVERITY_WARNING

    def run(self, ir: ModuleIR, ctx: CheckContext) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        oracle = WidthOracle(ir)
        for assign in ir.comb_assigns:
            self._check_assign(
                ir, oracle, assign.target.name, assign.value, assign.line, out
            )
        for block in ir.comb_blocks:
            self._check_stmts(ir, oracle, block.body, out)
        for seq in ir.seq_blocks:
            self._check_stmts(ir, oracle, seq.body, out)
        return out

    def _check_stmts(self, ir, oracle, stmts, out) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.NonBlocking, ast.Blocking)):
                target = stmt.target
                if (target.index is None and target.msb is None
                        and target.name in ir.signals):
                    self._check_assign(
                        ir, oracle, target.name, stmt.value, stmt.line, out
                    )
            elif isinstance(stmt, ast.If):
                self._check_stmts(ir, oracle, stmt.then_body, out)
                self._check_stmts(ir, oracle, stmt.else_body, out)
            elif isinstance(stmt, ast.Case):
                for _, body in stmt.arms:
                    self._check_stmts(ir, oracle, body, out)

    def _check_assign(self, ir, oracle, target_name, value, line, out) -> None:
        target = ir.signals.get(target_name)
        if target is None:
            return
        width = oracle.width(value)
        if width is None:
            return
        if width > target.width:
            out.append(self.diag(
                TRUNCATION, ir,
                f"assignment to {target_name!r} truncates a {width}-bit "
                f"value to {target.width} bits",
                line,
            ))
        elif width < target.width and not isinstance(value, ast.Num):
            out.append(self.diag(
                EXTENSION, ir,
                f"assignment to {target_name!r} zero-extends a {width}-bit "
                f"value to {target.width} bits",
                line,
            ))


class UnusedSignalCheck(Check):
    """Internal signals never read by anything."""

    name = "unused-signal"
    severity = SEVERITY_WARNING

    def run(self, ir: ModuleIR, ctx: CheckContext) -> List[Diagnostic]:
        used: Set[str] = set()
        for assign in ir.comb_assigns:
            used |= set(assign.reads)
        for block in ir.comb_blocks:
            used |= set(block.reads) | set(block.defines)
        for inst in ir.instances:
            used |= set(inst.reads)
        for seq in ir.seq_blocks:
            used |= set(seq.reads) | set(seq.writes)
        used |= set(ir.outputs)

        out: List[Diagnostic] = []
        for name, sig in ir.signals.items():
            if sig.kind in ("input", "output"):
                continue
            if name in ir.clock_names:
                continue
            if name not in used:
                out.append(self.diag(
                    UNUSED, ir, f"signal {name!r} is never read", sig.line,
                ))
        return out


class ConstantConditionCheck(Check):
    """Constant if-conditions and mux selects."""

    name = "constant-condition"
    severity = SEVERITY_WARNING

    def run(self, ir: ModuleIR, ctx: CheckContext) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for assign in ir.comb_assigns:
            if isinstance(assign.value, ast.Ternary) and isinstance(
                assign.value.cond, ast.Num
            ):
                out.append(self.diag(
                    CONSTANT_CONDITION, ir,
                    f"mux select for {assign.target.name!r} is the constant "
                    f"{assign.value.cond.value}",
                    assign.line,
                ))
        for block in ir.comb_blocks:
            self._walk(ir, block.body, out)
        for seq in ir.seq_blocks:
            self._walk(ir, seq.body, out)
        return out

    def _walk(self, ir, stmts, out) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                if isinstance(stmt.cond, ast.Num) and not _is_synthetic_if(stmt):
                    out.append(self.diag(
                        CONSTANT_CONDITION, ir,
                        f"if-condition is the constant {stmt.cond.value}",
                        stmt.line,
                    ))
                self._walk(ir, stmt.then_body, out)
                self._walk(ir, stmt.else_body, out)
            elif isinstance(stmt, ast.Case):
                for _, body in stmt.arms:
                    self._walk(ir, body, out)


# ---------------------------------------------------------------------------
# Combinational-loop detection
# ---------------------------------------------------------------------------


class CombLoopCheck(Check):
    """Find combinational cycles and report the signal path.

    Builds the signal-level dependency graph the scheduler works with:
    an edge ``a -> b`` when some combinational unit reads ``a`` to
    produce ``b``.  Registered signals, memories, and early-bound
    instance outputs (state-sourced by construction) break paths, like
    they do for scheduling.  Instance edges use the child's per-output
    ``output_deps`` so a registered or input-independent child output
    never manufactures a false loop.
    """

    name = "comb-loop"
    severity = SEVERITY_ERROR

    def run(self, ir: ModuleIR, ctx: CheckContext) -> List[Diagnostic]:
        broken = {
            name
            for name, sig in ir.signals.items()
            if sig.state_index is not None or sig.kind == "input"
        }
        broken |= set(ir.memories)
        broken |= {target for _, _, target in ir.early_bind}

        # signal -> (defining line, set of comb source signals)
        edges: Dict[str, Tuple[int, Set[str]]] = {}

        def add(target: str, line: int, reads: Set[str]) -> None:
            if target in broken:
                return
            sources = {r for r in reads if r not in broken}
            old_line, old_sources = edges.get(target, (line, set()))
            edges[target] = (old_line or line, old_sources | sources)

        for assign in ir.comb_assigns:
            add(assign.defines, assign.line, set(assign.reads))
        for block in ir.comb_blocks:
            for name in block.defines:
                add(name, block.line, set(block.reads))
        for index, inst in enumerate(ir.instances):
            child = ctx.child(inst.child_key)
            registered = set(inst.registered_ports)
            early = {
                port for i, port, _ in ir.early_bind if i == index
            }
            for port, target in inst.output_conns.items():
                if port in registered or port in early:
                    continue
                reads: Set[str] = set()
                for child_input in child.output_deps.get(port, set()):
                    expr = inst.input_conns.get(child_input)
                    if expr is not None:
                        reads |= expr_reads(expr)
                add(target, inst.line, reads)

        return self._find_cycles(ir, edges)

    def _find_cycles(
        self, ir: ModuleIR, edges: Dict[str, Tuple[int, Set[str]]]
    ) -> List[Diagnostic]:
        # Iterative DFS with an explicit stack; one diagnostic per
        # distinct cycle entry signal (the first signal of the cycle in
        # DFS order), so a single loop is reported once.
        out: List[Diagnostic] = []
        WHITE, GREY, BLACK = 0, 1, 2
        color: Dict[str, int] = {}
        reported: Set[frozenset] = set()

        for root in sorted(edges):
            if color.get(root, WHITE) != WHITE:
                continue
            stack: List[Tuple[str, List[str]]] = [
                (root, sorted(edges.get(root, (0, set()))[1]))
            ]
            trail: List[str] = [root]
            color[root] = GREY
            while stack:
                node, pending = stack[-1]
                if not pending:
                    color[node] = BLACK
                    stack.pop()
                    trail.pop()
                    continue
                succ = pending.pop(0)
                state = color.get(succ, WHITE)
                if state == GREY:
                    cycle = trail[trail.index(succ):] + [succ]
                    cycle_set = frozenset(cycle)
                    if cycle_set not in reported:
                        reported.add(cycle_set)
                        line = min(
                            (edges[s][0] for s in cycle_set if s in edges),
                            default=0,
                        )
                        out.append(self.diag(
                            COMB_LOOP, ir,
                            "combinational loop through "
                            + " -> ".join(cycle),
                            line,
                            path=tuple(cycle),
                        ))
                elif state == WHITE and succ in edges:
                    color[succ] = GREY
                    trail.append(succ)
                    stack.append(
                        (succ, sorted(edges.get(succ, (0, set()))[1]))
                    )
        return out


# ---------------------------------------------------------------------------
# Multiple-driver conflicts across processes
# ---------------------------------------------------------------------------


class MultiDriverCheck(Check):
    """Signals and memories written from more than one always block.

    The elaborator rejects a signal driven by *different kinds* of
    construct (assign + always, two assigns); what it tolerates — and
    this check reports — is the same register written by two clocked
    blocks, or one memory written from several processes.  In the
    generated code the later block silently wins; in hardware it is a
    driver conflict.
    """

    name = "multi-driver"
    severity = SEVERITY_ERROR

    def run(self, ir: ModuleIR, ctx: CheckContext) -> List[Diagnostic]:
        sig_writers: Dict[str, List[int]] = {}
        mem_writers: Dict[str, List[int]] = {}
        blocks: Sequence[Tuple[int, Sequence[str]]] = [
            (block.line, block.writes) for block in ir.seq_blocks
        ] + [(block.line, block.defines) for block in ir.comb_blocks]
        for line, writes in blocks:
            for name in writes:
                if name in ir.memories:
                    mem_writers.setdefault(name, []).append(line)
                elif name in ir.signals:
                    sig_writers.setdefault(name, []).append(line)

        out: List[Diagnostic] = []
        for what, writers in (("signal", sig_writers), ("memory", mem_writers)):
            for name, lines in sorted(writers.items()):
                if len(lines) > 1:
                    quotes = ", ".join(QUOTE * len(lines))
                    out.append(self.diag(
                        MULTI_DRIVER, ir,
                        f"{what} {name!r} is written by {len(lines)} always "
                        f"blocks (lines [{quotes}])",
                        min(lines),
                        quoted=tuple(sorted(lines)),
                    ))
        return out


# ---------------------------------------------------------------------------
# Latch inference (incomplete combinational assignment)
# ---------------------------------------------------------------------------


class LatchCheck(Check):
    """Combinational defines not assigned on every path."""

    name = "latch"
    severity = SEVERITY_WARNING

    def run(self, ir: ModuleIR, ctx: CheckContext) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for block in ir.comb_blocks:
            for name in block.defines:
                if not _always_assigned(block.body, name):
                    out.append(self.diag(
                        LATCH, ir,
                        f"combinational block assigns {name!r} on some "
                        "paths only (latch inferred in synthesis; "
                        "simulation zero-fills)",
                        _first_assign_line(block.body, name) or block.line,
                    ))
        return out


def _always_assigned(stmts: List[ast.Stmt], name: str) -> bool:
    """True when every path through ``stmts`` assigns ``name``."""
    for stmt in stmts:
        if isinstance(stmt, (ast.NonBlocking, ast.Blocking)):
            if stmt.target.name == name:
                return True
        elif isinstance(stmt, ast.If):
            if _is_synthetic_if(stmt):
                if _always_assigned(stmt.then_body, name):
                    return True
                continue
            if isinstance(stmt.cond, ast.Num):
                # Constant condition: only the live branch counts.
                branch = (
                    stmt.then_body if stmt.cond.value else stmt.else_body
                )
                if _always_assigned(branch, name):
                    return True
                continue
            if (stmt.else_body
                    and _always_assigned(stmt.then_body, name)
                    and _always_assigned(stmt.else_body, name)):
                return True
        elif isinstance(stmt, ast.Case):
            has_default = any(not labels for labels, _ in stmt.arms)
            if has_default and all(
                _always_assigned(body, name) for _, body in stmt.arms
            ):
                return True
    return False


def _first_assign_line(stmts: List[ast.Stmt], name: str) -> int:
    for stmt in stmts:
        if isinstance(stmt, (ast.NonBlocking, ast.Blocking)):
            if stmt.target.name == name:
                return stmt.line
        elif isinstance(stmt, ast.If):
            line = (_first_assign_line(stmt.then_body, name)
                    or _first_assign_line(stmt.else_body, name))
            if line:
                return line
        elif isinstance(stmt, ast.Case):
            for _, body in stmt.arms:
                line = _first_assign_line(body, name)
                if line:
                    return line
    return 0


# ---------------------------------------------------------------------------
# Blocking/nonblocking scheduling races between clocked blocks
# ---------------------------------------------------------------------------


class RaceCheck(Check):
    """Partial register writes that observe same-phase sibling writes.

    All clocked blocks on the same edge evaluate in one phase.  A
    whole-register ``<=`` only writes the pending value, and plain
    reads see the pre-edge value — proper nonblocking semantics.  But
    a *bit/part-select* nonblocking assignment compiles to a
    read-modify-write of the **pending** value (the merge must keep
    the untouched bits), so when a different block writes the same
    register in the same phase, the merge picks up that write — or
    not — depending on block evaluation order.  Hardware has no such
    order, making this the scheduling race nonblocking assignment is
    supposed to rule out.
    """

    name = "nb-race"
    severity = SEVERITY_ERROR

    def run(self, ir: ModuleIR, ctx: CheckContext) -> List[Diagnostic]:
        if len(ir.seq_blocks) < 2:
            return []
        # Per block: all written registers, and the partially-written
        # ones (with the first partial-assign line for attribution).
        writes_per_block: List[Tuple[int, str, Set[str]]] = []
        partial_per_block: List[Tuple[int, str, Dict[str, int]]] = []
        for idx, seq in enumerate(ir.seq_blocks):
            reg_writes = {w for w in seq.writes if w in ir.signals}
            partial: Dict[str, int] = {}
            _collect_partial_writes(seq.body, ir, partial)
            writes_per_block.append((idx, seq.clock, reg_writes))
            partial_per_block.append((idx, seq.clock, partial))

        out: List[Diagnostic] = []
        seen: Set[Tuple[str, int]] = set()
        for pidx, pclock, partial in partial_per_block:
            for name, line in sorted(partial.items()):
                for widx, wclock, writes in writes_per_block:
                    if widx == pidx or wclock != pclock:
                        continue
                    if name in writes and (name, pidx) not in seen:
                        seen.add((name, pidx))
                        out.append(self.diag(
                            NB_RACE, ir,
                            f"partial assignment to {name!r} merges with "
                            "the pending value, which another "
                            f"always @(posedge {pclock}) block writes in "
                            "the same eval phase; the result depends on "
                            "block evaluation order",
                            line,
                        ))
        return out


def _collect_partial_writes(
    stmts: List[ast.Stmt], ir: ModuleIR, out: Dict[str, int]
) -> None:
    """Registers assigned through a bit or part select (not memories —
    word writes there are whole-word, and multi-driver already flags
    multi-block memory writers)."""
    for stmt in stmts:
        if isinstance(stmt, (ast.NonBlocking, ast.Blocking)):
            target = stmt.target
            if (target.name in ir.signals
                    and target.name not in ir.memories
                    and (target.index is not None
                         or target.msb is not None)):
                out.setdefault(target.name, stmt.line)
        elif isinstance(stmt, ast.If):
            _collect_partial_writes(stmt.then_body, ir, out)
            _collect_partial_writes(stmt.else_body, ir, out)
        elif isinstance(stmt, ast.Case):
            for _, body in stmt.arms:
                _collect_partial_writes(body, ir, out)


# ---------------------------------------------------------------------------
# Dead / unreachable branches via consteval
# ---------------------------------------------------------------------------


class DeadBranchCheck(Check):
    """Branches no execution reaches, after parameter folding.

    Expressions in the IR are already constant-folded against the
    specialization's parameters, so a constant condition here means
    *this specialization* can never take the branch.  That is often
    intentional for parameterized code — hence ``info`` severity —
    but a dead default in a fully-constant case, or a dead arm, is
    worth a look.
    """

    name = "dead-branch"
    severity = SEVERITY_INFO

    def run(self, ir: ModuleIR, ctx: CheckContext) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for block in ir.comb_blocks:
            self._walk(ir, block.body, out)
        for seq in ir.seq_blocks:
            self._walk(ir, seq.body, out)
        return out

    def _walk(self, ir, stmts, out) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                if isinstance(stmt.cond, ast.Num) and not _is_synthetic_if(stmt):
                    if stmt.cond.value:
                        if stmt.else_body:
                            out.append(self.diag(
                                DEAD_BRANCH, ir,
                                "else-branch is unreachable (condition "
                                f"folds to {stmt.cond.value})",
                                stmt.line,
                            ))
                    else:
                        out.append(self.diag(
                            DEAD_BRANCH, ir,
                            "then-branch is unreachable (condition "
                            "folds to 0)",
                            stmt.line,
                        ))
                self._walk(ir, stmt.then_body, out)
                self._walk(ir, stmt.else_body, out)
            elif isinstance(stmt, ast.Case):
                self._check_case(ir, stmt, out)
                for _, body in stmt.arms:
                    self._walk(ir, body, out)

    def _check_case(self, ir, stmt: ast.Case, out) -> None:
        subject_const = (
            stmt.subject.value
            if isinstance(stmt.subject, ast.Num) else None
        )
        seen_labels: Set[int] = set()
        matched = False
        for labels, _ in stmt.arms:
            if not labels:  # default arm
                if subject_const is not None and matched:
                    out.append(self.diag(
                        DEAD_BRANCH, ir,
                        "default arm is unreachable (case subject folds "
                        f"to {subject_const})",
                        stmt.line,
                    ))
                continue
            const_labels = [
                lbl.value for lbl in labels if isinstance(lbl, ast.Num)
            ]
            if len(const_labels) != len(labels):
                continue  # non-constant label: reachable, be quiet
            if subject_const is not None:
                if subject_const in const_labels and not matched:
                    matched = True
                else:
                    out.append(self.diag(
                        DEAD_BRANCH, ir,
                        f"case arm {const_labels} is unreachable (subject "
                        f"folds to {subject_const})",
                        stmt.line,
                    ))
            else:
                duplicates = [
                    lbl for lbl in const_labels if lbl in seen_labels
                ]
                if duplicates and len(duplicates) == len(const_labels):
                    out.append(self.diag(
                        DEAD_BRANCH, ir,
                        f"case arm {const_labels} is unreachable "
                        "(labels already matched by an earlier arm)",
                        stmt.line,
                    ))
                seen_labels.update(const_labels)


# ---------------------------------------------------------------------------
# Proof-backed checks over the dataflow value facts
# ---------------------------------------------------------------------------


class ValueRangeCheck(Check):
    """Findings *proved* by the known-bits/interval analysis
    (:mod:`repro.passes.dataflow`), from-reset (env) tier:

    ``oob-index``
        A dynamic index or memory address whose interval lies entirely
        at or above the bound — every execution from reset faults.
    ``trunc-loss``
        A truncating assignment whose value provably carries bits above
        the declared width — data is lost on every path that runs it.
    ``proved-condition``
        A non-constant condition expression every evaluation of which
        decides the same way (the syntactic ``constant-condition``
        check only sees literal constants; this one sees through the
        dataflow).
    ``unreachable-arm``
        A case arm no subject value the analysis admits can match.

    Each finding carries the fact derivation chain in ``notes`` —
    rendered by the CLI's ``--explain`` flag.  Runs only when the
    analyzer was given value facts; silent otherwise.
    """

    name = "value-range"
    severity = SEVERITY_WARNING

    def run(self, ir: ModuleIR, ctx: CheckContext) -> List[Diagnostic]:
        facts = ctx.facts_for(ir.key)
        if facts is None:
            return []
        out: List[Diagnostic] = []
        for (name, line), site in sorted(facts.ob_sites.items()):
            if not site.provably_oob:
                continue
            out.append(self.diag(
                OOB_INDEX, ir,
                f"index into {name!r} is provably out of bounds: value "
                f"{site.fact.describe()} >= bound {site.bound}",
                line,
                severity=SEVERITY_ERROR,
                **self._derivation(facts, site.reads),
            ))
        for (name, line), site in sorted(facts.tr_sites.items()):
            if not site.provably_lossy:
                continue
            out.append(self.diag(
                TRUNC_LOSS, ir,
                f"assignment to {name!r} provably loses bits: value "
                f"{site.fact.describe()} cannot fit {site.declared} "
                "bit(s)",
                line,
                **self._derivation(facts, site.reads),
            ))
        for (line, kind), site in sorted(facts.cond_sites.items()):
            if site.truth is None:
                continue
            what = "if-condition" if kind == "if" else "mux select"
            truth = "true" if site.truth else "false"
            detail = (f" ({site.detail})",) if site.detail else ()
            out.append(self.diag(
                PROVED_CONDITION, ir,
                f"{what} is provably always {truth}"
                + (detail[0] if detail else ""),
                line,
                **self._derivation(facts, site.reads),
            ))
        for (line, arm), site in sorted(facts.case_sites.items()):
            if not site.dead:
                continue
            out.append(self.diag(
                UNREACHABLE_ARM, ir,
                f"case arm #{arm} is provably unmatchable"
                + (f" ({site.detail})" if site.detail else ""),
                line,
                severity=SEVERITY_INFO,
                **self._derivation(facts, site.reads),
            ))
        return out

    @staticmethod
    def _derivation(facts, reads: Tuple[str, ...]) -> Dict[str, tuple]:
        """The fact derivation chain for the signals a site reads: the
        ``notes`` and the lines they quote (``quoted``)."""
        chain = [note for name in reads for note in facts.explain(name)]
        return {
            "notes": tuple(text for text, _ in chain),
            "quoted": tuple(line for _, line in chain if line),
        }


# ---------------------------------------------------------------------------
# Default registry
# ---------------------------------------------------------------------------


def default_checks() -> List[Check]:
    """Fresh instances of every built-in check, semantic ones first."""
    return [
        CombLoopCheck(),
        MultiDriverCheck(),
        RaceCheck(),
        LatchCheck(),
        DeadBranchCheck(),
        ValueRangeCheck(),
        WidthCheck(),
        UnusedSignalCheck(),
        ConstantConditionCheck(),
    ]
