"""Differential fuzzing of the code generators.

Hypothesis generates random LHDL expressions; each is compiled through
BOTH code generators (shared-module pygen and flattening flatgen, in
both mux styles) and the results are compared against an independent
reference interpreter implementing the documented semantics
(see repro.hdl.consteval's module docstring).  Any disagreement is a
compiler bug.

Literals and parameters fold at elaboration, so the corpus also draws
bare decimals wider than 32 bits, parameters (negative ones and ones
wider than 32 bits) and parameter selects, and one differential compares
each expression with the same expression whose constant leaves arrive
through input ports, where nothing can fold.
"""

from __future__ import annotations

import re

from hypothesis import given, settings, strategies as st

from repro import compile_design
from repro.codegen.build import BuildConfig
from repro.codegen.flatgen import compile_flat
from repro.hdl import ast_nodes as ast
from repro.hdl import elaborate, parse
from repro.hdl.parser import parse_expr
from repro.passes import compile_netlist
from repro.sanitize.runtime import SanitizerRuntime
from repro.sim import Pipe

INPUTS = {"a": 8, "b": 8, "c": 16, "d": 1}
PARAMS = {"P": 5, "Q": (1 << 35) + 9, "N": -3, "M": -(1 << 33) - 7}
OUT_WIDTH = 16


# ---------------------------------------------------------------------------
# Reference interpreter (independent of the code generators)
# ---------------------------------------------------------------------------


def name_width(name: str) -> int:
    """An input's declared width; a parameter is a bare decimal."""
    if name in INPUTS:
        return INPUTS[name]
    return max(32, PARAMS[name].bit_length())


def name_value(name: str, env: dict) -> int:
    value = env[name] if name in INPUTS else PARAMS[name]
    return value & ((1 << name_width(name)) - 1)


def ref_width(expr: ast.Expr) -> int:
    if isinstance(expr, ast.Num):
        return expr.width if expr.width is not None else max(
            32, expr.value.bit_length()
        )
    if isinstance(expr, ast.Id):
        return name_width(expr.name)
    if isinstance(expr, ast.Unary):
        return 1 if expr.op in ("!", "&", "|", "^") else ref_width(expr.operand)
    if isinstance(expr, ast.Binary):
        if expr.op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
            return 1
        if expr.op in ("<<", ">>", ">>>"):
            return ref_width(expr.left)
        return max(ref_width(expr.left), ref_width(expr.right))
    if isinstance(expr, ast.Ternary):
        return max(ref_width(expr.if_true), ref_width(expr.if_false))
    if isinstance(expr, ast.Concat):
        return sum(ref_width(p) for p in expr.parts)
    if isinstance(expr, ast.Repl):
        return expr.count.value * ref_width(expr.value)
    if isinstance(expr, ast.Index):
        return 1
    if isinstance(expr, ast.Slice):
        return expr.msb.value - expr.lsb.value + 1
    if isinstance(expr, ast.SysCall):
        return ref_width(expr.args[0])
    raise AssertionError(type(expr))


def is_signed(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.SysCall) and expr.func == "$signed":
        return True
    if isinstance(expr, ast.Ternary):
        return is_signed(expr.if_true) and is_signed(expr.if_false)
    return False


def sext(value: int, width: int) -> int:
    sign = 1 << (width - 1)
    return (value ^ sign) - sign


def ref_eval(expr: ast.Expr, env: dict) -> int:
    """Evaluate to the masked value of the node's width."""
    w = ref_width(expr)
    mask = (1 << w) - 1
    if isinstance(expr, ast.Num):
        return expr.value & mask
    if isinstance(expr, ast.Id):
        return name_value(expr.name, env)
    if isinstance(expr, ast.Unary):
        v = ref_eval(expr.operand, env)
        ow = ref_width(expr.operand)
        if expr.op == "~":
            return (~v) & ((1 << ow) - 1)
        if expr.op == "-":
            return (-v) & ((1 << ow) - 1)
        if expr.op == "!":
            return 0 if v else 1
        if expr.op == "&":
            return 1 if v == (1 << ow) - 1 else 0
        if expr.op == "|":
            return 1 if v else 0
        if expr.op == "^":
            return bin(v).count("1") & 1
    if isinstance(expr, ast.Binary):
        l = ref_eval(expr.left, env)
        r = ref_eval(expr.right, env)
        wl = ref_width(expr.left)
        wr = ref_width(expr.right)
        big = (1 << max(wl, wr)) - 1
        op = expr.op
        if op == "+":
            return (l + r) & big
        if op == "-":
            return (l - r) & big
        if op == "*":
            return (l * r) & big
        if op == "/":
            return (l // r) & big if r else big
        if op == "%":
            return (l % r) if r else l
        if op == "<<":
            return ((l << r) & ((1 << wl) - 1)) if r <= wl else 0
        if op == ">>":
            return l >> r
        if op == ">>>":
            if is_signed(expr.left):
                return (sext(l, wl) >> r) & ((1 << wl) - 1)
            return l >> r
        if op in ("<", "<=", ">", ">="):
            if is_signed(expr.left) and is_signed(expr.right):
                l, r = sext(l, wl), sext(r, wr)
            return int(eval(f"{l} {op} {r}"))  # noqa: S307 - ints only
        if op == "==":
            return int(l == r)
        if op == "!=":
            return int(l != r)
        if op == "&&":
            return int(bool(l) and bool(r))
        if op == "||":
            return int(bool(l) or bool(r))
        if op == "&":
            return l & r
        if op == "|":
            return l | r
        if op == "^":
            return l ^ r
    if isinstance(expr, ast.Ternary):
        return (
            ref_eval(expr.if_true, env)
            if ref_eval(expr.cond, env)
            else ref_eval(expr.if_false, env)
        )
    if isinstance(expr, ast.Concat):
        out = 0
        for part in expr.parts:
            out = (out << ref_width(part)) | ref_eval(part, env)
        return out
    if isinstance(expr, ast.Repl):
        v = ref_eval(expr.value, env)
        vw = ref_width(expr.value)
        out = 0
        for _ in range(expr.count.value):
            out = (out << vw) | v
        return out
    if isinstance(expr, ast.Index):
        return (name_value(expr.base, env) >> ref_eval(expr.index, env)) & 1
    if isinstance(expr, ast.Slice):
        return (name_value(expr.base, env) >> expr.lsb.value) & mask
    if isinstance(expr, ast.SysCall):
        return ref_eval(expr.args[0], env)
    raise AssertionError(type(expr))


# ---------------------------------------------------------------------------
# Expression text generation
# ---------------------------------------------------------------------------


@st.composite
def marked_expr(draw, depth=0):
    """Expression text with every literal and parameter leaf between
    ``@`` marks: :func:`folded_text` drops the marks, :func:`routed`
    turns each marked leaf into an input port."""
    if depth >= 3:
        choice = draw(st.sampled_from(["id", "num", "bare", "param"]))
    else:
        choice = draw(st.sampled_from(
            ["id", "num", "bare", "param", "bin", "bin", "un", "tern",
             "concat", "repl", "slice", "index", "pslice", "pindex",
             "signed_cmp", "sra", "const_cmp", "const_cmp"]
        ))
    if choice == "id":
        return draw(st.sampled_from(sorted(INPUTS)))
    if choice == "num":
        width = draw(st.sampled_from([4, 8, 16]))
        value = draw(st.integers(0, (1 << width) - 1))
        return f"@{width}'d{value}@"
    if choice == "bare":
        return f"@{draw(st.integers(0, 1 << 40))}@"
    if choice == "param":
        return f"@{draw(st.sampled_from(sorted(PARAMS)))}@"
    if choice in ("pslice", "pindex"):  # under ~ its width shows
        lsb = draw(st.integers(0, 39))
        msb = draw(st.integers(lsb, 39))
        select = f"{msb}:{lsb}" if choice == "pslice" else f"{lsb}"
        invert = draw(st.sampled_from(["", "~"]))
        return f"({invert}@{draw(st.sampled_from(sorted(PARAMS)))}@[{select}])"
    if choice == "const_cmp":  # a parameter against a constant: it folds
        sides = [f"@{draw(st.sampled_from(sorted(PARAMS)))}@",
                 draw(marked_expr(depth=3).filter(lambda text: "@" in text))]
        op = draw(st.sampled_from(["<", "<=", ">", ">=", ">>", "/", "%"]))
        first = draw(st.integers(0, 1))
        return f"({sides[first]} {op} {sides[1 - first]})"
    if choice == "bin":
        op = draw(st.sampled_from(
            ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
             "==", "!=", "<", "<=", ">", ">=", "&&", "||"]
        ))
        left = draw(marked_expr(depth=depth + 1))
        right = draw(marked_expr(depth=depth + 1))
        return f"({left} {op} {right})"
    if choice == "un":
        op = draw(st.sampled_from(["~", "-", "!", "&", "|", "^"]))
        inner = draw(marked_expr(depth=depth + 1))
        return f"({op}({inner}))"
    if choice == "tern":
        c = draw(marked_expr(depth=depth + 1))
        t = draw(marked_expr(depth=depth + 1))
        f = draw(marked_expr(depth=depth + 1))
        return f"(({c}) ? ({t}) : ({f}))"
    if choice == "concat":
        parts = draw(st.lists(marked_expr(depth=depth + 1), min_size=2,
                              max_size=3))
        return "{" + ", ".join(parts) + "}"
    if choice == "repl":
        count = draw(st.integers(1, 3))
        inner = draw(st.sampled_from(sorted(INPUTS)))
        return f"{{{count}{{{inner}}}}}"
    if choice == "slice":
        name = draw(st.sampled_from(["a", "b", "c"]))
        width = INPUTS[name]
        lsb = draw(st.integers(0, width - 1))
        msb = draw(st.integers(lsb, width - 1))
        return f"{name}[{msb}:{lsb}]"
    if choice == "index":
        name = draw(st.sampled_from(["a", "b", "c"]))
        bit = draw(st.integers(0, INPUTS[name] - 1))
        return f"{name}[{bit}]"
    if choice == "signed_cmp":
        left = draw(st.sampled_from(sorted(INPUTS)))
        right = draw(st.sampled_from(sorted(INPUTS)))
        op = draw(st.sampled_from(["<", "<=", ">", ">="]))
        return f"($signed({left}) {op} $signed({right}))"
    if choice == "sra":
        name = draw(st.sampled_from(["a", "b", "c"]))
        sh = draw(st.integers(0, 7))
        return f"($signed({name}) >>> {sh})"
    raise AssertionError(choice)


_LEAF = re.compile(r"@([^@]+)@")


def folded_text(marked: str) -> str:
    return _LEAF.sub(r"\1", marked)


def expr_text():
    return marked_expr().map(folded_text)


def routed(marked: str):
    """``(text, widths, values)``: every marked leaf read from an input
    port of the leaf's width, to be driven with the leaf's masked value."""
    widths: dict = {}
    values: dict = {}

    def port(match) -> str:
        leaf = parse_expr(match.group(1))
        name = (f"p_{leaf.name}" if isinstance(leaf, ast.Id)
                else f"k{len(widths)}")
        widths[name] = ref_width(leaf)
        values[name] = ref_eval(leaf, {})
        return name

    return _LEAF.sub(port, marked), widths, values


def module_for(expr: str, extra_ports=()) -> str:
    """``extra_ports``: ``(name, width)`` inputs besides ``INPUTS``."""
    ports = ", ".join(
        f"input [{w - 1}:0] {n}" if w > 1 else f"input {n}"
        for n, w in [*INPUTS.items(), *extra_ports]
    )
    params = ", ".join(f"parameter {n} = {v}" for n, v in PARAMS.items())
    return f"""
module m #({params}) (input clk, {ports}, output [{OUT_WIDTH - 1}:0] y);
  assign y = {expr};
endmodule
"""


# A wire ``t`` read by ``y`` in each shape the generator may compute a
# value only on the paths that read it (repro.codegen.sinking): name ->
# (the module text after ``t`` and ``u``, y from t, u and the inputs).
# ``twice`` and ``child`` keep ``t`` in place.
MASK = (1 << OUT_WIDTH) - 1
GUARDED_SHAPES = {
    "tern": ("assign y = d ? t : u;", lambda t, u, env: t if env["d"] else u),
    "if": ("""reg [15:0] r;
  always @(*) begin
    if (d)
      r = t;
    else
      r = u;
  end
  assign y = r;""", lambda t, u, env: t if env["d"] else u),
    "case": ("""reg [15:0] r;
  always @(*) begin
    case (a[1:0])
      2'd0: r = t;
      2'd1: r = u;
      2'd2: r = t ^ u;
      default: r = 16'd0;
    endcase
  end
  assign y = r;""", lambda t, u, env: [t, u, t ^ u, 0][env["a"] & 3]),
    "andand": ("assign y = {15'd0, d && (t > u)};",
               lambda t, u, env: int(bool(env["d"]) and t > u)),
    "oror": ("assign y = {15'd0, d || (t == u)};",
             lambda t, u, env: int(bool(env["d"]) or t == u)),
    "exclusive": ("assign y = d ? t + u : t ^ u;",
                  lambda t, u, env: (t + u) & MASK if env["d"] else t ^ u),
    "twice": ("assign y = d ? t * t : u;",
              lambda t, u, env: t * t & MASK if env["d"] else u),
    "child": ("""wire [15:0] z;
  inc i0 (.p(t), .q(z));
  assign y = d ? t : z;""", lambda t, u, env: t if env["d"] else (t + 1) & MASK),
}


def shaped_module(shape: str, t: str, u: str) -> str:
    ports = ", ".join(
        f"input [{w - 1}:0] {n}" if w > 1 else f"input {n}"
        for n, w in INPUTS.items()
    )
    params = ", ".join(f"parameter {n} = {v}" for n, v in PARAMS.items())
    return f"""
module inc (input [15:0] p, output [15:0] q);
  assign q = p + 16'd1;
endmodule
module m #({params}) (input clk, {ports}, output [{OUT_WIDTH - 1}:0] y);
  wire [15:0] t;
  wire [15:0] u;
  assign t = {t};
  assign u = {u};
  {GUARDED_SHAPES[shape][0]}
endmodule
"""


STIMULI = [
    {"a": 0, "b": 0, "c": 0, "d": 0},
    {"a": 255, "b": 255, "c": 65535, "d": 1},
    {"a": 0x80, "b": 0x7F, "c": 0x8000, "d": 1},
    {"a": 1, "b": 2, "c": 3, "d": 0},
    {"a": 0xAA, "b": 0x55, "c": 0x1234, "d": 1},
]


class TestExpressionFuzz:
    @given(expr=expr_text())
    @settings(max_examples=120, deadline=None)
    def test_pygen_matches_reference(self, expr):
        tree = parse_expr(expr)
        source = module_for(expr)
        netlist, library = compile_design(source, "m")
        pipe = Pipe(netlist.top, library)
        out_mask = (1 << OUT_WIDTH) - 1
        for env in STIMULI:
            pipe.set_inputs(**env)
            expected = ref_eval(tree, env) & out_mask
            assert pipe.eval()["y"] == expected, expr

    @given(expr=expr_text())
    @settings(max_examples=60, deadline=None)
    def test_opt_levels_bit_exact(self, expr):
        """opt=full (constant folding + dead logic + guards) must agree
        with the unoptimized build on every stimulus — the optimization
        passes may only change *how* the value is computed."""
        source = module_for(expr)
        plain_netlist, plain_lib = compile_design(source, "m")
        opt_netlist, opt_lib = compile_design(source, "m", opt="full")
        plain = Pipe(plain_netlist.top, plain_lib)
        opt = Pipe(opt_netlist.top, opt_lib)
        for env in STIMULI:
            plain.set_inputs(**env)
            opt.set_inputs(**env)
            assert plain.eval()["y"] == opt.eval()["y"], expr

    @given(marked=marked_expr())
    @settings(max_examples=200, deadline=None)
    def test_folded_equals_routed_through_ports(self, marked):
        """The transformed and the untransformed form on one stimulus:
        with its constant leaves behind input ports an expression
        cannot fold, at elaboration or in the optimiser, and the folded
        build has to compute the same ``y``."""
        text, widths, values = routed(marked)
        for opt in ("none", "full"):
            netlist, library = compile_design(
                module_for(folded_text(marked)), "m", opt=opt)
            folded = Pipe(netlist.top, library)
            netlist, library = compile_design(
                module_for(text, widths.items()), "m", opt=opt)
            unfolded = Pipe(netlist.top, library)
            for env in STIMULI:
                folded.set_inputs(**env)
                unfolded.set_inputs(**env, **values)
                assert folded.eval()["y"] == unfolded.eval()["y"], (
                    marked, opt, env)

    @given(expr=expr_text())
    @settings(max_examples=40, deadline=None)
    def test_all_four_compilers_agree(self, expr):
        source = module_for(expr)
        pipes = []
        for style in ("branch", "select"):
            netlist, library = compile_design(source, "m", mux_style=style)
            pipes.append(Pipe(netlist.top, library))
            flat = compile_flat(elaborate(parse(source), "m"),
                                mux_style=style)
            pipes.append(Pipe(flat.key, {flat.key: flat}))
        for env in STIMULI:
            values = set()
            for pipe in pipes:
                pipe.set_inputs(**env)
                values.add(pipe.eval()["y"])
            assert len(values) == 1, (expr, env, values)

    @given(shape=st.sampled_from(sorted(GUARDED_SHAPES)),
           t=expr_text(), u=expr_text())
    @settings(max_examples=80, deadline=None)
    def test_guarded_reads_match_reference(self, shape, t, u):
        """A wire read only on some paths, in every shape, through the
        shared compiler clean, at ``opt=full``, sanitized and with the
        ``select`` mux style, and the flat one: each against the
        reference."""
        source = shaped_module(shape, t, u)
        netlist = elaborate(parse(source), "m")
        pipes = [Pipe(netlist.top, compile_netlist(netlist, build, runtime))
                 for build, runtime in (
                     (BuildConfig(), None),
                     (BuildConfig(opt="full"), None),
                     (BuildConfig(sanitize=True), SanitizerRuntime("report")),
                     (BuildConfig(mux_style="select"), None),
                 )]
        # Clean, t is computed where it is read unless a shape reads it
        # twice on one path or passes it to a child.
        kept = "v_t = " in pipes[0].top.code.source
        assert kept == (shape in ("twice", "child")), (shape, t)
        flat = compile_flat(netlist)
        pipes.append(Pipe(flat.key, {flat.key: flat}))
        t_tree, u_tree = parse_expr(t), parse_expr(u)
        for env in STIMULI:
            expected = GUARDED_SHAPES[shape][1](
                ref_eval(t_tree, env) & MASK, ref_eval(u_tree, env) & MASK, env)
            for pipe in pipes:
                pipe.set_inputs(**env)
                assert pipe.eval()["y"] == expected, (shape, t, u, env)
