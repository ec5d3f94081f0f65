"""Expression semantics: compile tiny designs, compare against Python.

These are the ground-truth tests for the code generator — every
operator's masking, signedness, and edge behaviour is exercised through
a real compile+simulate round trip, including Hypothesis property tests
against a reference model.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import compile_design
from repro.sim import Pipe

U8 = st.integers(min_value=0, max_value=255)
U16 = st.integers(min_value=0, max_value=65535)
U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


def comb_pipe(expr: str, out_width: int = 8, in_width: int = 8,
              inputs=("a", "b")) -> Pipe:
    ports = ", ".join(f"input [{in_width - 1}:0] {name}" for name in inputs)
    source = f"""
module m (input clk, {ports}, output [{out_width - 1}:0] y);
  assign y = {expr};
endmodule
"""
    netlist, library = compile_design(source, "m")
    return Pipe(netlist.top, library)


def evaluate(expr: str, out_width: int = 8, in_width: int = 8, **values) -> int:
    pipe = comb_pipe(expr, out_width, in_width, tuple(values))
    pipe.set_inputs(**values)
    return pipe.eval()["y"]


class TestArithmetic:
    def test_addition_wraps(self):
        assert evaluate("a + b", a=200, b=100) == (300 & 0xFF)

    def test_subtraction_wraps(self):
        assert evaluate("a - b", a=3, b=5) == (3 - 5) & 0xFF

    def test_multiplication_masks(self):
        assert evaluate("a * b", a=20, b=20) == (400 & 0xFF)

    def test_division(self):
        assert evaluate("a / b", a=42, b=5) == 8

    def test_division_by_zero_is_all_ones(self):
        assert evaluate("a / b", a=42, b=0) == 0xFF

    def test_modulo(self):
        assert evaluate("a % b", a=42, b=5) == 2

    def test_modulo_by_zero_is_lhs(self):
        assert evaluate("a % b", a=42, b=0) == 42

    @given(a=U8, b=U8)
    @settings(max_examples=40, deadline=None)
    def test_add_matches_model(self, a, b):
        assert evaluate("a + b", a=a, b=b) == (a + b) & 0xFF

    @given(a=U8, b=U8)
    @settings(max_examples=40, deadline=None)
    def test_sub_matches_model(self, a, b):
        assert evaluate("a - b", a=a, b=b) == (a - b) & 0xFF


class TestBitwiseAndLogical:
    def test_and_or_xor(self):
        assert evaluate("a & b", a=0b1100, b=0b1010) == 0b1000
        assert evaluate("a | b", a=0b1100, b=0b1010) == 0b1110
        assert evaluate("a ^ b", a=0b1100, b=0b1010) == 0b0110

    def test_not_masks_to_width(self):
        assert evaluate("~a", a=0) == 0xFF
        assert evaluate("~a", a=0xF0) == 0x0F

    def test_logical_ops_produce_bits(self):
        assert evaluate("a && b", a=7, b=9) == 1
        assert evaluate("a && b", a=7, b=0) == 0
        assert evaluate("a || b", a=0, b=0) == 0
        assert evaluate("!a", a=0) == 1
        assert evaluate("!a", a=5) == 0

    def test_reduction_and(self):
        assert evaluate("&a", out_width=1, a=0xFF) == 1
        assert evaluate("&a", out_width=1, a=0xFE) == 0

    def test_reduction_or(self):
        assert evaluate("|a", out_width=1, a=0) == 0
        assert evaluate("|a", out_width=1, a=2) == 1

    def test_reduction_xor_is_parity(self):
        assert evaluate("^a", out_width=1, a=0b1011) == 1
        assert evaluate("^a", out_width=1, a=0b1010) == 0


class TestShifts:
    def test_left_shift_masks(self):
        assert evaluate("a << b", a=0x81, b=1) == 0x02

    def test_oversized_left_shift_is_zero(self):
        assert evaluate("a << b", a=0xFF, b=200) == 0

    def test_right_shift(self):
        assert evaluate("a >> b", a=0x80, b=3) == 0x10

    def test_arithmetic_shift_unsigned_base(self):
        # Without $signed the >>> behaves logically.
        assert evaluate("a >>> b", a=0x80, b=3) == 0x10

    def test_arithmetic_shift_signed(self):
        assert evaluate("$signed(a) >>> b", a=0x80, b=3) == 0xF0

    @given(a=U8, b=st.integers(min_value=0, max_value=15))
    @settings(max_examples=40, deadline=None)
    def test_sra_matches_model(self, a, b):
        signed = a - 256 if a >= 128 else a
        expected = (signed >> b) & 0xFF
        assert evaluate("$signed(a) >>> b", a=a, b=b) == expected


class TestComparisons:
    def test_unsigned_compare(self):
        assert evaluate("a < b", out_width=1, a=0x80, b=0x7F) == 0

    def test_signed_compare(self):
        # 0x80 is -128 signed, so it is less than 0x7F (=127).
        assert evaluate(
            "$signed(a) < $signed(b)", out_width=1, a=0x80, b=0x7F
        ) == 1

    def test_equality(self):
        assert evaluate("a == b", out_width=1, a=5, b=5) == 1
        assert evaluate("a != b", out_width=1, a=5, b=6) == 1

    @given(a=U8, b=U8)
    @settings(max_examples=40, deadline=None)
    def test_signed_lt_matches_model(self, a, b):
        sa = a - 256 if a >= 128 else a
        sb = b - 256 if b >= 128 else b
        assert evaluate(
            "$signed(a) < $signed(b)", out_width=1, a=a, b=b
        ) == int(sa < sb)


class TestSelectsAndConcat:
    def test_bit_select(self):
        assert evaluate("a[7]", out_width=1, a=0x80) == 1
        assert evaluate("a[0]", out_width=1, a=0x80) == 0

    def test_part_select(self):
        assert evaluate("a[7:4]", out_width=4, a=0xA5) == 0xA

    def test_indexed_part_select(self):
        assert evaluate("a[b +: 4]", out_width=4, a=0xA5, b=4) == 0xA

    def test_indexed_part_select_descending(self):
        assert evaluate("a[b -: 4]", out_width=4, a=0xA5, b=7) == 0xA

    def test_concat(self):
        assert evaluate("{a[3:0], b[3:0]}", a=0x0A, b=0x05) == 0xA5

    def test_replication(self):
        assert evaluate("{4{a[1:0]}}", a=0b10) == 0b10101010

    def test_replication_of_bit(self):
        assert evaluate("{8{a[0]}}", a=1) == 0xFF

    def test_sign_extension_idiom(self):
        # {{4{x[3]}}, x[3:0]} — the standard sign-extension pattern.
        assert evaluate("{{4{a[3]}}, a[3:0]}", a=0x8) == 0xF8
        assert evaluate("{{4{a[3]}}, a[3:0]}", a=0x7) == 0x07

    @given(a=U8, b=U8)
    @settings(max_examples=40, deadline=None)
    def test_concat_matches_model(self, a, b):
        assert evaluate(
            "{a, b}", out_width=16, a=a, b=b
        ) == ((a << 8) | b)


class TestTernary:
    def test_select_both_ways(self):
        assert evaluate("a[0] ? b : 8'd9", a=1, b=42) == 42
        assert evaluate("a[0] ? b : 8'd9", a=0, b=42) == 9

    def test_nested_ternary(self):
        expr = "a[1] ? 8'd1 : a[0] ? 8'd2 : 8'd3"
        assert evaluate(expr, a=0b10) == 1
        assert evaluate(expr, a=0b01) == 2
        assert evaluate(expr, a=0b00) == 3

    def test_select_mux_style_equivalent(self):
        source = """
module m (input clk, input [7:0] a, input [7:0] b, input s,
          output [7:0] y);
  assign y = s ? a : b;
endmodule
"""
        for style in ("branch", "select"):
            netlist, library = compile_design(source, "m", mux_style=style)
            pipe = Pipe(netlist.top, library)
            pipe.set_inputs(a=11, b=22, s=1)
            assert pipe.eval()["y"] == 11
            pipe.set_inputs(s=0)
            assert pipe.eval()["y"] == 22


class TestWideValues:
    def test_64bit_addition(self):
        big = (1 << 64) - 1
        assert evaluate(
            "a + b", out_width=64, in_width=64, a=big, b=1
        ) == 0

    def test_64bit_signed_compare(self):
        top_bit = 1 << 63
        assert evaluate(
            "$signed(a) < $signed(b)", out_width=1, in_width=64,
            a=top_bit, b=0,
        ) == 1

    @given(a=U64, b=U64)
    @settings(max_examples=30, deadline=None)
    def test_64bit_ops_match_model(self, a, b):
        mask = (1 << 64) - 1
        assert evaluate(
            "(a ^ b) + (a & b)", out_width=64, in_width=64, a=a, b=b
        ) == ((a ^ b) + (a & b)) & mask


class TestInputMasking:
    def test_oversized_input_masked(self):
        pipe = comb_pipe("a", inputs=("a",))
        pipe.set_inputs(a=0x1FF)  # wider than the 8-bit port
        assert pipe.eval()["y"] == 0xFF


class TestFoldedEqualsRuntime:
    """A constant folds to what the generated code would have computed.

    Elaboration folds parameters and literals before either build
    flavour sees them, so every pair here is one folded expression and
    the same expression over inputs that hold the same values.
    """

    OPTS = ("none", "full")

    @staticmethod
    def outputs(exprs, opt, width=40, params="P = 1", **inputs):
        """``exprs`` become ``width``-bit outputs ``y0, y1, ...`` of a
        module with 8-bit inputs ``x``, ``z``, ``w``, ``d``."""
        outs = ", ".join(f"output [{width - 1}:0] y{i}"
                         for i in range(len(exprs)))
        assigns = "\n".join(f"  assign y{i} = {expr};"
                            for i, expr in enumerate(exprs))
        source = f"""
module m #(parameter {params}, parameter N = -1, parameter D = 7,
           parameter Z = 0)
         (input clk, input [7:0] x, input [7:0] z, input [7:0] w,
          input [7:0] d, {outs});
{assigns}
endmodule
"""
        netlist, library = compile_design(source, "m", opt=opt)
        pipe = Pipe(netlist.top, library)
        pipe.set_inputs(**inputs)
        out = pipe.eval()
        return [out[f"y{i}"] for i in range(len(exprs))]

    def test_bare_decimal_is_as_wide_as_its_magnitude(self):
        for opt in self.OPTS:
            assert self.outputs(
                ["4294967296", "4294967296 + 0", "x + 4294967296",
                 "-4294967296", "-(x + 4294967296)"], opt, x=0,
            ) == [1 << 32] * 5  # the negations wrap at 33 bits

    def test_parameter_selects_have_the_width_of_a_select(self):
        pairs = [("~P[0]", "~w[0]"),
                 ("~{P[0], 1'b1}", "~{w[0], 1'b1}"),
                 ("~P[3:1]", "~w[3:1]"),
                 ("~{P[1 +: 2], 1'b1}", "~{w[1 +: 2], 1'b1}"),
                 ("~{P[2 -: 2], 1'b1}", "~{w[2 -: 2], 1'b1}")]
        for opt in self.OPTS:
            for value in (1, 5):
                got = self.outputs([e for pair in pairs for e in pair], opt,
                                   params=f"P = {value}", w=value)
                assert got[0::2] == got[1::2], (opt, value)
            assert got[:2] == [0, 0]  # value 5: ~P[0] is one bit wide

    def test_negative_parameter_compares_unsigned(self):
        for opt in self.OPTS:
            assert self.outputs(
                ["N < 0", "N < z", "N > 0", "N > z", "N >> 31", "N / 2"],
                opt, z=0,
            ) == [0, 0, 1, 1, 1, 0x7FFFFFFF]

    def test_division_and_modulo_by_zero(self):
        for opt in self.OPTS:
            assert self.outputs(
                ["8'd7 / 8'd0", "8'd7 % 8'd0", "D / Z", "D % Z",
                 "d / z", "d % z"], opt, width=8, d=7, z=0,
            ) == [255, 7, 255, 7, 255, 7]
