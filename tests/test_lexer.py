"""Lexer unit tests: token classification, literals, comments, errors."""

import glob
import hashlib
import os

import pytest

from repro.hdl.errors import LexError
from repro.hdl.lexer import behavioral_fingerprint, tokenize
from repro.hdl.source_regions import module_regions
from repro.hdl.tokens import (
    EOF, IDENT, KEYWORD, NUMBER, OP, PUNCT, SIZED_NUMBER, SYSCALL,
)
from repro.riscv.pgas import build_pgas_source

DESIGNS = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "designs"
)


def kinds(text):
    return [(t.kind, t.value) for t in tokenize(text)[:-1]]


class TestBasicTokens:
    def test_keywords_recognized(self):
        assert kinds("module endmodule wire reg") == [
            (KEYWORD, "module"),
            (KEYWORD, "endmodule"),
            (KEYWORD, "wire"),
            (KEYWORD, "reg"),
        ]

    def test_identifiers(self):
        assert kinds("foo _bar x42 a$b") == [
            (IDENT, "foo"), (IDENT, "_bar"), (IDENT, "x42"), (IDENT, "a$b"),
        ]

    def test_identifier_at_end_of_input(self):
        # Regression: '' in "_$" is True, which once made this loop forever.
        toks = tokenize("endmodule")
        assert toks[0].value == "endmodule"
        assert toks[-1].kind == EOF

    def test_punctuation_and_operators(self):
        assert kinds("( ) [ ] { } ; , # @ = .") == [
            (PUNCT, c) for c in "()[]{};,#@=."
        ]

    def test_eof_token_present(self):
        assert tokenize("")[-1].kind == EOF

    def test_syscall_token(self):
        assert kinds("$signed $clog2") == [
            (SYSCALL, "$signed"), (SYSCALL, "$clog2"),
        ]

    def test_bare_dollar_rejected(self):
        with pytest.raises(LexError):
            tokenize("$ ")

    def test_unknown_character_rejected(self):
        with pytest.raises(LexError):
            tokenize("a \\ b")


class TestNumbers:
    def test_plain_decimal(self):
        tok = tokenize("1234")[0]
        assert tok.kind == NUMBER
        assert tok.num_value == 1234

    def test_decimal_with_underscores(self):
        assert tokenize("1_000_000")[0].num_value == 1000000

    def test_sized_hex(self):
        tok = tokenize("8'hFF")[0]
        assert tok.kind == SIZED_NUMBER
        assert (tok.num_width, tok.num_value) == (8, 255)

    def test_sized_binary(self):
        tok = tokenize("4'b1010")[0]
        assert (tok.num_width, tok.num_value) == (4, 10)

    def test_sized_decimal(self):
        tok = tokenize("12'd100")[0]
        assert (tok.num_width, tok.num_value) == (12, 100)

    def test_sized_octal(self):
        tok = tokenize("6'o77")[0]
        assert (tok.num_width, tok.num_value) == (6, 63)

    def test_sized_literal_truncates_to_width(self):
        tok = tokenize("4'hFF")[0]
        assert tok.num_value == 0xF

    def test_unsized_based_literal_defaults_32(self):
        tok = tokenize("'b1")[0]
        assert (tok.num_width, tok.num_value) == (32, 1)

    def test_empty_sized_literal_rejected(self):
        with pytest.raises(LexError):
            tokenize("8'h ;")

    def test_bad_base_rejected(self):
        with pytest.raises(LexError):
            tokenize("8'q0")

    def test_zero_width_rejected(self):
        with pytest.raises(LexError):
            tokenize("0'd1")


class TestOperators:
    def test_multi_char_operators_greedy(self):
        assert kinds("<= >= == != && || << >> >>>") == [
            (OP, "<="), (OP, ">="), (OP, "=="), (OP, "!="),
            (OP, "&&"), (OP, "||"), (OP, "<<"), (OP, ">>"), (OP, ">>>"),
        ]

    def test_indexed_part_select_ops(self):
        assert kinds("+: -:") == [(OP, "+:"), (OP, "-:")]

    def test_arrowless_single_ops(self):
        assert kinds("+ - * / % & | ^ ~ ! < > ?") == [
            (OP, c) for c in "+-*/%&|^~!<>?"
        ]


class TestComments:
    def test_line_comment_skipped(self):
        assert kinds("a // comment here\nb") == [(IDENT, "a"), (IDENT, "b")]

    def test_line_comment_at_eof(self):
        assert kinds("a // trailing") == [(IDENT, "a")]

    def test_block_comment_skipped(self):
        assert kinds("a /* x\ny */ b") == [(IDENT, "a"), (IDENT, "b")]

    def test_unterminated_block_comment_rejected(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_line_numbers_track_newlines(self):
        toks = tokenize("a\n  b\n    c")
        assert [t.line for t in toks[:-1]] == [1, 2, 3]
        assert toks[1].col == 3


class TestFingerprint:
    def test_comment_changes_do_not_change_fingerprint(self):
        a = behavioral_fingerprint("assign x = a + b; // one")
        b = behavioral_fingerprint("assign x = a + b; // two")
        assert a == b

    def test_whitespace_changes_do_not_change_fingerprint(self):
        a = behavioral_fingerprint("assign x=a+b;")
        b = behavioral_fingerprint("assign  x =\n  a + b ;")
        assert a == b

    def test_behavioral_change_changes_fingerprint(self):
        a = behavioral_fingerprint("assign x = a + b;")
        b = behavioral_fingerprint("assign x = a - b;")
        assert a != b

    def test_equivalent_literals_same_fingerprint(self):
        # 8'hFF and 8'd255 encode the same value and width.
        assert behavioral_fingerprint("8'hFF") == behavioral_fingerprint("8'd255")

    def test_different_width_literal_differs(self):
        assert behavioral_fingerprint("8'd1") != behavioral_fingerprint("9'd1")

    def test_renamed_identifier_differs(self):
        assert behavioral_fingerprint("wire a;") != behavioral_fingerprint("wire b;")


def positions(text, start_line=1):
    return [(t.value, t.line, t.col) for t in tokenize(text, start_line)]


class TestErrorParity:
    """Message, line and column of every malformed input, as the
    character-walking lexer (before PR 20) reported them."""

    @pytest.mark.parametrize("text, message, line, col", [
        ("a /* never closed", "unterminated block comment", 1, 3),
        ("a\n  /* never\nclosed", "unterminated block comment", 2, 3),
        ("$ ", "bare '$' is not a valid token", 1, 1),
        ("8'q0", "unknown number base 'q'", 1, 1),
        ("12'Q", "unknown number base 'q'", 1, 1),
        ("8'h ;", "sized literal with no digits", 1, 1),
        ("8'h", "sized literal with no digits", 1, 1),
        ("'", "unknown number base ''", 1, 1),
        ("x = 8'", "unknown number base ''", 1, 5),
        ("4'b_", "sized literal with no digits", 1, 1),
        ("0'd1", "sized literal must have positive width", 1, 1),
        ("a \\ b", "unexpected character '\\\\'", 1, 3),
    ])
    def test_malformed_input(self, text, message, line, col):
        with pytest.raises(LexError) as err:
            tokenize(text)
        assert str(err.value) == f"line {line}:{col}: {message}"
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize("text, char, col", [
        ("assign x = \u00b2;", "\u00b2", 12),
        ("assign x = 1\u00b2;", "\u00b2", 13),
        ("wire \u00e9;", "\u00e9", 6),
        ("wire a\u00e9;", "\u00e9", 7),
    ])
    def test_non_ascii_is_a_lex_error(self, text, char, col):
        # The one intended difference: str.isdigit / isalpha accepted
        # these, ending in a ValueError or an identifier.
        with pytest.raises(LexError) as err:
            tokenize("\n" + text)
        assert str(err.value) == f"line 2:{col}: unexpected character {char!r}"

    def test_non_ascii_in_comments_is_skipped(self):
        assert kinds("a // \u00e9\n/* \u00b2 */ b") == [
            (IDENT, "a"), (IDENT, "b"),
        ]

    def test_a_failing_match_is_linear(self):
        # Whitespace and comments have one parse, so the pattern cannot
        # backtrack through every split of a long run before it fails.
        with pytest.raises(LexError) as err:
            tokenize("/*a*/ " * 2000 + " " * 2000 + "\\")
        assert (err.value.line, err.value.col) == (1, 14001)


class TestPositions:
    def test_crlf(self):
        assert positions("a\r\nb\r\n  c") == [
            ("a", 1, 1), ("b", 2, 1), ("c", 3, 3), ("", 3, 4),
        ]

    def test_tab_is_one_column(self):
        assert positions("\ta\tb") == [("a", 1, 2), ("b", 1, 4), ("", 1, 5)]

    def test_line_comment_at_eof_without_newline(self):
        assert positions("a // c") == [("a", 1, 1), ("", 1, 7)]

    def test_block_comment_spanning_lines(self):
        assert positions("a /* x\ny */ b /* z */\n c") == [
            ("a", 1, 1), ("b", 2, 6), ("c", 3, 2), ("", 3, 3),
        ]
        assert positions("x /* 1\n2\n3 */   y") == [
            ("x", 1, 1), ("y", 3, 8), ("", 3, 9),
        ]

    def test_start_line_offsets_tokens_and_errors(self):
        assert positions("a\n b", start_line=41) == [
            ("a", 41, 1), ("b", 42, 2), ("", 42, 3),
        ]
        with pytest.raises(LexError, match="line 42:3: bare"):
            tokenize("a\n  $", start_line=41)


def _design_texts():
    texts = {"pgas2": build_pgas_source(2)}
    for path in sorted(glob.glob(os.path.join(DESIGNS, "*.v"))):
        with open(path) as fh:
            texts[os.path.basename(path)] = fh.read()
    return texts


class TestGoldenStreams:
    """The language did not move: digests computed at the parent of
    PR 20 (commit 9373243), whose lexer walked characters."""

    GOLDEN = {
        # name: (token stream digest, region fingerprints digest)
        "pgas2": ("76d8a01741cd2ec1", "4a042fd2a317fce5"),
        "counter.v": ("228e595be490a81d", "8aecf67b14b49c9f"),
        "pitfalls.v": ("af9afeab6255daa7", "d1afda3d924ed8e0"),
        "ranges.v": ("00f722c12e216692", "402606f717d70a5b"),
        "ring.v": ("01a5ee8a510fabe2", "4246cedb3307b96a"),
    }

    def test_every_design_is_pinned(self):
        assert set(_design_texts()) == set(self.GOLDEN)

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_token_stream_and_fingerprints(self, name):
        text = _design_texts()[name]
        stream = repr([
            (t.kind, t.value, t.line, t.col, t.num_value, t.num_width)
            for t in tokenize(text)
        ])
        fingerprints = repr(sorted(
            (module, behavioral_fingerprint(region.text))
            for module, region in module_regions(text).items()
        ))
        assert (
            hashlib.sha256(stream.encode()).hexdigest()[:16],
            hashlib.sha256(fingerprints.encode()).hexdigest()[:16],
        ) == self.GOLDEN[name]
