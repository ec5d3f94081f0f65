"""Lexer for LHDL, the Verilog subset used throughout this reproduction.

One compiled master pattern, driven by ``match(text, pos)``: each match
skips whitespace and comments and takes one token.  A token's line and
column come from counting the newlines the match skipped (no token
spans a line), starting at ``start_line``, so a module region lexed on
its own is born at its line in the file.  :func:`tokenize` is the only
scanner; :func:`parts_fingerprint` hashes what :func:`fingerprint_parts`
takes from a list it produced, which is how LiveParser fingerprints a
changed region and LiveCompiler parses it from one lex.  Block comments
aside, no token and nothing the scanner carries from one token to the
next crosses a line end, so text without ``/*`` lexes line by line as
it does whole (LiveParser lexes only the lines an edit changed).

The lexer works on preprocessed text (see ``repro.hdl.preprocessor``)
and on raw text, where a `` `NAME`` reference becomes a ``MACRO`` token
so LiveParser can fingerprint module regions before preprocessing.
Comments are skipped, so LiveParser can tell comment-only edits apart
from behavioural ones by comparing token streams rather than raw text.

Identifier, digit and base characters are ASCII classes: ``é`` or ``²``
is a :class:`LexError` naming the character and its position
(``str.isalpha`` / ``str.isdigit`` once let them through, into an
identifier or a ``ValueError``).
"""

from __future__ import annotations

import hashlib
import re
from functools import partial
from typing import Iterable, List

from .errors import LexError
from .tokens import (
    EOF,
    IDENT,
    KEYWORD,
    KEYWORDS,
    MACRO,
    MULTI_CHAR_OPS,
    NUMBER,
    OP,
    PUNCT,
    PUNCTUATION,
    SINGLE_CHAR_OPS,
    SIZED_NUMBER,
    SYSCALL,
    Token,
)

_BASE_RADIX = {"h": 16, "d": 10, "b": 2, "o": 8}
# Token(*fields) without the Python-level ``__new__`` a NamedTuple
# generates: one C call per token, a fifth of the time to lex a region.
_token = partial(tuple.__new__, Token)


def _char_class(chars: Iterable[str]) -> str:
    return "[" + re.escape("".join(sorted(chars))) + "]"


# Whitespace and comments, written so that a run has one parse (blanks,
# then comment + blanks, repeated; a block comment ends at its first
# ``*/``): a match that fails after it fails in linear time.
_SKIP = re.compile(
    r"[ \t\r\n]*(?:(?://[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)[ \t\r\n]*)*"
)
# Every token group is named by the kind it lexes to (IDENT also covers
# keywords; _BAD is no kind).  Order matters: a sized literal before a
# plain number, an unterminated comment (the only ``/*`` _SKIP leaves)
# before the ``/`` operator, multi-character operators before single.
_BAD = "BAD"
_TOKEN = re.compile(
    _SKIP.pattern
    + rf"(?:(?P<{IDENT}>[A-Za-z_][A-Za-z0-9_$]*)"
    rf"|(?P<{SIZED_NUMBER}>(?:[0-9][0-9_]*)?'"
    r"(?:[hH][0-9a-fA-F_]*|[dD][0-9_]*|[bB][01_]*|[oO][0-7_]*))"
    rf"|(?P<{NUMBER}>[0-9][0-9_]*)(?![0-9_'])"
    rf"|(?P<{_BAD}>/\*)"
    rf"|(?P<{OP}>" + "|".join(map(re.escape, MULTI_CHAR_OPS))
    + "|" + _char_class(SINGLE_CHAR_OPS) + ")"
    rf"|(?P<{PUNCT}>" + _char_class(PUNCTUATION) + ")"
    rf"|(?P<{SYSCALL}>\$[A-Za-z0-9_]+)"
    rf"|(?P<{MACRO}>`[A-Za-z0-9_]*)"
    rf"|(?P<{EOF}>\Z))"
)


def tokenize(text: str, start_line: int = 1) -> List[Token]:
    """Tokenize ``text`` (its first line being line ``start_line``)
    fully, returning the EOF token as the last item."""
    tokens: List[Token] = []
    append, match = tokens.append, _TOKEN.match
    pos, line, line_start = 0, start_line, 0
    while True:
        m = match(text, pos)
        kind = m.lastgroup if m is not None else _BAD
        if kind == _BAD:
            raise _error(text, pos, line)
        start, end = m.span(kind)
        if start != pos:
            newlines = text.count("\n", pos, start)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", pos, start) + 1
        col = start - line_start + 1
        value = text[start:end]
        pos = end
        if kind == IDENT:
            if value in KEYWORDS:
                kind = KEYWORD
            append(_token((kind, value, line, col, None, None)))
        elif kind == SIZED_NUMBER:
            append(_sized_number(value, line, col))
        elif kind == NUMBER:
            digits = value.replace("_", "")
            append(_token((NUMBER, digits, line, col, int(digits), None)))
        else:
            append(_token((kind, value, line, col, None, None)))
            if kind == EOF:
                return tokens


def _sized_number(text: str, line: int, col: int) -> Token:
    """``8'hFF`` / ``'b1`` (width defaults to 32), canonicalised."""
    digits, _, based = text.partition("'")
    base, body = based[0].lower(), based[1:].replace("_", "")
    if not body:
        raise LexError("sized literal with no digits", line, col)
    width = int(digits.replace("_", "")) if digits else 32
    if width <= 0:
        raise LexError("sized literal must have positive width", line, col)
    value = int(body, _BASE_RADIX[base]) & ((1 << width) - 1)
    text = f"{width}'{base}{body}"
    return _token((SIZED_NUMBER, text, line, col, value, width))


def _error(text: str, pos: int, line: int) -> LexError:
    """Why no token starts after the whitespace and comments at ``pos``."""
    start = _SKIP.match(text, pos).end()
    line += text.count("\n", pos, start)
    col = start - text.rfind("\n", 0, start)
    ch = text[start]
    if text.startswith("/*", start):
        return LexError("unterminated block comment", line, col)
    if ch == "$":
        return LexError("bare '$' is not a valid token", line, col)
    if ch in "0123456789'":
        # Digits lex unless a quote follows them, and a quote lexes
        # unless what follows it is no base.
        quote = text.index("'", start)
        base = text[quote + 1 : quote + 2].lower()
        return LexError(f"unknown number base {base!r}", line, col)
    return LexError(f"unexpected character {ch!r}", line, col)


def fingerprint_parts(tokens: Iterable[Token]) -> List[str]:
    """What a token stream's fingerprint hashes, one string per token:
    kinds, names and literal (value, width) pairs, not positions or how
    a literal was spelled.  Joined in order, the parts of the pieces of
    a stream are the stream's (LiveParser reuses an item's)."""
    return [
        f"{kind}\0{value}\1" if num is None else f"{kind}\0{num}/{width}\1"
        for kind, value, _, _, num, width in tokens
        if kind != EOF
    ]


def parts_fingerprint(parts: Iterable[str]) -> str:
    """The fingerprint of the stream ``parts`` describe, in order."""
    return hashlib.sha256("".join(parts).encode()).hexdigest()


def behavioral_fingerprint(text: str) -> str:
    """Hash of ``text``'s token stream, insensitive to comments and
    whitespace.

    LiveParser uses this to decide whether an edit changed behaviour
    (paper §III-C: "confirm that actual behavior was changed, not just
    comments or spacing").
    """
    return parts_fingerprint(fingerprint_parts(tokenize(text)))
