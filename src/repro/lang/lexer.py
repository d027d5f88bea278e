"""Lexer for the C-like language: one compiled-regex scanner.

The scanner's rules:

* **One anchored alternation.**  ``_SCANNER`` is matched at the current
  offset; its named groups are, in order, whitespace, newline, ``//``
  comment, the ``/*`` opener, number, word and operator.  No group nests
  a quantifier, so every match runs in time linear in its length and a
  whole source scans in linear time.  A block comment ends at the next
  ``*/``, found with ``str.find``.
* **ASCII only.**  Identifiers are ``[A-Za-z_][A-Za-z0-9_]*`` and digits
  are ``[0-9]``, which is what Verilog accepts for the names the back
  ends emit.  Any other character is an ``unexpected character`` error.
* **Maximal munch.**  Operators are tried longest first, and a number
  runs as far as its digit class allows; a letter directly after a
  number is an error rather than the start of a name.

Lines and columns are 1-based; a column counts characters from the last
``\\n``, so a tab or a ``\\r`` is one column.
"""

from __future__ import annotations

import re
from typing import List

from .errors import LexError, SourceLocation
from .tokens import BASE_TYPES, KEYWORDS, Token, TokenKind

_SIZED_TYPE_RE = re.compile(r"^(u?int)([1-9][0-9]*)$")

# Punctuation and operator kinds are spelled by their values.
_OPERATORS = {
    kind.value: kind
    for kind in TokenKind
    if kind.name not in ("IDENT", "INT_LIT", "TYPE_NAME", "EOF")
    and not kind.name.startswith("KW_")
}

_SCANNER = re.compile(
    r"(?P<space>[ \t\r]+)"
    r"|(?P<newline>\n)"
    r"|(?P<comment>//[^\n]*)"
    r"|(?P<block>/\*)"
    r"|(?P<number>0[xX][0-9a-fA-F_]*|0[bB][01_]*|[0-9][0-9_]*)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>"
    + "|".join(re.escape(op) for op in sorted(_OPERATORS, key=len, reverse=True))
    + ")"
)

_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")

# Keywords and base type names by spelling: (kind, type_info).
_WORDS = {text: (kind, None) for text, kind in KEYWORDS.items()}
_WORDS.update(
    (text, (TokenKind.TYPE_NAME, info)) for text, info in BASE_TYPES.items()
)


def _number_value(text: str, location: SourceLocation) -> int:
    prefix = text[:2]
    if prefix in ("0x", "0X"):
        digits = text[2:].replace("_", "")
        if not digits:
            raise LexError(f"malformed hex literal {text!r}", location)
        return int(digits, 16)
    if prefix in ("0b", "0B"):
        digits = text[2:].replace("_", "")
        if not digits:
            raise LexError(f"malformed binary literal {text!r}", location)
        return int(digits, 2)
    return int(text.replace("_", ""))


def _word_token(text: str, location: SourceLocation) -> Token:
    known = _WORDS.get(text)
    if known is not None:
        kind, info = known
        return Token(kind, text, location, None, info)
    sized = _SIZED_TYPE_RE.match(text)
    if sized:
        width = int(sized.group(2))
        if width <= 128:
            info = (width, sized.group(1) == "int")
            return Token(TokenKind.TYPE_NAME, text, location, None, info)
    return Token(TokenKind.IDENT, text, location)


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Tokenize ``source`` completely, ending with a single EOF token."""
    match = _SCANNER.match
    operators = _OPERATORS
    tokens: List[Token] = []
    append = tokens.append
    pos = 0
    end = len(source)
    line = 1
    line_start = 0
    while pos < end:
        m = match(source, pos)
        if m is None:
            location = SourceLocation(line, pos - line_start + 1, filename)
            raise LexError(f"unexpected character {source[pos]!r}", location)
        group = m.lastgroup
        next_pos = m.end()
        if group == "space" or group == "comment":
            pass
        elif group == "newline":
            line += 1
            line_start = next_pos
        elif group == "op":
            text = m.group()
            append(Token(operators[text], text,
                         SourceLocation(line, pos - line_start + 1, filename)))
        elif group == "word":
            append(_word_token(
                m.group(), SourceLocation(line, pos - line_start + 1, filename)))
        elif group == "number":
            text = m.group()
            location = SourceLocation(line, pos - line_start + 1, filename)
            value = _number_value(text, location)
            if source[next_pos:next_pos + 1] in _LETTERS:
                raise LexError(
                    f"invalid character {source[next_pos]!r} after number {text!r}",
                    location,
                )
            append(Token(TokenKind.INT_LIT, text, location, value))
        else:  # block comment
            close = source.find("*/", next_pos)
            if close < 0:
                location = SourceLocation(line, pos - line_start + 1, filename)
                raise LexError("unterminated block comment", location)
            next_pos = close + 2
            newlines = source.count("\n", pos, close)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", pos, close) + 1
        pos = next_pos
    append(Token(TokenKind.EOF, "", SourceLocation(line, pos - line_start + 1, filename)))
    return tokens
