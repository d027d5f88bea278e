"""Lexer for the C-like language: one compiled-regex scanner.

``tokenize`` returns a :class:`TokenStream`, a source's tokens as
parallel sequences, not as token objects:

* ``kinds``, ``texts`` and ``offsets`` hold each token's
  :class:`TokenKind`, spelling and character offset.  The last token is
  always ``EOF``, with text ``""`` at the end of the source.
* ``values`` maps the index of each integer literal to its value, and
  ``type_infos`` the index of each type name to its ``(width, signed)``,
  or ``None`` for ``void`` and ``bool``.
* ``line_starts`` is the offset at which each line starts.  A
  :class:`SourceLocation` is made from it, with ``bisect``, only when
  the parser builds an AST node or an error needs one: no token carries
  a location of its own.

The scanner's rules:

* **One alternation, matched by ``finditer``.**  Each match is trivia
  (whitespace, a ``//`` comment or a closed ``/* */`` comment, which
  captures no group) or one token and the whitespace after it.  The
  token's named group classifies it: ``op``, ``keyword``, ``type``
  (``void``, ``bool``, ``char``, ``int``, ``uint`` and the sized
  ``intN``/``uintN`` for N in 1..128), ``ident``, ``hex``, ``bin`` or
  ``dec``, so no token needs a second look to find its kind.  The
  remaining groups are errors: an unclosed ``/*``, a letter straight
  after a number, and any other character.  No group nests a
  quantifier, so a whole source scans in linear time.
* **ASCII only.**  Identifiers are ``[A-Za-z_][A-Za-z0-9_]*`` and digits
  are ``[0-9]``, which is what Verilog accepts for the names the back
  ends emit.  Any other character is an ``unexpected character`` error.
* **Maximal munch.**  Operators are tried longest first; a keyword or a
  type name must not run on into a longer name; a number runs as far as
  its digit class allows, and a letter directly after it is an error
  rather than the start of a name.

Lines and columns are 1-based; a column counts characters from the last
``\\n``, so a tab or a ``\\r`` is one column.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional

from .errors import LexError, SourceLocation
from .tokens import BASE_TYPES, KEYWORDS, TokenKind

# Punctuation and operator kinds are spelled by their values.
_OPERATORS = {
    kind.value: kind
    for kind in TokenKind
    if kind.name not in ("IDENT", "INT_LIT", "TYPE_NAME", "EOF")
    and not kind.name.startswith("KW_")
}

# (width, signed) of every type name, None for void and bool.
_TYPE_INFO: Dict[str, Optional[tuple]] = dict(BASE_TYPES)
for _width in range(1, 129):
    _TYPE_INFO[f"int{_width}"] = (_width, True)
    _TYPE_INFO[f"uint{_width}"] = (_width, False)

_WORD_END = r"(?![A-Za-z0-9_])"

# Whitespace after a token is part of the token's match, so most of it
# costs no match of its own: trivia matches alone only at the start of
# the source and for comments.
_SCANNER = re.compile(
    r"[ \t\r\n]+|//[^\n]*|/\*(?s:.*?)\*/"
    r"|(?:(?P<unclosed>/\*)"
    r"|(?P<op><<=|>>=|<<|>>|\+\+|--|&&|\|\||[-+*/%&|^<>=!]=?|[~()\[\]{};,?:])"
    r"|(?=[A-Za-z_])(?:"
    r"(?P<keyword>(?:" + "|".join(sorted(KEYWORDS)) + ")" + _WORD_END + ")"
    r"|(?P<type>(?:void|bool|char|u?int(?:12[0-8]|1[01][0-9]|[1-9][0-9]?)?)"
    + _WORD_END + ")"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*))"
    r"|(?:(?P<hex>0[xX][0-9a-fA-F_]*)|(?P<bin>0[bB][01_]*)|(?P<dec>[0-9][0-9_]*))"
    r"(?P<junk>[A-Za-z])?"
    r"|(?P<bad>.))[ \t\r\n]*"
)

_IDENT = TokenKind.IDENT
_INT_LIT = TokenKind.INT_LIT
_TYPE_NAME = TokenKind.TYPE_NAME


@dataclass(slots=True)
class TokenStream:
    """A source's tokens as parallel sequences, ending with ``EOF``."""

    kinds: List[TokenKind]
    texts: List[str]
    offsets: List[int]
    values: Dict[int, int]
    type_infos: Dict[int, Optional[tuple]]
    line_starts: List[int]
    filename: str

    def __len__(self) -> int:
        return len(self.kinds)

    def value(self, index: int) -> Optional[int]:
        """The value of an integer literal; None for any other token."""
        return self.values.get(index)

    def type_info(self, index: int) -> Optional[tuple]:
        """``(width, signed)`` of a sized type name; None otherwise."""
        return self.type_infos.get(index)

    def location(self, index: int) -> SourceLocation:
        """Where token ``index`` starts."""
        return self.location_at(self.offsets[index])

    def location_at(self, offset: int) -> SourceLocation:
        """Where the character at ``offset`` is."""
        starts = self.line_starts
        line = bisect_right(starts, offset)
        return SourceLocation(line, offset - starts[line - 1] + 1, self.filename)


def _line_starts(source: str) -> List[int]:
    starts = [0]
    find = source.find
    newline = find("\n")
    while newline >= 0:
        newline += 1
        starts.append(newline)
        newline = find("\n", newline)
    return starts


# Hex and binary literals: group -> (base, name in the error message).
_RADIX = {"hex": (16, "hex"), "bin": (2, "binary")}


def _radix_value(match: "re.Match[str]", stream: TokenStream) -> int:
    """The value of a hex or binary literal the scanner matched."""
    group = "hex" if match["hex"] else "bin"
    text = match[group]
    base, name = _RADIX[group]
    digits = text[2:].replace("_", "")
    if not digits:
        raise LexError(f"malformed {name} literal {text!r}",
                       stream.location_at(match.start()))
    return int(digits, base)


def _error(match: "re.Match[str]", stream: TokenStream) -> LexError:
    """The LexError for a match in one of the scanner's error groups."""
    location = stream.location_at(match.start())
    group = match.lastgroup
    if group == "unclosed":
        return LexError("unterminated block comment", location)
    if group == "bad":
        return LexError(f"unexpected character {match['bad']!r}", location)
    # A letter after a number: a malformed literal is reported first.
    if not match["dec"]:
        _radix_value(match, stream)
    text = match["hex"] or match["bin"] or match["dec"]
    return LexError(
        f"invalid character {match['junk']!r} after number {text!r}", location
    )


def tokenize(source: str, filename: str = "<input>") -> TokenStream:
    """Tokenize ``source`` completely, ending with a single EOF token."""
    kinds: List[TokenKind] = []
    texts: List[str] = []
    offsets: List[int] = []
    values: Dict[int, int] = {}
    type_infos: Dict[int, Optional[tuple]] = {}
    stream = TokenStream(kinds, texts, offsets, values, type_infos,
                         _line_starts(source), filename)
    add_kind = kinds.append
    add_text = texts.append
    add_offset = offsets.append
    operators = _OPERATORS
    keywords = KEYWORDS
    for match in _SCANNER.finditer(source):
        group = match.lastgroup
        if group is None:
            continue
        text = match[group]
        if group == "op":
            add_kind(operators[text])
        elif group == "ident":
            add_kind(_IDENT)
        elif group == "dec":
            values[len(kinds)] = int(text.replace("_", ""))
            add_kind(_INT_LIT)
        elif group == "keyword":
            add_kind(keywords[text])
        elif group == "type":
            type_infos[len(kinds)] = _TYPE_INFO[text]
            add_kind(_TYPE_NAME)
        elif group == "hex" or group == "bin":
            values[len(kinds)] = _radix_value(match, stream)
            add_kind(_INT_LIT)
        else:
            raise _error(match, stream)
        add_text(text)
        add_offset(match.start())
    add_kind(TokenKind.EOF)
    add_text("")
    add_offset(len(source))
    return stream
