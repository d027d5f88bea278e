"""Token kinds, keywords and base type names of the C-like language."""

from __future__ import annotations

import enum


class TokenKind(enum.Enum):
    # Literals and names
    IDENT = "identifier"
    INT_LIT = "integer literal"
    TYPE_NAME = "type name"  # int, bool, void, char, uintN, intN

    # Keywords
    KW_IF = "if"
    KW_ELSE = "else"
    KW_WHILE = "while"
    KW_DO = "do"
    KW_FOR = "for"
    KW_RETURN = "return"
    KW_BREAK = "break"
    KW_CONTINUE = "continue"
    KW_PAR = "par"
    KW_SEQ = "seq"
    KW_CHAN = "chan"
    KW_SEND = "send"
    KW_RECV = "recv"
    KW_WAIT = "wait"
    KW_DELAY = "delay"
    KW_WITHIN = "within"
    KW_TRUE = "true"
    KW_FALSE = "false"
    KW_CONST = "const"
    KW_PROCESS = "process"

    # Punctuation
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    SEMI = ";"
    COMMA = ","
    QUESTION = "?"
    COLON = ":"

    # Operators
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    AMP = "&"
    PIPE = "|"
    CARET = "^"
    TILDE = "~"
    BANG = "!"
    SHL = "<<"
    SHR = ">>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="
    NE = "!="
    LAND = "&&"
    LOR = "||"
    ASSIGN = "="
    PLUS_ASSIGN = "+="
    MINUS_ASSIGN = "-="
    STAR_ASSIGN = "*="
    SLASH_ASSIGN = "/="
    PERCENT_ASSIGN = "%="
    AMP_ASSIGN = "&="
    PIPE_ASSIGN = "|="
    CARET_ASSIGN = "^="
    SHL_ASSIGN = "<<="
    SHR_ASSIGN = ">>="
    INCREMENT = "++"
    DECREMENT = "--"

    EOF = "end of input"

    # Members are singletons, so identity is equality; hashing by identity
    # keeps the parser's kind-keyed tables off ``Enum.__hash__``, which
    # runs Python code on every lookup.
    __hash__ = object.__hash__


KEYWORDS = {
    "if": TokenKind.KW_IF,
    "else": TokenKind.KW_ELSE,
    "while": TokenKind.KW_WHILE,
    "do": TokenKind.KW_DO,
    "for": TokenKind.KW_FOR,
    "return": TokenKind.KW_RETURN,
    "break": TokenKind.KW_BREAK,
    "continue": TokenKind.KW_CONTINUE,
    "par": TokenKind.KW_PAR,
    "seq": TokenKind.KW_SEQ,
    "chan": TokenKind.KW_CHAN,
    "send": TokenKind.KW_SEND,
    "recv": TokenKind.KW_RECV,
    "wait": TokenKind.KW_WAIT,
    "delay": TokenKind.KW_DELAY,
    "within": TokenKind.KW_WITHIN,
    "true": TokenKind.KW_TRUE,
    "false": TokenKind.KW_FALSE,
    "const": TokenKind.KW_CONST,
    "process": TokenKind.KW_PROCESS,
}

# Base type names and their (width, signed), None for void and bool;
# sized variants (uint7, int12) are matched by the lexer.
BASE_TYPES = {
    "void": None,
    "bool": None,
    "int": (32, True),
    "uint": (32, False),
    "char": (8, True),
}
