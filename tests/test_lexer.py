"""Lexer unit tests."""

import pytest

from repro.lang import LexError, tokenize
from repro.lang.tokens import TokenKind


def kinds(source):
    return tokenize(source).kinds[:-1]  # drop EOF


def lex_error(source):
    """The (message, line, column) of the LexError ``source`` raises."""
    with pytest.raises(LexError) as info:
        tokenize(source)
    error = info.value
    return error.message, error.location.line, error.location.column


def positions(source):
    tokens = tokenize(source)
    return [
        (text, tokens.location(index).line, tokens.location(index).column)
        for index, text in enumerate(tokens.texts)
    ]


def test_empty_input_yields_only_eof():
    tokens = tokenize("")
    assert len(tokens) == 1
    assert tokens.kinds[0] is TokenKind.EOF


def test_identifiers_and_keywords():
    tokens = tokenize("if whilex while_ while")
    assert tokens.kinds[0] is TokenKind.KW_IF
    assert tokens.kinds[1] is TokenKind.IDENT
    assert tokens.kinds[2] is TokenKind.IDENT
    assert tokens.kinds[3] is TokenKind.KW_WHILE


def test_decimal_literal():
    tokens = tokenize("12345")
    assert tokens.kinds[0] is TokenKind.INT_LIT
    assert tokens.value(0) == 12345


def test_hex_literal():
    assert tokenize("0xFF").value(0) == 255
    assert tokenize("0x0").value(0) == 0
    assert tokenize("0xDEAD_BEEF").value(0) == 0xDEADBEEF


def test_binary_literal():
    assert tokenize("0b1010").value(0) == 10
    assert tokenize("0b1111_0000").value(0) == 0xF0


def test_underscore_separators_in_decimal():
    assert tokenize("1_000_000").value(0) == 1000000


def test_malformed_hex_rejected():
    assert lex_error("0x") == ("malformed hex literal '0x'", 1, 1)
    assert lex_error("y = 0x_;") == ("malformed hex literal '0x_'", 1, 5)


def test_malformed_binary_rejected():
    assert lex_error("0b") == ("malformed binary literal '0b'", 1, 1)
    assert lex_error("0b2") == ("malformed binary literal '0b'", 1, 1)


def test_binary_literal_stops_at_first_non_binary_digit():
    tokens = tokenize("0b12")
    assert [(text, tokens.value(i)) for i, text in enumerate(tokens.texts)][:-1] == [
        ("0b1", 1), ("2", 2)
    ]


def test_number_followed_by_letter_rejected():
    assert lex_error("123abc") == ("invalid character 'a' after number '123'", 1, 1)
    assert lex_error("x\n 12abc") == ("invalid character 'a' after number '12'", 2, 2)
    assert lex_error("0xFFg") == ("invalid character 'g' after number '0xFF'", 1, 1)
    assert lex_error("0b1z") == ("invalid character 'z' after number '0b1'", 1, 1)


def test_base_type_names():
    for name, info in [("int", (32, True)), ("uint", (32, False)),
                       ("char", (8, True))]:
        tokens = tokenize(name)
        assert tokens.kinds[0] is TokenKind.TYPE_NAME
        assert tokens.type_info(0) == info


def test_sized_type_names():
    tokens = tokenize("uint7")
    assert tokens.kinds[0] is TokenKind.TYPE_NAME
    assert tokens.type_info(0) == (7, False)
    tokens = tokenize("int12")
    assert tokens.type_info(0) == (12, True)


def test_oversized_width_is_plain_identifier():
    assert tokenize("uint999").kinds[0] is TokenKind.IDENT


def test_void_and_bool_have_no_width():
    assert tokenize("void").type_info(0) is None
    assert tokenize("bool").type_info(0) is None


def test_true_false_keywords():
    assert tokenize("true").kinds[0] is TokenKind.KW_TRUE
    assert tokenize("false").kinds[0] is TokenKind.KW_FALSE


def test_maximal_munch_operators():
    assert kinds("<<=") == [TokenKind.SHL_ASSIGN]
    assert kinds("<<") == [TokenKind.SHL]
    assert kinds("< <") == [TokenKind.LT, TokenKind.LT]
    assert kinds(">>=") == [TokenKind.SHR_ASSIGN]
    assert kinds("a+++b") == [
        TokenKind.IDENT, TokenKind.INCREMENT, TokenKind.PLUS, TokenKind.IDENT
    ]


def test_all_compound_assignment_operators():
    text = "+= -= *= /= %= &= |= ^="
    expected = [
        TokenKind.PLUS_ASSIGN, TokenKind.MINUS_ASSIGN, TokenKind.STAR_ASSIGN,
        TokenKind.SLASH_ASSIGN, TokenKind.PERCENT_ASSIGN, TokenKind.AMP_ASSIGN,
        TokenKind.PIPE_ASSIGN, TokenKind.CARET_ASSIGN,
    ]
    assert kinds(text) == expected


def test_line_comments_are_skipped():
    assert kinds("a // comment with * and /\nb") == [TokenKind.IDENT, TokenKind.IDENT]


def test_block_comments_are_skipped():
    assert kinds("a /* multi\nline */ b") == [TokenKind.IDENT, TokenKind.IDENT]


def test_unterminated_block_comment_rejected():
    assert lex_error("a /* never closed") == ("unterminated block comment", 1, 3)
    assert lex_error("a\n\t/* x\n y */ /* z") == ("unterminated block comment", 3, 7)


def test_unexpected_character_rejected():
    assert lex_error("a $ b") == ("unexpected character '$'", 1, 3)
    assert lex_error("@") == ("unexpected character '@'", 1, 1)
    assert lex_error("x;\n  #") == ("unexpected character '#'", 2, 3)


def test_lex_error_string_carries_filename_and_location():
    with pytest.raises(LexError) as info:
        tokenize("ok\n $", filename="k.c")
    assert str(info.value) == "k.c:2:2: unexpected character '$'"
    assert info.value.location.filename == "k.c"


def test_locations_track_lines_and_columns():
    tokens = tokenize("a\n  b")
    assert tokens.location(0).line == 1
    assert tokens.location(0).column == 1
    assert tokens.location(1).line == 2
    assert tokens.location(1).column == 3


def test_carriage_return_counts_as_one_column():
    assert positions("a\r\nb") == [("a", 1, 1), ("b", 2, 1), ("", 2, 2)]
    assert positions("a\rb") == [("a", 1, 1), ("b", 1, 3), ("", 1, 4)]


def test_tab_counts_as_one_column():
    assert positions("\ta\tb") == [("a", 1, 2), ("b", 1, 4), ("", 1, 5)]


def test_multiline_block_comment_advances_lines():
    assert positions("a /* x\n y\n */ b") == [
        ("a", 1, 1), ("b", 3, 5), ("", 3, 6)
    ]
    assert positions("/* x */") == [("", 1, 8)]


def test_line_comment_at_eof_without_newline():
    assert positions("a // c") == [("a", 1, 1), ("", 1, 7)]
    assert positions("a //") == [("a", 1, 1), ("", 1, 5)]


def test_eof_token_location():
    assert positions("") == [("", 1, 1)]
    assert positions("a\n") == [("a", 1, 1), ("", 2, 1)]
    assert positions("a\r\n") == [("a", 1, 1), ("", 2, 1)]
    assert positions("ab  ") == [("ab", 1, 1), ("", 1, 5)]
    tokens = tokenize("x", filename="k.c")
    assert tokens.kinds[-1] is TokenKind.EOF
    assert str(tokens.location(len(tokens) - 1)) == "k.c:1:2"


def test_hardware_keywords():
    text = "par seq chan send recv wait delay within process"
    expected = [
        TokenKind.KW_PAR, TokenKind.KW_SEQ, TokenKind.KW_CHAN, TokenKind.KW_SEND,
        TokenKind.KW_RECV, TokenKind.KW_WAIT, TokenKind.KW_DELAY,
        TokenKind.KW_WITHIN, TokenKind.KW_PROCESS,
    ]
    assert kinds(text) == expected


def test_non_ascii_digits_are_unexpected_characters():
    # str.isdigit accepts these; int() then crashed or misread them.
    assert lex_error("int main(){return \u00b2;}") == (
        "unexpected character '\u00b2'", 1, 19
    )
    assert lex_error("x = 1\u0663;") == ("unexpected character '\u0663'", 1, 6)


def test_identifiers_are_ascii_only():
    assert lex_error("int \u00e9;") == ("unexpected character '\u00e9'", 1, 5)
    assert lex_error("int caf\u00e9 = 1;") == ("unexpected character '\u00e9'", 1, 8)
    assert lex_error("x = 12\u00e9;") == ("unexpected character '\u00e9'", 1, 7)
    assert tokenize("_a9 Z_0").texts[:-1] == ["_a9", "Z_0"]
