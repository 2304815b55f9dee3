"""Tests for the mini-C lexer."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import LexError
from repro.lang.lexer import Token, TokenKind, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source) if t.kind is not TokenKind.EOF]


def texts(source):
    return [t.text for t in tokenize(source) if t.kind is not TokenKind.EOF]


class TestBasics:
    def test_empty_source_yields_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifiers_and_keywords(self):
        tokens = tokenize("int foo_bar2")
        assert tokens[0].kind is TokenKind.KEYWORD
        assert tokens[1].kind is TokenKind.IDENT
        assert tokens[1].text == "foo_bar2"

    def test_decimal_int(self):
        token = tokenize("1024")[0]
        assert token.kind is TokenKind.INT
        assert token.value == 1024

    def test_hex_int(self):
        assert tokenize("0x0200")[0].value == 0x200

    def test_integer_suffixes_ignored(self):
        assert tokenize("10UL")[0].value == 10

    def test_string_literal(self):
        token = tokenize('"hello world"')[0]
        assert token.kind is TokenKind.STRING
        assert token.text == "hello world"

    def test_string_with_escape(self):
        assert tokenize(r'"a\"b"')[0].text == 'a\\"b'

    def test_char_literal(self):
        token = tokenize("'b'")[0]
        assert token.kind is TokenKind.CHAR
        assert token.value == ord("b")

    def test_char_escape(self):
        assert tokenize(r"'\n'")[0].value == 10

    def test_unterminated_string_rejected(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_unterminated_char_rejected(self):
        with pytest.raises(LexError):
            tokenize("'ab")

    def test_unknown_character_rejected(self):
        with pytest.raises(LexError):
            tokenize("int @")


class TestOperators:
    def test_maximal_munch(self):
        assert texts("a <<= b >> c->d") == ["a", "<<=", "b", ">>", "c", "->", "d"]

    def test_compound_assignment(self):
        assert "|=" in texts("x |= 1")

    def test_logical_ops(self):
        assert texts("a && b || !c") == ["a", "&&", "b", "||", "!", "c"]

    def test_comparison_chain(self):
        assert texts("a <= b >= c") == ["a", "<=", "b", ">=", "c"]


class TestCommentsAndPosition:
    def test_line_comment_skipped(self):
        assert texts("a // comment\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert texts("a /* multi\nline */ b") == ["a", "b"]

    def test_unterminated_block_comment_rejected(self):
        with pytest.raises(LexError):
            tokenize("a /* forever")

    def test_line_numbers_tracked(self):
        tokens = tokenize("a\nb\n  c")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[2].line == 3
        assert tokens[2].col == 3


class TestMacros:
    def test_object_macro_expansion(self):
        tokens = tokenize("#define MAX 65536\nint x = MAX;")
        values = [t.value for t in tokens if t.kind is TokenKind.INT]
        assert values == [65536]

    def test_expanded_token_remembers_macro(self):
        tokens = tokenize("#define FLAG 0x10\nx & FLAG")
        const = [t for t in tokens if t.kind is TokenKind.INT][0]
        assert const.macro == "FLAG"

    def test_nested_macro_expansion(self):
        source = "#define A 7\n#define B A\nint x = B;"
        values = [t.value for t in tokenize(source) if t.kind is TokenKind.INT]
        assert values == [7]

    def test_self_referential_macro_terminates(self):
        tokens = tokenize("#define X X\nint X;")
        assert any(t.text == "X" for t in tokens)

    def test_multi_token_macro(self):
        tokens = tokenize("#define LIMIT (1024 * 4)\nx = LIMIT;")
        assert "(" in [t.text for t in tokens]

    def test_function_like_macro_rejected(self):
        with pytest.raises(LexError):
            tokenize("#define MIN(a,b) a\n")

    def test_include_skipped(self):
        assert texts('#include "foo.h"\nint x;') == ["int", "x", ";"]

    def test_line_continuation_in_define(self):
        tokens = tokenize("#define LONG 1 + \\\n 2\nx = LONG;")
        values = [t.value for t in tokens if t.kind is TokenKind.INT]
        assert values == [1, 2]

    def test_unsupported_directive_rejected(self):
        with pytest.raises(LexError):
            tokenize("#error nope")

    def test_conditional_directives_tolerated(self):
        assert texts("#ifdef FOO\nint x;") == ["int", "x", ";"]


class TestProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_decimal_round_trip(self, value):
        assert tokenize(str(value))[0].value == value

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_hex_round_trip(self, value):
        assert tokenize(hex(value))[0].value == value

    @given(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,20}", fullmatch=True))
    def test_identifier_round_trip(self, name):
        token = tokenize(name)[0]
        assert token.text == name
        assert token.kind in (TokenKind.IDENT, TokenKind.KEYWORD)


class TestDirectiveLines:
    """A directive's logical line, and diagnostics inside a #define."""

    def test_block_comment_spanning_lines_continues_a_define(self):
        # C turns the comment into a space before directives run.
        tokens = tokenize("#define X 4 /* four\n and more */\nint a = X;",
                          "t.c")
        assert [t.text for t in tokens][:-1] == ["int", "a", "=", "4", ";"]
        assert tokens[0].line == 3

    def test_comment_opener_in_a_string_ends_no_define(self):
        source = '#define S "/*"\nint x; /* */'
        assert texts(source) == ["int", "x", ";"]

    def test_error_in_a_define_names_its_source_column(self):
        with pytest.raises(LexError, match=r"^t\.c:2:15: unexpected character '@'$"):
            tokenize("int a;\n#define X   4 @", "t.c")

    def test_error_after_a_continuation_names_its_physical_line(self):
        with pytest.raises(LexError, match=r"^t\.c:2:4: unexpected character '@'$"):
            tokenize("#define X 1 + \\\n 2 @\n", "t.c")

    def test_crlf_continuation_in_define(self):
        tokens = tokenize("#define LONG 1 + \\\r\n 2\r\nx = LONG;")
        values = [t.value for t in tokens if t.kind is TokenKind.INT]
        assert values == [1, 2]

    def test_unterminated_comment_in_a_define_is_reported_where_it_opens(self):
        with pytest.raises(LexError, match=r"^t\.c:1:13: unterminated block comment$"):
            tokenize("#define X 4 /* four\n", "t.c")
