"""Outlines that leave function bodies unlexed, against an eager reference.

:class:`EagerOutline` lexes every body with the unit, as outlines did
before bodies were skipped as raw source; it is kept here as the
reference, the way ``ScanLexer`` and ``LadderParser`` are kept in
``test_solver``.  For every corpus unit, for synthetic units (braces
inside literals and comments, a ``#define`` inside a body redefined
later, a brace-bearing macro, unbalanced braces, a body ending at
EOF) and for generated units, the deferred outline must give the same
``lines``, ``texts()``, ``function_slices``, every ``function(name)``
and ``module()`` as the reference, and raise what it raises.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus.cache import function_slices
from repro.corpus.loader import UNIT_COMPONENTS
from repro.lang import compile_c
from repro.lang.frontend import Outline
from repro.lang.lexer import Lexer

CORPUS_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                          "repro", "corpus")


class EagerOutline(Outline):
    """Reference outline: every body lexed with the unit."""

    def _parse_outline(self, bodies):
        super()._parse_outline(bodies=True)


def _attempt(call):
    """``call()``'s result, or its exception as (type, message)."""
    try:
        return call()
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return (type(error), str(error))


def _deferred_bodies(outline) -> int:
    return sum(span.body is not None for span in outline.spans)


def assert_matches_reference(source: str, filename: str = "g.c") -> None:
    reference = _attempt(lambda: EagerOutline(source, filename))
    outline = _attempt(lambda: Outline(source, filename))
    if not isinstance(reference, Outline):
        # The reference met an error outlining: the deferred outline
        # raises it too, outlining or (a lex error inside a body it
        # skipped) when the unit is compiled whole.
        if isinstance(outline, Outline):
            outline = _attempt(outline.module)
        assert outline == reference
        return
    assert isinstance(outline, Outline), outline
    assert outline.lines == reference.lines
    assert outline.texts() == reference.texts()
    assert sorted(outline.macros) == sorted(reference.macros)
    assert function_slices(outline) == function_slices(reference)
    for name in reference.lines:
        # Fresh outlines: nothing compiled for one body leaks into
        # another.
        expected = _attempt(
            lambda: EagerOutline(source, filename).function(name))
        alone = _attempt(lambda: Outline(source, filename).function(name))
        assert alone == expected, name
    assert _attempt(outline.module) == _attempt(reference.module)


@pytest.mark.parametrize("filename", sorted(UNIT_COMPONENTS))
def test_every_corpus_unit_matches_the_eager_outline(filename):
    with open(os.path.join(CORPUS_SRC, filename), encoding="utf-8") as handle:
        source = handle.read()
    assert_matches_reference(source, filename)
    outline = Outline(source, filename)
    # Every body was skipped unlexed, and only the outside was lexed.
    assert _deferred_bodies(outline) == len(outline.spans) > 0


def test_corpus_outlines_never_take_the_scan_path(monkeypatch):
    calls = []
    original = Lexer._raw_tokens_scan

    def spy(self):
        calls.append(self.filename)
        return original(self)

    monkeypatch.setattr(Lexer, "_raw_tokens_scan", spy)
    for filename in sorted(UNIT_COMPONENTS):
        with open(os.path.join(CORPUS_SRC, filename),
                  encoding="utf-8") as handle:
            compile_c(handle.read(), filename)
    assert calls == []


LITERAL_BRACES = """\
int strlen(char *s);
int f(int x)
{
    char open = '{';
    char close = '}';
    /* } a closing brace in a comment { */
    // } and in a line comment
    x = x + strlen("}}{ \\" }");
    if (x) { x = close; }
    return x + open;
}

int g(void) { return strlen("{"); }
"""

DEFINE_IN_BODY = """\
int f(int x)
{
#define STEP 2
    return x + STEP;
}

int g(int y) { return y * STEP; }

#define STEP 3
int h(void) { return STEP; }
"""

BRACE_MACRO = """\
#define BEGIN {
#define END }
int f(int x)
BEGIN
    if (x) { return 1; }
    return 0;
END

int g(void) { return 2; }
"""

BRACE_MACRO_REDEFINED = """\
#define OPEN {
int f(void) { return 1; }
#define OPEN 1
int g(void) { return OPEN; }
"""

UNBALANCED = """\
int f(void) { if (1) { return 1; }
int g(void) { return 2; }
"""

EXTRA_CLOSE = """\
int f(void) { return 1; } }
int g(void) { return 2; }
"""

AT_EOF = "int f(void) { return 1; }"

OPEN_AT_EOF = "int f(void) { return 1;"

UNTERMINATED_IN_BODY = """\
int f(void) { return 1; }
int g(void) { char *s = "oops; }
int h(void) { return 3; }
"""

LEX_ERROR_IN_BODY = """\
int f(void) { return 1 @ 2; }
int g(void) { return 2; }
"""

LEX_ERROR_THEN_PARSE_ERROR = """\
int f(void) { return 1 @ 2; }
int g(void { return 2; }
"""

DIRECTIVE_ERROR_IN_BODY = """\
int f(void)
{
#error nope
    return 1;
}
"""

COMMENT_DEFINE_IN_BODY = """\
int f(int x)
{
#define WIDE 4 /* a comment } that
   runs on { */
    return x + WIDE;
}
"""

SYNTHETIC = {
    "literal_braces": LITERAL_BRACES,
    "define_in_body": DEFINE_IN_BODY,
    "brace_macro": BRACE_MACRO,
    "brace_macro_redefined": BRACE_MACRO_REDEFINED,
    "unbalanced": UNBALANCED,
    "extra_close": EXTRA_CLOSE,
    "at_eof": AT_EOF,
    "open_at_eof": OPEN_AT_EOF,
    "unterminated_in_body": UNTERMINATED_IN_BODY,
    "lex_error_in_body": LEX_ERROR_IN_BODY,
    "lex_error_then_parse_error": LEX_ERROR_THEN_PARSE_ERROR,
    "directive_error_in_body": DIRECTIVE_ERROR_IN_BODY,
    "comment_define_in_body": COMMENT_DEFINE_IN_BODY,
}


class TestSynthetic:
    @pytest.mark.parametrize("name", sorted(SYNTHETIC))
    def test_matches_the_eager_outline(self, name):
        assert_matches_reference(SYNTHETIC[name], f"{name}.c")

    def test_literal_braces_leave_every_body_unlexed(self):
        outline = Outline(LITERAL_BRACES, "literal.c")
        assert _deferred_bodies(outline) == 2

    def test_a_define_inside_a_body_ends_as_its_last_definition(self):
        outline = Outline(DEFINE_IN_BODY, "define.c")
        assert outline.macros["STEP"].text == "3"
        assert "3" in str(outline.function("f"))

    def test_a_brace_bearing_macro_lexes_every_body(self):
        outline = Outline(BRACE_MACRO, "macro.c")
        assert _deferred_bodies(outline) == 0
        assert set(outline.lines) == {"f", "g"}

    def test_a_redefined_brace_macro_still_defers(self):
        # Expansion reads the final table, which holds no brace.
        assert _deferred_bodies(Outline(BRACE_MACRO_REDEFINED, "m.c")) == 2

    def test_a_lex_error_in_a_skipped_body_waits_for_its_compile(self):
        from repro.errors import LexError

        outline = Outline(LEX_ERROR_IN_BODY, "lex.c")
        assert outline.function("g").name == "g"
        with pytest.raises(LexError) as alone:
            outline.function("f")
        with pytest.raises(LexError) as whole:
            compile_c(LEX_ERROR_IN_BODY, "lex.c")
        assert str(alone.value) == str(whole.value) == \
            "lex.c:1:24: unexpected character '@'"

    def test_a_body_is_lexed_once(self):
        from repro.perf import counters, reset_profile

        outline = Outline(LITERAL_BRACES, "literal.c")
        reset_profile()
        outline.function("f")
        outline.function("f")
        assert counters()["frontend.lex.bodies"] == 1
        outline.module()
        assert counters()["frontend.lex.bodies"] == 2


# ---------------------------------------------------------------------------
# generated units
# ---------------------------------------------------------------------------

#: Statements a generated body draws from: braces in literals and
#: comments, nested blocks, directive lines and macro uses.
STATEMENTS = [
    "x = x + 1;",
    "if (x) { x = 2; }",
    "if (x > 1) { if (x) { x = 3; } } else { x = 4; }",
    "while (x < 9) { x = x + K; }",
    "x = x + K;",
    "char c = '}';",
    "char d = '{';",
    'x = x + len("}{");',
    'x = x + len("\\"}");',
    "/* } { */",
    "// } trailing {",
    "\n#define K 5\n",
    "\n#define K (1 + 2) /* a { comment\n spanning } lines */\n",
    "\n#include \"nothing.h\"\n",
]

#: Pieces that break a unit: an unknown character, an unterminated
#: literal or comment, a stray or missing brace.
BREAKS = ["x = @;", "x = \"open;", "/* never closed", "{", "}"]

TOP_LEVEL = [
    "#define K 7",
    "#define K {",
    "#define K 0x10",
    "struct box { int a; int b; };",
    "typedef unsigned int u32;",
    "int len(char *s);",
    "int counter;",
    "/* a comment between functions { */",
]


@st.composite
def units(draw):
    parts = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        parts.extend(draw(st.lists(st.sampled_from(TOP_LEVEL), max_size=2)))
        body = draw(st.lists(st.sampled_from(STATEMENTS), max_size=5))
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            body.insert(draw(st.integers(min_value=0, max_value=len(body))),
                        draw(st.sampled_from(BREAKS)))
        parts.append(f"int f{index}(int x)\n{{\n    "
                     + "\n    ".join(body) + "\n    return x;\n}")
    parts.extend(draw(st.lists(st.sampled_from(TOP_LEVEL), max_size=2)))
    return "\n".join(parts) + draw(st.sampled_from(["\n", ""]))


class TestGeneratedUnits:
    @settings(max_examples=150, deadline=None)
    @given(units())
    def test_deferred_outline_matches_the_eager_outline(self, source):
        assert_matches_reference(source)
