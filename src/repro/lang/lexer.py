"""Tokenizer for the mini-C subset, with object-like ``#define`` macros.

Macros are expanded at the token level: ``#define NAME tokens...``
records the replacement tokens, and later uses of ``NAME`` splice them
in.  Expanded tokens remember the macro name in ``Token.macro`` — the
analyzer uses this to recognize feature-bit constants like
``EXT2_FEATURE_COMPAT_SPARSE_SUPER2`` even after substitution.
Expansion reads the unit's final macro table, wherever in the unit a
macro is defined.  ``#include`` lines are skipped (the corpus is
self-contained).

Scanning runs on one compiled master pattern that consumes a whole
token (or whitespace/comment run) per match, tracking line/column from
the matched text.  A per-character scanner is the error path:
whenever the master pattern cannot match (an unterminated literal, an
unknown character, a malformed hex prefix), the regex scanner hands
that position to the per-character scanner, which owns every
diagnostic.  Its whole-input loop (:meth:`Lexer._raw_tokens_scan`) is
the reference the test suite compares token streams against.

A directive runs to the end of its logical line: a backslash ending a
physical line (LF or CRLF) continues it, and so does a block comment,
which C turns into a space before directives run.  A
``#define`` replacement is lexed in place, at its position in the
unit, by the same loop with continuations read as space, so a
diagnostic inside it names its real line and column.

An outline (``tokenize(bodies=False)``, used by
:class:`repro.lang.frontend.Outline`) lexes only what the outline
parses.  At a top-level ``{`` whose previous token is ``)`` — a
function body — a regex over braces, literals, comments and directive
lines finds the matching ``}`` without lexing what lies between, and
the loop emits ``{``, one :attr:`TokenKind.BODY` placeholder for the
skipped source and ``}``.  Directive lines inside the body still run,
in source order, so the macro table ends as a whole-unit lex leaves
it.  :meth:`Lexer.lex_body` lexes a skipped body (the same loop,
directive lines stepped over, the final macro table) when the body is
compiled.  Two cases lex bodies with the unit instead: a body the
scan cannot close or a literal or comment it cannot end (the rest of
the unit is lexed, so the error a whole-unit lex raises is raised),
and a final macro table with a brace in some replacement (the whole
unit is lexed again, since a macro use could then open or close a
body).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import LexError
from repro.perf import bump


KEYWORDS = {
    "int", "unsigned", "long", "short", "char", "void", "float", "double",
    "struct", "union", "enum", "typedef", "static", "const", "extern",
    "if", "else", "while", "for", "do", "return", "break", "continue",
    "switch", "case", "default", "sizeof", "goto",
}

# Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
    "?", ":", ",", ";", ".", "(", ")", "{", "}", "[", "]",
]

#: Character-literal escapes (shared by both scan paths).
_CHAR_ESCAPES = {"n": 10, "t": 9, "0": 0, "\\": 92, "'": 39, "r": 13}

#: One master pattern, one token per match.  The leading non-capturing
#: part swallows the whitespace/comment run in front of the token, so
#: the scanner pays one regex call per *token* rather than one per
#: lexeme-or-gap.  Alternation order matters: the skip part runs first
#: (so ``//`` and ``/*`` never lex as division), hex before decimal,
#: and the operator branch reuses ``_OPERATORS``'s longest-first order
#: for maximal munch.  The token part is optional: a match with no
#: group is a pure gap (trailing space, or space in front of a ``#``
#: directive or an error), and a zero-width match hands the position
#: to the per-character scanner, which owns all error diagnostics.
#: Braces, which no longer operator starts with, are their own group
#: so the outline can find function bodies.  Inside the operator
#: branch, punctuation that is no prefix of any longer operator leads
#: as one charset (a single test for the most common tokens); the rest
#: keeps ``_OPERATORS``'s longest-first order so maximal munch is
#: unchanged.
_TOKEN = r"""
    (?:
      (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<hex>0[xX][0-9a-fA-F]+[uUlL]*)
    | (?P<int>[0-9]+[uUlL]*)
    | (?P<string>"(?:\\.|[^"\\])*")
    | (?P<char>'(?:\\.|[^'\\])')
    | (?P<brace>[{}])
    | (?P<op>[;,()\[\]~?:]
             |""" + "|".join(re.escape(op) for op in _OPERATORS
                             if op not in ";,()[]{}~?:") + r""")
    )?
    """
_MASTER = re.compile(r"(?: [ \t\r\n]+ | //[^\n]* | /\*.*?\*/ )*" + _TOKEN,
                     re.VERBOSE | re.DOTALL)
#: The master pattern's source for a ``#define`` replacement that runs
#: over a backslash-newline, which is space there (a line comment runs
#: on over one).  Only such a replacement needs it, so ``re`` compiles
#: (and caches) it on first use.
_CONTINUED_MASTER = (
    r"""(?: [ \t\r\n]+ | \\\r?\n | //(?:\\\r?\n|[^\n])* | /\*.*?\*/ )*"""
    + _TOKEN)

#: Group numbers for integer dispatch on ``match.lastindex`` (both
#: master patterns share ``_TOKEN``, so they share its groups).
_G_IDENT = _MASTER.groupindex["ident"]
_G_HEX = _MASTER.groupindex["hex"]
_G_INT = _MASTER.groupindex["int"]
_G_STRING = _MASTER.groupindex["string"]
_G_CHAR = _MASTER.groupindex["char"]
_G_BRACE = _MASTER.groupindex["brace"]
_G_OP = _MASTER.groupindex["op"]

#: A backslash-newline, which joins a directive's physical lines.
_CONTINUATION = re.compile(r"\\\r?\n")

#: One step of the search for a directive's end: skip to the newline
#: ending the line (group 1), or past something that runs over a
#: newline or must not be read as one — a continuation, a block
#: comment (or, unterminated, the rest of the unit), a line comment, a
#: string or char literal — or a lone backslash, slash or quote.
_LINE_ITEM = re.compile(
    r"""[^\n\\/"']*(?:(\n)|\\\r?\n|/\*.*?(?:\*/|\Z)|//(?:\\\r?\n|[^\n])*"""
    r"""|"(?:\\\r?\n|\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])'|[\\/"'])""",
    re.DOTALL)

#: A macro name, as the directive reads one.
_NAME = re.compile(r"\w*")

#: One step of the brace scan over a function body: skip to the next
#: brace (groups 1 and 2), directive (3), literal or comment, or a
#: quote or ``/*`` that opens nothing the lexer could close (4).  A
#: lone ``/`` (division) matches and is stepped over.
_BODY_ITEM = re.compile(
    r"""[^{}\#"'/]*(?:(\{)|(\})|(\#)|"(?:\\.|[^"\\])*"|'(?:\\.|[^'\\])'"""
    r"""|//[^\n]*|/\*.*?\*/|(["']|/\*)|/)""",
    re.DOTALL)


class TokenKind(enum.Enum):
    """Lexical token categories."""
    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    STRING = "string"
    CHAR = "char"
    OP = "op"
    EOF = "eof"
    #: An outline's stand-in for one function body's source, between
    #: its ``{`` and ``}`` (see :meth:`Lexer.lex_body`).
    BODY = "body"


@dataclass(slots=True)
class Token:
    """One lexical token with position and macro origin."""
    kind: TokenKind
    text: str
    line: int
    col: int
    value: Optional[int] = None  # numeric value for INT tokens
    macro: Optional[str] = None  # macro this token came from, if any

    def __repr__(self) -> str:
        return f"Token({self.kind.value}, {self.text!r}, {self.line}:{self.col})"


@dataclass
class MacroDef:
    """One object-like #define: its replacement tokens and text."""
    name: str
    tokens: List[Token]
    line: int
    text: str = ""


class Lexer:
    """Tokenize one translation unit."""

    def __init__(self, source: str, filename: str = "<input>") -> None:
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.col = 1
        self.macros: Dict[str, MacroDef] = {}
        #: Source range ``[start, stop)`` of each body an outline left
        #: unlexed; a ``BODY`` placeholder's ``value`` indexes it.
        self.bodies: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def tokenize(self, bodies: bool = True) -> List[Token]:
        """Return all tokens with macros expanded, ending in EOF.

        With ``bodies`` False, the unit's outline: each function body
        is left as one ``BODY`` placeholder between its braces (see the
        module docstring), for :meth:`lex_body` to lex when asked.
        """
        if bodies:
            raw = self._raw_tokens()
        else:
            raw = self._scan(len(self.source), defer=True)
            if self.bodies and any(
                    token.kind is TokenKind.OP and token.text in ("{", "}")
                    for macro in self.macros.values()
                    for token in macro.tokens):
                # A macro use could open or close a body: lex it all.
                self.pos, self.line, self.col = 0, 1, 1
                self.macros, self.bodies = {}, []
                raw = self._raw_tokens()
        expanded = self._expand(raw)
        expanded.append(Token(TokenKind.EOF, "", self.line, self.col))
        return expanded

    def lex_body(self, body: Token) -> List[Token]:
        """The tokens of the body the placeholder ``body`` stands for,
        braces excluded, with the unit's final macro table expanded
        (counted as ``frontend.lex.bodies``)."""
        bump("frontend.lex.bodies")
        start, stop = self.bodies[body.value]
        self.pos, self.line, self.col = start, body.line, body.col
        return self._expand(self._scan(stop, directives=False))

    # ------------------------------------------------------------------
    # raw scanning
    # ------------------------------------------------------------------

    def _raw_tokens_scan(self) -> List[Token]:
        """Per-character scan of the whole input (the reference scanner)."""
        out: List[Token] = []
        while True:
            self._skip_space_and_comments()
            if self.pos >= len(self.source):
                return out
            ch = self.source[self.pos]
            if ch == "#":
                self._directive(out)
                continue
            token = self._next_token()
            out.append(token)

    def _raw_tokens(self) -> List[Token]:
        """Master-pattern scan of the rest of the input."""
        return self._scan(len(self.source))

    def _scan(self, stop: int, *, defer: bool = False,
              directives: bool = True, master: re.Pattern = _MASTER
              ) -> List[Token]:
        """The master-pattern loop over ``source[pos:stop]``; see the
        module docstring.

        ``defer`` leaves function bodies as placeholders;
        ``directives`` False steps over directive lines without
        running them (a body lexed after its outline, which ran them).
        Position tracking lives in locals (the per-character
        ``_advance`` is the old scanner's hot spot) and syncs with the
        instance fields around the slow paths: directives, bodies and
        anything the pattern cannot match.
        """
        out: List[Token] = []
        append = out.append
        src = self.source
        match_at = master.match
        keywords = KEYWORDS
        tok = Token
        keyword, ident = TokenKind.KEYWORD, TokenKind.IDENT
        op_kind, int_kind = TokenKind.OP, TokenKind.INT
        pos, line, col = self.pos, self.line, self.col
        depth = 0  # top-level brace depth, for ``defer``
        while pos < stop:
            if src[pos] == "#":
                self.pos, self.line, self.col = pos, line, col
                if directives:
                    self._directive(out)
                else:
                    self._take_logical_line()
                pos, line, col = self.pos, self.line, self.col
                continue
            m = match_at(src, pos, stop)
            idx = m.lastindex
            if idx is None:
                # Pure gap: whitespace/comments up to the end, a ``#``,
                # or something the pattern cannot lex.  Zero width means
                # no progress — the reference scanner owns the error.
                end = m.end()
                if end == pos:
                    self.pos, self.line, self.col = pos, line, col
                    append(self._scan_token(stop))
                    pos, line, col = self.pos, self.line, self.col
                    continue
                gap = src[pos:end]
                newlines = gap.count("\n")
                if newlines:
                    line += newlines
                    col = len(gap) - gap.rfind("\n")
                else:
                    col += len(gap)
                pos = end
                continue
            start, end = m.span(idx)
            if start != pos:
                # Skip prefix in front of the token.
                gap = src[pos:start]
                newlines = gap.count("\n")
                if newlines:
                    line += newlines
                    col = len(gap) - gap.rfind("\n")
                else:
                    col += len(gap)
                pos = start
            text = src[start:end]
            if idx == _G_IDENT:
                append(tok(
                    keyword if text in keywords else ident,
                    text, line, col,
                ))
                pos = end
                col += end - start  # identifiers never span lines
                continue
            if idx == _G_OP:
                if text == "/" and src.startswith("/*", pos):
                    # ``bcomment`` only loses to ``op`` when unclosed.
                    raise LexError("unterminated block comment",
                                   self.filename, line, col)
                append(tok(op_kind, text, line, col))
                pos = end
                col += end - start
                continue
            if idx == _G_BRACE:
                if text == "}":
                    depth -= 1
                else:
                    if (defer and not depth and out and out[-1].text == ")"
                            and out[-1].kind is op_kind):
                        # A function body: skip it unlexed if it closes.
                        self.pos, self.line, self.col = end, line, col + 1
                        close = self._body_close()
                        if close >= 0:
                            append(tok(op_kind, text, line, col))
                            append(tok(TokenKind.BODY, "", line, col + 1,
                                       value=len(self.bodies)))
                            self.bodies.append((end, close))
                            line, col = self._moved(end, close, line, col + 1)
                            append(tok(op_kind, "}", line, col))
                            pos = close + 1
                            col += 1
                            continue
                        defer = False  # lex the rest: it raises the error
                    depth += 1
                append(tok(op_kind, text, line, col))
                pos = end
                col += 1
                continue
            if idx == _G_INT:
                if end < stop and text == "0" and src[end] in "xX":
                    # '0' then 'x': a hex prefix with no digits; the
                    # reference scanner owns the (mis)handling.
                    self.pos, self.line, self.col = pos, line, col
                    append(self._scan_token(stop))
                    pos, line, col = self.pos, self.line, self.col
                    continue
                append(tok(int_kind, text, line, col,
                           value=int(text.rstrip("uUlL"))))
                pos = end
                col += end - start
                continue
            if idx == _G_HEX:
                append(tok(int_kind, text, line, col,
                           value=int(text.rstrip("uUlL"), 16)))
                pos = end
                col += end - start
                continue
            if idx == _G_STRING:
                append(tok(TokenKind.STRING, text[1:-1], line, col))
            else:  # char literal
                if text[1] == "\\" and text[2] not in _CHAR_ESCAPES:
                    # an escape the reference scanner rejects
                    self.pos, self.line, self.col = pos, line, col
                    append(self._scan_token(stop))
                    pos, line, col = self.pos, self.line, self.col
                    continue
                body = text[1:-1]
                value = (_CHAR_ESCAPES[body[1]] if body[0] == "\\"
                         else ord(body))
                append(tok(TokenKind.CHAR, body, line, col, value=value))
            # Only string literals can span lines, so the newline count
            # lives on this shared tail.
            pos = end
            newlines = text.count("\n")
            if newlines:
                line += newlines
                col = len(text) - text.rfind("\n")
            else:
                col += len(text)
        self.pos, self.line, self.col = pos, line, col
        return out

    def _scan_token(self, stop: int) -> Token:
        """One token at ``pos`` from the per-character scanner, which
        sees the source only up to ``stop``."""
        if stop == len(self.source):
            return self._next_token()
        bounded = type(self)(self.source[:stop], self.filename)
        bounded.pos, bounded.line, bounded.col = self.pos, self.line, self.col
        token = bounded._next_token()
        self.pos, self.line, self.col = bounded.pos, bounded.line, bounded.col
        return token

    def _body_close(self) -> int:
        """Offset of the ``}`` closing the function body that starts at
        ``pos`` (just past its ``{``), running the directives inside
        it; -1 when the body never closes or holds a literal or comment
        the lexer could not end."""
        src = self.source
        match_at = _BODY_ITEM.match
        pos = base = self.pos  # line and col are known at ``base``
        line, col = self.line, self.col
        depth = 1
        while True:
            m = match_at(src, pos)
            if m is None:
                return -1
            kind = m.lastindex
            if kind == 1:
                depth += 1
            elif kind == 2:
                depth -= 1
                if not depth:
                    return m.start(2)
            elif kind == 3:
                at = m.start(3)
                self.pos = at
                self.line, self.col = self._moved(base, at, line, col)
                self._directive([])
                pos = base = self.pos
                line, col = self.line, self.col
                continue
            elif kind == 4:
                return -1
            pos = m.end()

    def _skip_space_and_comments(self) -> None:
        src = self.source
        while self.pos < len(src):
            ch = src[self.pos]
            if ch in " \t\r":
                self._advance(1)
            elif ch == "\n":
                self._advance(1)
            elif src.startswith("//", self.pos):
                while self.pos < len(src) and src[self.pos] != "\n":
                    self._advance(1)
            elif src.startswith("/*", self.pos):
                end = src.find("*/", self.pos + 2)
                if end == -1:
                    raise LexError("unterminated block comment", self.filename, self.line, self.col)
                self._advance_to(end + 2)
            else:
                return

    def _directive(self, out: List[Token]) -> None:
        """Handle one preprocessor line (#define, #include, #if 0 ... )."""
        start, line_start, col_start = self.pos, self.line, self.col
        text = self._take_logical_line()
        body = text[1:].strip()
        if body.startswith("include"):
            return  # corpus is self-contained
        if body.startswith("define"):
            rest = body[len("define"):].strip()
            if not rest:
                raise LexError("empty #define", self.filename, line_start, 1)
            name = _NAME.match(rest).group()
            after = rest[len(name):]
            if after.startswith("("):
                raise LexError(
                    f"function-like macro {name!r} not supported",
                    self.filename, line_start, 1,
                )
            replacement = after.strip()
            # Lex the replacement in place, from just past the name
            # (``after`` is a suffix of the stripped line).
            stop = self.pos
            offset = start + len(text.rstrip()) - len(after)
            master = _MASTER
            if len(text) != stop - start:  # the line has continuations
                offset = self._joined_offset(start, offset - start)
                master = re.compile(_CONTINUED_MASTER,
                                    re.VERBOSE | re.DOTALL)
            saved = self.pos, self.line, self.col
            self.pos = offset
            self.line, self.col = self._moved(start, offset, line_start,
                                              col_start)
            tokens = self._scan(stop, master=master)
            self.pos, self.line, self.col = saved
            for t in tokens:
                t.macro = name
            self.macros[name] = MacroDef(name, tokens, line_start, replacement)
            return
        if body.startswith(("ifdef", "ifndef", "endif", "undef", "pragma", "if", "else", "elif")):
            return  # tolerated and ignored (corpus avoids conditional code)
        raise LexError(f"unsupported directive {text.split()[0]!r}", self.filename, line_start, 1)

    def _take_logical_line(self) -> str:
        """Consume the directive at ``pos`` to the newline ending its
        logical line; returns its text, each continuation joined into
        one space.  A block comment carries the line past a newline."""
        src = self.source
        start = pos = self.pos
        match_at = _LINE_ITEM.match
        while True:
            m = match_at(src, pos)
            if m is None:
                pos = len(src)
                break
            if m.lastindex == 1:
                pos = m.start(1)
                break
            pos = m.end()
        self.line, self.col = self._moved(start, pos, self.line, self.col)
        self.pos = pos
        return _CONTINUATION.sub(" ", src[start:pos])

    def _moved(self, start: int, stop: int, line: int, col: int
               ) -> Tuple[int, int]:
        """Line and column at ``stop``, given those at ``start``."""
        src = self.source
        newlines = src.count("\n", start, stop)
        if newlines:
            return line + newlines, stop - src.rfind("\n", start, stop)
        return line, col + stop - start

    def _joined_offset(self, start: int, index: int) -> int:
        """Source offset of character ``index`` of the logical line at
        ``start`` once its continuations are joined."""
        offset = start + index
        for m in _CONTINUATION.finditer(self.source, start, self.pos):
            if m.start() >= offset:
                break
            offset += m.end() - m.start() - 1
        return offset

    def _next_token(self) -> Token:
        src = self.source
        ch = src[self.pos]
        line, col = self.line, self.col
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(src) and (src[self.pos].isalnum() or src[self.pos] == "_"):
                self._advance(1)
            text = src[start:self.pos]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            return Token(kind, text, line, col)
        if ch.isdigit():
            return self._number(line, col)
        if ch == '"':
            return self._string(line, col)
        if ch == "'":
            return self._char(line, col)
        for op in _OPERATORS:
            if src.startswith(op, self.pos):
                self._advance(len(op))
                return Token(TokenKind.OP, op, line, col)
        raise LexError(f"unexpected character {ch!r}", self.filename, line, col)

    def _number(self, line: int, col: int) -> Token:
        src = self.source
        start = self.pos
        if src.startswith(("0x", "0X"), self.pos):
            self._advance(2)
            while self.pos < len(src) and src[self.pos] in "0123456789abcdefABCDEF":
                self._advance(1)
            text = src[start:self.pos]
            value = int(text, 16)
        else:
            while self.pos < len(src) and src[self.pos].isdigit():
                self._advance(1)
            text = src[start:self.pos]
            value = int(text)
        # integer suffixes (UL, LL, ...) are accepted and ignored
        while self.pos < len(src) and src[self.pos] in "uUlL":
            text += src[self.pos]
            self._advance(1)
        return Token(TokenKind.INT, text, line, col, value=value)

    def _string(self, line: int, col: int) -> Token:
        src = self.source
        self._advance(1)
        start = self.pos
        out = []
        while self.pos < len(src) and src[self.pos] != '"':
            if src[self.pos] == "\\" and self.pos + 1 < len(src):
                out.append(src[self.pos:self.pos + 2])
                self._advance(2)
            else:
                out.append(src[self.pos])
                self._advance(1)
        if self.pos >= len(src):
            raise LexError("unterminated string literal", self.filename, line, col)
        self._advance(1)
        return Token(TokenKind.STRING, "".join(out), line, col)

    def _char(self, line: int, col: int) -> Token:
        src = self.source
        self._advance(1)
        if self.pos >= len(src):
            raise LexError("unterminated character literal", self.filename, line, col)
        if src[self.pos] == "\\":
            esc = src[self.pos + 1]
            if esc not in _CHAR_ESCAPES:
                raise LexError(f"unknown escape \\{esc}", self.filename, line, col)
            value = _CHAR_ESCAPES[esc]
            text = "\\" + esc
            self._advance(2)
        else:
            value = ord(src[self.pos])
            text = src[self.pos]
            self._advance(1)
        if self.pos >= len(src) or src[self.pos] != "'":
            raise LexError("unterminated character literal", self.filename, line, col)
        self._advance(1)
        return Token(TokenKind.CHAR, text, line, col, value=value)

    # ------------------------------------------------------------------
    # macro expansion
    # ------------------------------------------------------------------

    def _expand(self, tokens: List[Token], active: Optional[frozenset] = None) -> List[Token]:
        """Recursively expand macros; re-expansion of an active macro stops."""
        macros = self.macros
        if not macros:
            return tokens
        active = active or frozenset()
        out: List[Token] = []
        append = out.append
        ident = TokenKind.IDENT
        for token in tokens:
            name = token.text
            # The dict probe rejects almost every token; check it first.
            if name in macros and token.kind is ident and name not in active:
                macro = macros[name]
                inner = self._expand(macro.tokens, active | {name})
                for repl in inner:
                    append(Token(repl.kind, repl.text, token.line, token.col,
                                 value=repl.value, macro=repl.macro or name))
            else:
                append(token)
        return out

    # ------------------------------------------------------------------
    # position tracking
    # ------------------------------------------------------------------

    def _advance(self, count: int) -> None:
        for _ in range(count):
            if self.pos < len(self.source) and self.source[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def _advance_to(self, pos: int) -> None:
        self._advance(pos - self.pos)


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Convenience wrapper: tokenize ``source`` with macro expansion."""
    return Lexer(source, filename).tokenize()
