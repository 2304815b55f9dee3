"""Tokenizer for the mini-C subset, with object-like ``#define`` macros.

Macros are expanded at the token level: ``#define NAME tokens...``
records the replacement tokens, and later uses of ``NAME`` splice them
in.  Expanded tokens remember the macro name in ``Token.macro`` — the
analyzer uses this to recognize feature-bit constants like
``EXT2_FEATURE_COMPAT_SPARSE_SUPER2`` even after substitution.
``#include`` lines are skipped (the corpus is self-contained).

Scanning runs on one compiled master pattern that consumes a whole
token (or whitespace/comment run) per match, tracking line/column from
the matched text.  A per-character scanner is the error path:
whenever the master pattern cannot match (an unterminated literal, an
unknown character, a malformed hex prefix), the regex scanner hands
that position to the per-character scanner, which owns every
diagnostic.  Its whole-input loop (:meth:`Lexer._raw_tokens_scan`) is
the reference the test suite compares token streams against.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional

from repro.errors import LexError


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
#: Inside the operator branch, punctuation that is no prefix of any
#: longer operator leads as one charset (a single test for the most
#: common tokens); the rest keeps ``_OPERATORS``'s longest-first
#: order so maximal munch is unchanged.
_MASTER = re.compile(
    r"""
    (?: [ \t\r\n]+ | //[^\n]* | /\*.*?\*/ )*
    (?:
      (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<hex>0[xX][0-9a-fA-F]+[uUlL]*)
    | (?P<int>[0-9]+[uUlL]*)
    | (?P<string>"(?:\\.|[^"\\])*")
    | (?P<char>'(?:\\.|[^'\\])')
    | (?P<op>[;,()\[\]{}~?:]
             |""" + "|".join(re.escape(op) for op in _OPERATORS
                             if op not in ";,()[]{}~?:") + r""")
    )?
    """,
    re.VERBOSE | re.DOTALL,
)

#: Group numbers for integer dispatch on ``match.lastindex``.
_G_IDENT = _MASTER.groupindex["ident"]
_G_HEX = _MASTER.groupindex["hex"]
_G_INT = _MASTER.groupindex["int"]
_G_STRING = _MASTER.groupindex["string"]
_G_CHAR = _MASTER.groupindex["char"]
_G_OP = _MASTER.groupindex["op"]


class TokenKind(enum.Enum):
    """Lexical token categories."""
    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    STRING = "string"
    CHAR = "char"
    OP = "op"
    EOF = "eof"


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

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def tokenize(self) -> List[Token]:
        """Return all tokens with macros expanded, ending in EOF."""
        raw = self._raw_tokens()
        expanded = self._expand(raw)
        expanded.append(Token(TokenKind.EOF, "", self.line, self.col))
        return expanded

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
        """Master-pattern scanner; see the module docstring.

        Position tracking lives in locals (the per-character
        ``_advance`` is the old scanner's hot spot) and syncs with the
        instance fields around the two slow paths: directives and
        anything the pattern cannot match.
        """
        out: List[Token] = []
        append = out.append
        src = self.source
        n = len(src)
        match_at = _MASTER.match
        keywords = KEYWORDS
        tok = Token
        keyword, ident = TokenKind.KEYWORD, TokenKind.IDENT
        op_kind, int_kind = TokenKind.OP, TokenKind.INT
        pos, line, col = self.pos, self.line, self.col
        while pos < n:
            if src[pos] == "#":
                self.pos, self.line, self.col = pos, line, col
                self._directive(out)
                pos, line, col = self.pos, self.line, self.col
                continue
            m = match_at(src, pos)
            idx = m.lastindex
            if idx is None:
                # Pure gap: whitespace/comments up to EOF, a ``#``, or
                # something the pattern cannot lex.  Zero width means
                # no progress — the reference scanner owns the error.
                end = m.end()
                if end == pos:
                    self.pos, self.line, self.col = pos, line, col
                    out.append(self._next_token())
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
            if idx == _G_INT:
                if end < n and text == "0" and src[end] in "xX":
                    # '0' then 'x': a hex prefix with no digits; the
                    # reference scanner owns the (mis)handling.
                    self.pos, self.line, self.col = pos, line, col
                    out.append(self._next_token())
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
                    out.append(self._next_token())
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
        line_start = self.line
        text = self._take_logical_line()
        body = text[1:].strip()
        if body.startswith("include"):
            return  # corpus is self-contained
        if body.startswith("define"):
            rest = body[len("define"):].strip()
            if not rest:
                raise LexError("empty #define", self.filename, line_start, 1)
            name_end = 0
            while name_end < len(rest) and (rest[name_end].isalnum() or rest[name_end] == "_"):
                name_end += 1
            name = rest[:name_end]
            if name_end < len(rest) and rest[name_end] == "(":
                raise LexError(
                    f"function-like macro {name!r} not supported",
                    self.filename, line_start, 1,
                )
            replacement = rest[name_end:].strip()
            sub = type(self)(replacement, self.filename)
            sub.line = line_start
            tokens = sub._raw_tokens()
            for t in tokens:
                t.macro = name
            self.macros[name] = MacroDef(name, tokens, line_start, replacement)
            return
        if body.startswith(("ifdef", "ifndef", "endif", "undef", "pragma", "if", "else", "elif")):
            return  # tolerated and ignored (corpus avoids conditional code)
        raise LexError(f"unsupported directive {text.split()[0]!r}", self.filename, line_start, 1)

    def _take_logical_line(self) -> str:
        """Consume to end of line, honouring backslash continuations."""
        src = self.source
        n = len(src)
        start = pos = self.pos
        line, col = self.line, self.col
        while pos < n:
            ch = src[pos]
            if ch == "\\" and pos + 1 < n and src[pos + 1] == "\n":
                pos += 2
                line += 1
                col = 1
                continue
            if ch == "\n":
                break
            pos += 1
            col += 1
        self.pos, self.line, self.col = pos, line, col
        return src[start:pos].replace("\\\n", " ")

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
