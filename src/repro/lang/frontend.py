"""Unit outlines: compile a translation unit one function body at a time.

An :class:`Outline` lexes what lies outside the unit's function bodies
(the macro table included: directive lines inside a body still run)
and parses every top-level declaration
(:meth:`repro.lang.parser.Parser.parse_outline`).  Each body is left
as raw source: the lexer finds its closing brace by a regex over
braces, literals, comments and directives, without lexing it (see
:mod:`repro.lang.lexer`).  :meth:`Outline.function` then lexes,
parses, checks and lowers one body against the unit-level tables;
:meth:`Outline.module` does every body the way a whole-unit compile
always has: all bodies lex, then all parse, then all are checked,
then :func:`repro.lang.lower.lower` assembles the module, so the first
error a whole-unit compile meets is the one it raises.  An outline
that meets a lex or parse error is built again with every body lexed,
so it raises what a whole-unit lex and parse raise, even when a body
it skipped holds an earlier error.  :func:`repro.lang.compile_c`
builds an outline and, unless asked for the outline itself, its
module, so there is one pipeline.

An outline also splits the unit for the analysis store's slice keys
(:func:`repro.corpus.cache.function_slices`): each function's own
text, and the *context* every body is compiled against — the tokens
outside the function bodies plus the macro table, since macros expand
across the whole unit wherever they are defined.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, Optional, Set, Tuple

from repro.errors import LexError, ParseError
from repro.lang import ast_nodes as A
from repro.lang.ir import Function, Module
from repro.lang.lexer import Lexer
from repro.lang.lower import FunctionLowering, lower
from repro.lang.parser import Parser
from repro.lang.sema import SemanticAnalyzer


class Outline:
    """One unit's declarations, with its function bodies left unlexed
    until a caller asks for them.

    ``lines`` maps each defined function to its definition line (a
    function defined twice keeps its first slot and its last body, as
    in a compiled module).  Parsed bodies, the checker's tables and
    lowered functions are kept, so each body is compiled once whether
    it is asked for alone or as part of :meth:`module`.
    """

    def __init__(self, source: str, filename: str = "<input>") -> None:
        self.source = source
        self.filename = filename
        try:
            self._parse_outline(bodies=False)
        except (LexError, ParseError):
            # A skipped body may hold the first error: lex it all.
            self._parse_outline(bodies=True)
        self._index = {span.function.name: index
                       for index, span in enumerate(self.spans)}
        self.lines: Dict[str, int] = {
            name: self.spans[index].function.line
            for name, index in self._index.items()}
        self._checker: Optional[SemanticAnalyzer] = None
        self._checked: Set[int] = set()
        self._lowered: Dict[int, Function] = {}

    def function(self, name: str) -> Function:
        """Function ``name``, lowered from its body alone; KeyError
        when the unit defines no such function."""
        index = self._index.get(name)
        if index is None:
            raise KeyError(f"no function {name!r} in module {self.filename}")
        self._parse(index)
        self._check(index)
        return self._lower(self.spans[index].function)

    def module(self) -> Module:
        """The whole unit's IR module, reusing bodies already compiled."""
        every = range(len(self.spans))
        for span in self.spans:
            if span.body is not None:
                self._parser.lex_body(span)
        for index in every:
            self._parse(index)
        for index in every:
            self._check(index)
        return lower(self.unit, self._lower)

    def texts(self) -> Tuple[str, Dict[str, str]]:
        """The unit's context and each function's own text.

        The context is the tokens outside every body (with the macro
        each came from) and the macro table, so comments and blank
        lines between functions leave it alone.  A function's own text
        runs from the start of its definition line to its closing
        ``}``, so it changes when a line moves inside the function,
        whose reported lines are relative to its definition.  Offsets
        come from the tokens' line and column (the lexer counts
        columns in characters and lines at ``\\n``).
        """
        source = self.source
        starts = list(accumulate((len(line) + 1
                                  for line in source.split("\n")),
                                 initial=0))
        tokens = self._parser.tokens
        outside = []
        own: Dict[str, str] = {}
        done = 0
        for span in self.spans:
            outside.extend(tokens[done:span.start])
            done = span.end
            last = tokens[span.end - 1]
            own[span.function.name] = source[
                starts[span.function.line - 1]:
                starts[last.line - 1] + last.col]
        outside.extend(tokens[done:-1])  # all but EOF
        context = "\0".join(token.text if token.macro is None
                             else f"{token.text}\1{token.macro}"
                             for token in outside)
        macros = "".join(f"\0#define {name} {self.macros[name].text}"
                         for name in sorted(self.macros))
        return context + macros, own

    def _parse_outline(self, bodies: bool) -> None:
        """Lex the unit, its function bodies too only when ``bodies``,
        and parse every top-level declaration."""
        lexer = Lexer(self.source, self.filename)
        self._parser = Parser(lexer.tokenize(bodies), self.filename,
                              lexer.lex_body)
        self.macros = lexer.macros
        self.unit, self.spans = self._parser.parse_outline()

    # ------------------------------------------------------------------
    # one body through the pipeline
    # ------------------------------------------------------------------

    def _parse(self, index: int) -> None:
        span = self.spans[index]
        if span.function.body is None:
            span.function.body = self._parser.parse_body(span)

    def _check(self, index: int) -> None:
        if index in self._checked:
            return
        checker = self._checker
        if checker is None:
            checker = SemanticAnalyzer(self.unit)
            checker.declare()
            self._checker = checker
        checker.check_function(self.spans[index].function)
        self._checked.add(index)

    def _lower(self, fn: A.FunctionDef) -> Function:
        lowered = self._lowered.get(id(fn))
        if lowered is None:
            lowered = FunctionLowering(fn, self.filename).lower()
            self._lowered[id(fn)] = lowered
        return lowered
