"""Recursive-descent parser for the mini-C subset.

Produces the AST of :mod:`repro.lang.ast_nodes`.  The accepted grammar
covers everything the modelled corpus uses: struct/enum/typedef
declarations, functions, the full statement set (including ``switch``
and ``do``/``while``), and C expressions with standard precedence.

Binary expressions parse by precedence climbing over a single
operator → precedence table: one recursion level per *operand*, not
one per grammar level, so ``a + b`` costs 2 calls instead of 11.  The
test suite keeps the original 10-level recursive ladder as a reference
parser; ladder level ``L`` corresponds to climbing with minimum
precedence ``L + 1`` and both build left-associative trees, so the
ASTs are identical node for node.

A unit parses in two steps.  :meth:`Parser.parse_outline` parses every
top-level declaration and skips each function body, recording a
:class:`BodySpan` (where the body lies, and the typedefs in scope
there); :meth:`Parser.parse_body` parses one recorded body.  An
outline's token stream (``Lexer.tokenize(bodies=False)``) holds each
body as one ``BODY`` placeholder between its braces, and
:meth:`Parser.parse_body` lexes such a body when it first parses it;
in a fully lexed stream a body is skipped by brace matching over its
tokens.  :func:`parse` does both steps for every body, so a unit
parsed whole and a unit parsed body by body build the same tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import ParseError
from repro.lang import ast_nodes as A
from repro.lang.lexer import Token, TokenKind, tokenize
from repro.lang.types import CType

_TYPE_KEYWORDS = {"void", "char", "short", "int", "long", "float", "double",
                  "unsigned", "signed", "struct", "union", "const", "static",
                  "extern", "enum"}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

#: Tokens that continue a postfix expression (or start a call).
_POSTFIX_START = {".", "->", "[", "++", "--", "("}

#: Binary operator -> precedence (higher binds tighter); all left-assoc.
_PRECEDENCE = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


@dataclass
class BodySpan:
    """One function definition whose body the outline skipped.

    ``function`` is the definition's header (its ``body`` stays None
    until :meth:`Parser.parse_body` fills it), the body is tokens
    ``[start, end)`` (``{`` through its matching ``}``), and ``scope``
    is the parser's typedef and enum state at the definition.  When
    the body was left unlexed, ``body`` is its ``BODY`` placeholder
    and ``tokens`` the tokens between its braces once lexed.
    """

    function: A.FunctionDef
    start: int
    end: int
    scope: Tuple[FrozenSet[str], Dict[str, CType], FrozenSet[str]]
    body: Optional[Token] = None
    tokens: Optional[List[Token]] = None


class Parser:
    """Parse one translation unit.

    Typedef and enum state is replaced, never mutated, when a
    declaration extends it, so a :class:`BodySpan` snapshots it by
    reference.
    """

    def __init__(self, tokens: List[Token], filename: str = "<input>",
                 lex_body: Optional[Callable[[Token], List[Token]]] = None
                 ) -> None:
        self.tokens = tokens
        self.filename = filename
        #: Lexes the body a ``BODY`` placeholder stands for
        #: (``Lexer.lex_body`` of the lexer that made ``tokens``).
        self._lex_body = lex_body
        self.pos = 0
        self.typedef_names: FrozenSet[str] = frozenset()
        self._typedefs: Dict[str, CType] = {}
        self.enum_constants: FrozenSet[str] = frozenset()
        self._spans: List[BodySpan] = []

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        tokens = self.tokens
        idx = self.pos + offset
        return tokens[idx] if idx < len(tokens) else tokens[-1]

    def _next(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def _check(self, text: str) -> bool:
        token = self.tokens[self.pos]
        return token.text == text and (token.kind is TokenKind.OP
                                       or token.kind is TokenKind.KEYWORD)

    def _accept(self, text: str) -> bool:
        token = self.tokens[self.pos]
        if token.text == text and (token.kind is TokenKind.OP
                                   or token.kind is TokenKind.KEYWORD):
            self.pos += 1
            return True
        return False

    def _expect(self, text: str) -> Token:
        token = self.tokens[self.pos]
        if token.text == text and (token.kind is TokenKind.OP
                                   or token.kind is TokenKind.KEYWORD):
            self.pos += 1
            return token
        raise ParseError(
            f"expected {text!r}, found {token.text!r}",
            self.filename, token.line, token.col,
        )

    def _expect_ident(self) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.IDENT:
            raise ParseError(
                f"expected identifier, found {token.text!r}",
                self.filename, token.line, token.col,
            )
        return self._next()

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(message, self.filename, token.line, token.col)

    # ------------------------------------------------------------------
    # translation unit
    # ------------------------------------------------------------------

    def parse_unit(self) -> A.TranslationUnit:
        """Parse the token stream into a TranslationUnit."""
        unit, spans = self.parse_outline()
        for span in spans:
            span.function.body = self.parse_body(span)
        return unit

    def parse_outline(self) -> Tuple[A.TranslationUnit, List[BodySpan]]:
        """Parse every top-level declaration, skipping function bodies.

        The unit lists each definition's header with ``body`` None; the
        spans say where each skipped body lies, in source order.
        """
        unit = A.TranslationUnit(self.filename)
        self._spans = []
        while self._peek().kind is not TokenKind.EOF:
            self._parse_top_level(unit)
        return unit, self._spans

    def parse_body(self, span: BodySpan) -> A.Block:
        """Parse the body ``span`` recorded, in the scope it recorded."""
        self.typedef_names, self._typedefs, self.enum_constants = span.scope
        if span.body is None:
            self.pos = span.start
            return self._parse_block()
        # The braces around the lexed body, and one token of lookahead.
        tokens = self.tokens
        self.tokens = [tokens[span.start], *self.lex_body(span),
                       *tokens[span.end - 1:span.end + 1]]
        self.pos = 0
        try:
            return self._parse_block()
        finally:
            self.tokens = tokens

    def lex_body(self, span: BodySpan) -> List[Token]:
        """The tokens between the braces of a body the outline left
        unlexed, lexed on the first call."""
        if span.tokens is None:
            span.tokens = self._lex_body(span.body)
        return span.tokens

    def _parse_top_level(self, unit: A.TranslationUnit) -> None:
        token = self._peek()
        if self._check("typedef"):
            unit.typedefs.append(self._parse_typedef())
            return
        if self._check("enum") and self._peek_is_decl_of("enum"):
            unit.enums.append(self._parse_enum_decl())
            return
        if self._check("struct") and self._peek_is_decl_of("struct"):
            unit.structs.append(self._parse_struct_decl())
            return
        # function or global variable
        static = False
        while self._check("static") or self._check("extern") or self._check("const"):
            if self._peek().text == "static":
                static = True
            self._next()
        ctype = self._parse_type_spec()
        while self._accept("*"):
            ctype = ctype.pointer_to()
        name_token = self._expect_ident()
        if self._check("("):
            unit.functions.append(self._parse_function(ctype, name_token, static))
            return
        array = None
        if self._accept("["):
            size_token = self._peek()
            if size_token.kind is TokenKind.INT:
                self._next()
                array = size_token.value
            self._expect("]")
        init = None
        if self._accept("="):
            init = self._parse_assignment()
        self._expect(";")
        gtype = CType(ctype.base, ctype.unsigned, ctype.struct_name, ctype.pointer,
                      array, ctype.typedef_name)
        unit.globals.append(A.GlobalVar(name_token.text, gtype, init, name_token.line))

    def _peek_is_decl_of(self, keyword: str) -> bool:
        """True when 'struct X { ... } ;' style declaration (not a variable)."""
        offset = 1
        if self._peek(offset).kind is TokenKind.IDENT:
            offset += 1
        return self._peek(offset).text == "{"

    # ------------------------------------------------------------------
    # declarations
    # ------------------------------------------------------------------

    def _parse_typedef(self) -> A.Typedef:
        start = self._expect("typedef")
        ctype = self._parse_type_spec()
        while self._accept("*"):
            ctype = ctype.pointer_to()
        name = self._expect_ident()
        self._expect(";")
        self.typedef_names = self.typedef_names | {name.text}
        self._typedefs = {**self._typedefs, name.text: ctype}
        return A.Typedef(name.text, ctype, start.line)

    def _parse_struct_decl(self) -> A.StructDecl:
        start = self._expect("struct")
        name = self._expect_ident()
        self._expect("{")
        fields: List[A.StructField] = []
        while not self._check("}"):
            base = self._parse_type_spec()
            while True:
                ftype = base
                while self._accept("*"):
                    ftype = ftype.pointer_to()
                fname = self._expect_ident()
                if self._accept("["):
                    size_token = self._next()
                    if size_token.kind is not TokenKind.INT:
                        raise self._error("array size must be an integer literal")
                    ftype = CType(ftype.base, ftype.unsigned, ftype.struct_name,
                                  ftype.pointer, size_token.value, ftype.typedef_name)
                    self._expect("]")
                fields.append(A.StructField(fname.text, ftype, fname.line))
                if not self._accept(","):
                    break
            self._expect(";")
        self._expect("}")
        self._expect(";")
        return A.StructDecl(name.text, fields, start.line)

    def _parse_enum_decl(self) -> A.EnumDecl:
        start = self._expect("enum")
        name = None
        if self._peek().kind is TokenKind.IDENT:
            name = self._next().text
        self._expect("{")
        members: List[Tuple[str, int]] = []
        next_value = 0
        while not self._check("}"):
            member = self._expect_ident()
            if self._accept("="):
                value_token = self._next()
                if value_token.kind is not TokenKind.INT:
                    raise self._error("enum value must be an integer literal")
                next_value = value_token.value
            members.append((member.text, next_value))
            next_value += 1
            if not self._accept(","):
                break
        self._expect("}")
        self._expect(";")
        self.enum_constants = self.enum_constants | {m for m, _ in members}
        return A.EnumDecl(name, members, start.line)

    def _parse_function(self, return_type: CType, name_token: Token, static: bool) -> A.FunctionDef:
        self._expect("(")
        params: List[A.Param] = []
        if not self._check(")"):
            if self._check("void") and self._peek(1).text == ")":
                self._next()
            else:
                while True:
                    ptype = self._parse_type_spec()
                    while self._accept("*"):
                        ptype = ptype.pointer_to()
                    pname = self._expect_ident()
                    if self._accept("["):
                        self._expect("]")
                        ptype = ptype.pointer_to()
                    params.append(A.Param(pname.text, ptype))
                    if not self._accept(","):
                        break
        self._expect(")")
        header = A.FunctionDef(name_token.text, return_type, params, None,
                               name_token.line, static)
        if not self._accept(";"):
            start = self.pos
            body = self._skip_body()
            self._spans.append(BodySpan(
                header, start, self.pos,
                (self.typedef_names, self._typedefs, self.enum_constants),
                body))
        return header

    def _skip_body(self) -> Optional[Token]:
        """Step over the ``{ ... }`` at ``pos``; returns the body's
        placeholder when it was left unlexed.

        A lexed body is skipped by brace matching, where only OP tokens
        count: a string or character literal holding a brace is not
        one.  A body whose braces never balance is parsed instead,
        which raises the error a whole-unit parse raises.
        """
        if not self._check("{"):
            self._expect("{")
        tokens = self.tokens
        body = tokens[self.pos + 1]
        if body.kind is TokenKind.BODY:
            self.pos += 3  # ``{``, the placeholder, ``}``
            return body
        op = TokenKind.OP
        depth = 0
        for pos in range(self.pos, len(tokens)):
            token = tokens[pos]
            text = token.text
            if text == "{" and token.kind is op:
                depth += 1
            elif text == "}" and token.kind is op:
                depth -= 1
                if not depth:
                    self.pos = pos + 1
                    return None
        self._parse_block()
        raise self._error("expected '}'")  # the parse above raised first

    # ------------------------------------------------------------------
    # types
    # ------------------------------------------------------------------

    def _starts_type(self) -> bool:
        token = self._peek()
        if token.kind is TokenKind.KEYWORD and token.text in _TYPE_KEYWORDS:
            return True
        return token.kind is TokenKind.IDENT and token.text in self.typedef_names

    def _parse_type_spec(self) -> CType:
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            if (token.kind is TokenKind.KEYWORD
                    and token.text in ("const", "static", "extern")):
                self.pos += 1
            else:
                break
        unsigned = False
        if self._accept("unsigned"):
            unsigned = True
        elif self._accept("signed"):
            pass
        token = self._peek()
        if token.text == "struct" or token.text == "union":
            self._next()
            name = self._expect_ident()
            return CType("struct", struct_name=name.text)
        if token.text == "enum":
            self._next()
            self._expect_ident()
            return CType("int")
        if token.kind is TokenKind.KEYWORD and token.text in (
            "void", "char", "short", "int", "long", "float", "double"
        ):
            base = self._next().text
            if base == "long" and self._accept("long"):
                pass
            if base in ("short", "long") and self._accept("int"):
                pass
            if base == "short":
                base = "short"
            return CType(base if base != "signed" else "int", unsigned)
        if token.kind is TokenKind.IDENT and token.text in self.typedef_names:
            self._next()
            resolved = self._typedefs.get(token.text)
            if resolved is not None:
                return CType(resolved.base, resolved.unsigned or unsigned,
                             resolved.struct_name, resolved.pointer,
                             resolved.array, token.text)
            return CType("int", unsigned, typedef_name=token.text)
        if unsigned:
            return CType("int", True)
        raise self._error(f"expected a type, found {token.text!r}")

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def _parse_block(self) -> A.Block:
        start = self._expect("{")
        statements: List[A.Stmt] = []
        while not self._check("}"):
            statements.append(self._parse_statement())
        self._expect("}")
        return A.Block(start.line, statements)

    def _parse_statement(self) -> A.Stmt:
        token = self.tokens[self.pos]
        kind = token.kind
        # Single dispatch on the already-fetched token: keywords and
        # ``{``/``;`` can only arrive as KEYWORD/OP tokens, so one text
        # comparison replaces the old chain of _check calls.
        if kind is TokenKind.KEYWORD or kind is TokenKind.OP:
            text = token.text
            if text == "{":
                return self._parse_block()
            if text == "if":
                return self._parse_if()
            if text == "while":
                return self._parse_while()
            if text == "do":
                return self._parse_do_while()
            if text == "for":
                return self._parse_for()
            if text == "switch":
                return self._parse_switch()
            if text == "return":
                self.pos += 1
                value = None
                if not self._check(";"):
                    value = self._parse_expression()
                self._expect(";")
                return A.Return(token.line, value)
            if text == "break":
                self.pos += 1
                self._expect(";")
                return A.Break(token.line)
            if text == "continue":
                self.pos += 1
                self._expect(";")
                return A.Continue(token.line)
            if text == "goto":
                self.pos += 1
                label = self._expect_ident()
                self._expect(";")
                return A.Goto(token.line, label.text)
            if text == ";":
                self.pos += 1
                return A.Block(token.line, [])
            # Remaining keywords: either a declaration type or an
            # expression keyword (sizeof) — same split _starts_type
            # makes, without re-fetching the token.
            if kind is TokenKind.KEYWORD and text in _TYPE_KEYWORDS:
                return self._parse_var_decl()
        elif kind is TokenKind.IDENT:
            # Labels: ``name :`` not followed by another ``:``.  The
            # stream always ends in EOF (text ""), so pos+1 is safe,
            # and pos+2 exists whenever pos+1 is not the EOF.
            tokens = self.tokens
            if (tokens[self.pos + 1].text == ":"
                    and tokens[self.pos + 2].text != ":"):
                self.pos += 2
                return A.Label(token.line, token.text)
            if token.text in self.typedef_names:
                return self._parse_var_decl()
        expr = self._parse_expression()
        self._expect(";")
        return A.ExprStmt(token.line, expr)

    def _parse_var_decl(self) -> A.Stmt:
        token = self._peek()
        base = self._parse_type_spec()
        decls: List[A.Stmt] = []
        while True:
            ctype = base
            while self._accept("*"):
                ctype = ctype.pointer_to()
            name = self._expect_ident()
            if self._accept("["):
                size_token = self._peek()
                array = None
                if size_token.kind is TokenKind.INT:
                    self._next()
                    array = size_token.value
                self._expect("]")
                ctype = CType(ctype.base, ctype.unsigned, ctype.struct_name,
                              ctype.pointer, array, ctype.typedef_name)
            init = None
            if self._accept("="):
                init = self._parse_assignment()
            decls.append(A.VarDecl(name.line, name.text, ctype, init))
            if not self._accept(","):
                break
        self._expect(";")
        if len(decls) == 1:
            return decls[0]
        return A.Block(token.line, decls)

    def _parse_if(self) -> A.If:
        start = self._expect("if")
        self._expect("(")
        cond = self._parse_expression()
        self._expect(")")
        then = self._parse_statement()
        otherwise = None
        if self._accept("else"):
            otherwise = self._parse_statement()
        return A.If(start.line, cond, then, otherwise)

    def _parse_while(self) -> A.While:
        start = self._expect("while")
        self._expect("(")
        cond = self._parse_expression()
        self._expect(")")
        body = self._parse_statement()
        return A.While(start.line, cond, body, do_while=False)

    def _parse_do_while(self) -> A.While:
        start = self._expect("do")
        body = self._parse_statement()
        self._expect("while")
        self._expect("(")
        cond = self._parse_expression()
        self._expect(")")
        self._expect(";")
        return A.While(start.line, cond, body, do_while=True)

    def _parse_for(self) -> A.For:
        start = self._expect("for")
        self._expect("(")
        init: Optional[A.Stmt] = None
        if not self._check(";"):
            if self._starts_type():
                init = self._parse_var_decl()
            else:
                expr = self._parse_expression()
                self._expect(";")
                init = A.ExprStmt(start.line, expr)
        else:
            self._expect(";")
        if isinstance(init, A.VarDecl) or isinstance(init, A.Block):
            pass  # _parse_var_decl consumed the ';'
        cond = None
        if not self._check(";"):
            cond = self._parse_expression()
        self._expect(";")
        step = None
        if not self._check(")"):
            step = self._parse_expression()
        self._expect(")")
        body = self._parse_statement()
        return A.For(start.line, init, cond, step, body)

    def _parse_switch(self) -> A.Switch:
        start = self._expect("switch")
        self._expect("(")
        subject = self._parse_expression()
        self._expect(")")
        self._expect("{")
        cases: List[A.SwitchCase] = []
        while not self._check("}"):
            token = self._peek()
            if self._accept("case"):
                value = self._parse_ternary()
                self._expect(":")
                cases.append(A.SwitchCase(value, [], token.line))
            elif self._accept("default"):
                self._expect(":")
                cases.append(A.SwitchCase(None, [], token.line))
            else:
                if not cases:
                    raise self._error("statement before first case label")
                cases[-1].body.append(self._parse_statement())
        self._expect("}")
        return A.Switch(start.line, subject, cases)

    # ------------------------------------------------------------------
    # expressions (precedence climbing, C order)
    # ------------------------------------------------------------------

    def _parse_expression(self) -> A.Expr:
        expr = self._parse_assignment()
        while self._accept(","):
            right = self._parse_assignment()
            expr = A.Binary(expr.line, ",", expr, right)
        return expr

    def _parse_assignment(self) -> A.Expr:
        left = self._parse_ternary()
        token = self.tokens[self.pos]
        if token.kind is TokenKind.OP and token.text in _ASSIGN_OPS:
            self.pos += 1
            value = self._parse_assignment()
            return A.Assign(left.line, token.text, left, value)
        return left

    def _parse_ternary(self) -> A.Expr:
        cond = self._parse_binary(1)
        if self._accept("?"):
            then = self._parse_assignment()
            self._expect(":")
            otherwise = self._parse_assignment()
            return A.Ternary(cond.line, cond, then, otherwise)
        return cond

    def _parse_binary(self, min_prec: int) -> A.Expr:
        """Precedence climbing over :data:`_PRECEDENCE`.

        Recursing with ``prec + 1`` for the right operand makes every
        operator left-associative.
        """
        expr = self._parse_unary()
        tokens = self.tokens
        get_prec = _PRECEDENCE.get
        while True:
            token = tokens[self.pos]
            if token.kind is not TokenKind.OP:
                return expr
            prec = get_prec(token.text)
            if prec is None or prec < min_prec:
                return expr
            self.pos += 1
            right = self._parse_binary(prec + 1)
            expr = A.Binary(expr.line, token.text, expr, right)

    def _parse_unary(self) -> A.Expr:
        tokens = self.tokens
        token = tokens[self.pos]
        kind = token.kind
        # Plain atoms (an identifier or literal with no postfix
        # continuation) are the bulk of all expressions; build them
        # here instead of descending through postfix and primary.
        if kind is TokenKind.IDENT:
            if tokens[self.pos + 1].text not in _POSTFIX_START:
                self.pos += 1
                return A.Ident(token.line, token.text)
        elif kind is TokenKind.INT or kind is TokenKind.CHAR:
            if tokens[self.pos + 1].text not in _POSTFIX_START:
                self.pos += 1
                return A.IntLit(token.line, token.value, token.macro)
        elif kind is TokenKind.OP:
            text = token.text
            if text in ("!", "~", "-", "+"):
                self.pos += 1
                operand = self._parse_unary()
                if text == "+":
                    return operand
                return A.Unary(token.line, text, operand)
            if text in ("++", "--"):
                self.pos += 1
                operand = self._parse_unary()
                return A.Unary(token.line, text, operand, prefix=True)
            if text == "&":
                self.pos += 1
                operand = self._parse_unary()
                return A.AddressOf(token.line, operand)
            if text == "*":
                self.pos += 1
                operand = self._parse_unary()
                return A.Deref(token.line, operand)
            if text == "(" and self._is_cast():
                self.pos += 1
                ctype = self._parse_type_spec()
                while self._accept("*"):
                    ctype = ctype.pointer_to()
                self._expect(")")
                operand = self._parse_unary()
                return A.Cast(token.line, ctype, operand)
        elif kind is TokenKind.KEYWORD and token.text == "sizeof":
            self.pos += 1
            self._expect("(")
            if self._starts_type():
                ctype = self._parse_type_spec()
                while self._accept("*"):
                    ctype = ctype.pointer_to()
                self._expect(")")
                return A.SizeOf(token.line, ctype, None)
            operand = self._parse_expression()
            self._expect(")")
            return A.SizeOf(token.line, None, operand)
        return self._parse_postfix()

    def _is_cast(self) -> bool:
        """Lookahead: '(' type-spec '*'* ')' followed by a unary start."""
        if self._peek().text != "(":
            return False
        nxt = self._peek(1)
        if nxt.kind is TokenKind.KEYWORD and nxt.text in _TYPE_KEYWORDS - {"const", "static", "extern"}:
            return True
        return nxt.kind is TokenKind.IDENT and nxt.text in self.typedef_names

    def _parse_postfix(self) -> A.Expr:
        expr = self._parse_primary()
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            # Every postfix continuation is an operator token.
            if token.kind is not TokenKind.OP:
                return expr
            text = token.text
            if text == ".":
                self.pos += 1
                name = self._expect_ident()
                expr = A.Member(token.line, expr, name.text, arrow=False)
            elif text == "->":
                self.pos += 1
                name = self._expect_ident()
                expr = A.Member(token.line, expr, name.text, arrow=True)
            elif text == "[":
                self.pos += 1
                index = self._parse_expression()
                self._expect("]")
                expr = A.Index(token.line, expr, index)
            elif text == "++" or text == "--":
                self.pos += 1
                expr = A.Unary(token.line, text, expr, prefix=False)
            else:
                return expr

    def _parse_primary(self) -> A.Expr:
        tokens = self.tokens
        token = tokens[self.pos]
        kind = token.kind
        if kind is TokenKind.IDENT:
            self.pos += 1
            nxt = tokens[self.pos]
            if nxt.kind is TokenKind.OP and nxt.text == "(":
                self.pos += 1
                args: List[A.Expr] = []
                if not self._check(")"):
                    while True:
                        args.append(self._parse_assignment())
                        if not self._accept(","):
                            break
                self._expect(")")
                return A.Call(token.line, token.text, args)
            return A.Ident(token.line, token.text)
        if kind is TokenKind.INT or kind is TokenKind.CHAR:
            self.pos += 1
            return A.IntLit(token.line, token.value, token.macro)
        if kind is TokenKind.STRING:
            self.pos += 1
            return A.StrLit(token.line, token.text)
        if kind is TokenKind.OP and token.text == "(":
            self.pos += 1
            expr = self._parse_expression()
            self._expect(")")
            return expr
        raise self._error(f"unexpected token {token.text!r} in expression")


def parse(source: str, filename: str = "<input>") -> A.TranslationUnit:
    """Tokenize and parse ``source`` into a translation unit."""
    return Parser(tokenize(source, filename), filename).parse_unit()
