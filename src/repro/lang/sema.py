"""Semantic analysis for the mini-C subset.

Builds symbol tables, resolves struct member accesses, and performs
the light type checking the analyzer relies on:

- every identifier resolves to a declaration (local, parameter, global,
  enum constant, or known function),
- member accesses name a field that exists on the resolved struct,
- ``->`` is applied to struct pointers and ``.`` to struct values.

The checker annotates expressions in place: ``expr.ctype`` holds the
resolved :class:`~repro.lang.types.CType` where one is known.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import SemanticError
from repro.lang import ast_nodes as A
from repro.lang.types import CType, INT, CHAR_PTR

#: Library functions the corpus may call without declaring; maps name to
#: (return type, variadic marker ignored).  Mirrors what a compiler gets
#: from headers.
BUILTIN_FUNCTIONS: Dict[str, CType] = {
    "abs": INT,
    "atoi": INT,
    "atol": CType("long"),
    "strtol": CType("long"),
    "strtoul": CType("long", unsigned=True),
    "strcmp": INT,
    "strncmp": INT,
    "strlen": CType("long", unsigned=True),
    "strchr": CHAR_PTR,
    "strcpy": CHAR_PTR,
    "printf": INT,
    "fprintf": INT,
    "sprintf": INT,
    "exit": CType("void"),
    "abort": CType("void"),
    "usage": CType("void"),
    "com_err": CType("void"),
    "fatal_error": CType("void"),
    "ext2fs_blocks_count": CType("long", unsigned=True),
    "malloc": CType("void", pointer=1),
    "free": CType("void"),
    "memset": CType("void", pointer=1),
    "memcpy": CType("void", pointer=1),
    "getopt": INT,
    "optarg_value": CHAR_PTR,
    "parse_num_blocks": CType("long", unsigned=True),
    "parse_uint": CType("int", unsigned=True),
    "parse_ulong": CType("long", unsigned=True),
}


class Scope:
    """One lexical scope of variable declarations."""

    def __init__(self, parent: Optional["Scope"] = None) -> None:
        self.parent = parent
        self.names: Dict[str, CType] = {}

    def declare(self, name: str, ctype: CType) -> None:
        """Bind a name to a type in this scope."""
        self.names[name] = ctype

    def lookup(self, name: str) -> Optional[CType]:
        """Resolve a name through enclosing scopes; None when unbound."""
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None


class SemanticAnalyzer:
    """Check one translation unit and annotate expression types."""

    def __init__(self, unit: A.TranslationUnit) -> None:
        self.unit = unit
        self.structs: Dict[str, A.StructDecl] = {}
        self.functions: Dict[str, A.FunctionDef] = {}
        self.enum_constants: Dict[str, int] = {}
        self.globals = Scope()
        # struct name -> {field name -> type}; built lazily per struct so
        # member resolution is one dict probe instead of a field scan.
        self._field_maps: Dict[str, Dict[str, CType]] = {}

    def run(self) -> None:
        """Check the whole unit; raises SemanticError on the first fault."""
        self.declare()
        for fn in self.unit.functions:
            if fn.body is not None:
                self.check_function(fn)

    def declare(self) -> None:
        """Build the unit-level tables (structs, enum constants, globals,
        functions) that every function body is checked against."""
        for struct in self.unit.structs:
            if struct.name in self.structs:
                raise SemanticError(f"struct {struct.name!r} redefined",
                                    self.unit.filename, struct.line)
            self.structs[struct.name] = struct
        for enum in self.unit.enums:
            for name, value in enum.members:
                self.enum_constants[name] = value
        for gvar in self.unit.globals:
            self.globals.declare(gvar.name, gvar.ctype)
        for fn in self.unit.functions:
            self.functions[fn.name] = fn

    # ------------------------------------------------------------------
    # functions and statements
    # ------------------------------------------------------------------

    def check_function(self, fn: A.FunctionDef) -> None:
        """Check one function body against the unit-level tables."""
        scope = Scope(self.globals)
        for param in fn.params:
            scope.declare(param.name, param.ctype)
        self._check_stmt(fn.body, scope, fn)

    def _check_stmt(self, stmt: A.Stmt, scope: Scope, fn: A.FunctionDef) -> None:
        # Exact-type dispatch (the AST hierarchy is flat), most common
        # statement kinds first.
        t = type(stmt)
        if t is A.ExprStmt:
            self._check_expr(stmt.expr, scope, fn)
        elif t is A.If:
            self._check_expr(stmt.cond, scope, fn)
            self._check_stmt(stmt.then, scope, fn)
            if stmt.otherwise is not None:
                self._check_stmt(stmt.otherwise, scope, fn)
        elif t is A.Block:
            inner = Scope(scope)
            for child in stmt.statements:
                self._check_stmt(child, inner, fn)
        elif t is A.VarDecl:
            if stmt.init is not None:
                self._check_expr(stmt.init, scope, fn)
            scope.declare(stmt.name, stmt.ctype)
        elif t is A.Return:
            if stmt.value is not None:
                self._check_expr(stmt.value, scope, fn)
        elif t is A.While:
            self._check_expr(stmt.cond, scope, fn)
            self._check_stmt(stmt.body, scope, fn)
        elif t is A.For:
            inner = Scope(scope)
            if stmt.init is not None:
                self._check_stmt(stmt.init, inner, fn)
            if stmt.cond is not None:
                self._check_expr(stmt.cond, inner, fn)
            if stmt.step is not None:
                self._check_expr(stmt.step, inner, fn)
            self._check_stmt(stmt.body, inner, fn)
        elif t is A.Switch:
            self._check_expr(stmt.subject, scope, fn)
            for case in stmt.cases:
                if case.value is not None:
                    self._check_expr(case.value, scope, fn)
                inner = Scope(scope)
                for child in case.body:
                    self._check_stmt(child, inner, fn)
        elif t in (A.Break, A.Continue, A.Goto, A.Label):
            pass
        else:
            raise SemanticError(f"unhandled statement {type(stmt).__name__}",
                                self.unit.filename, stmt.line)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def _check_expr(self, expr: A.Expr, scope: Scope, fn: A.FunctionDef) -> CType:
        ctype = self._infer(expr, scope, fn)
        expr.ctype = ctype  # type: ignore[attr-defined]
        return ctype

    def _field_type(self, struct: A.StructDecl, field_name: str) -> Optional[CType]:
        """Field type on ``struct``, via a lazily built per-struct map."""
        table = self._field_maps.get(struct.name)
        if table is None:
            table = {field.name: field.ctype for field in struct.fields}
            self._field_maps[struct.name] = table
        return table.get(field_name)

    def _infer(self, expr: A.Expr, scope: Scope, fn: A.FunctionDef) -> CType:
        # Exact-type dispatch (the AST hierarchy is flat), most common
        # expression kinds first.
        t = type(expr)
        if t is A.Ident:
            found = scope.lookup(expr.name)
            if found is not None:
                return found
            if expr.name in self.enum_constants:
                return INT
            if expr.name in self.functions or expr.name in BUILTIN_FUNCTIONS:
                return INT  # function designator used as value
            raise SemanticError(f"undeclared identifier {expr.name!r}",
                                self.unit.filename, expr.line)
        if t is A.Binary:
            self._check_expr(expr.left, scope, fn)
            right = self._check_expr(expr.right, scope, fn)
            if expr.op == ",":
                return right
            return INT
        if t is A.Member:
            base = self._check_expr(expr.base, scope, fn)
            if expr.arrow and not base.is_struct_pointer:
                raise SemanticError(
                    f"'->' applied to non-struct-pointer {base}",
                    self.unit.filename, expr.line)
            if not expr.arrow and not base.is_struct:
                raise SemanticError(
                    f"'.' applied to non-struct {base}",
                    self.unit.filename, expr.line)
            struct = self.structs.get(base.struct_name or "")
            if struct is None:
                raise SemanticError(f"unknown struct {base.struct_name!r}",
                                    self.unit.filename, expr.line)
            ctype = self._field_type(struct, expr.field_name)
            if ctype is not None:
                return ctype
            raise SemanticError(
                f"struct {struct.name!r} has no field {expr.field_name!r}",
                self.unit.filename, expr.line)
        if t is A.IntLit:
            return INT
        if t is A.Call:
            for arg in expr.args:
                self._check_expr(arg, scope, fn)
            if expr.func in self.functions:
                return self.functions[expr.func].return_type
            if expr.func in BUILTIN_FUNCTIONS:
                return BUILTIN_FUNCTIONS[expr.func]
            raise SemanticError(f"call to undeclared function {expr.func!r}",
                                self.unit.filename, expr.line)
        if t is A.Assign:
            self._check_expr(expr.target, scope, fn)
            self._check_expr(expr.value, scope, fn)
            return getattr(expr.target, "ctype", INT)
        if t is A.Unary:
            self._check_expr(expr.operand, scope, fn)
            return INT
        if t is A.StrLit:
            return CHAR_PTR
        if t is A.Index:
            base = self._check_expr(expr.base, scope, fn)
            self._check_expr(expr.index, scope, fn)
            try:
                return base.deref()
            except ValueError:
                return INT
        if t is A.Ternary:
            self._check_expr(expr.cond, scope, fn)
            then = self._check_expr(expr.then, scope, fn)
            self._check_expr(expr.otherwise, scope, fn)
            return then
        if t is A.Cast:
            self._check_expr(expr.operand, scope, fn)
            return expr.ctype
        if t is A.SizeOf:
            if expr.operand is not None:
                self._check_expr(expr.operand, scope, fn)
            return CType("long", unsigned=True)
        if t is A.AddressOf:
            inner = self._check_expr(expr.operand, scope, fn)
            return inner.pointer_to()
        if t is A.Deref:
            inner = self._check_expr(expr.operand, scope, fn)
            try:
                return inner.deref()
            except ValueError:
                return INT
        raise SemanticError(f"unhandled expression {type(expr).__name__}",
                            self.unit.filename, expr.line)


def analyze(unit: A.TranslationUnit) -> SemanticAnalyzer:
    """Run semantic analysis; returns the analyzer (symbol tables)."""
    checker = SemanticAnalyzer(unit)
    checker.run()
    return checker
