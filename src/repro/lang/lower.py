"""AST-to-IR lowering.

Structured control flow becomes labelled basic blocks; expressions
become three-address instructions.  ``switch`` lowers to a comparison
chain with C fallthrough semantics; ternaries lower to real control
flow with a select variable, so taint follows both arms and the
condition.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import LoweringError
from repro.lang import ast_nodes as A
from repro.lang.ir import (
    BasicBlock,
    BinOp,
    Branch,
    CallInstr,
    Const,
    Function,
    Instr,
    Jump,
    LoadField,
    LoadIndex,
    Module,
    Move,
    Ret,
    StoreField,
    StoreIndex,
    StrConst,
    Temp,
    UnOp,
    Value,
    Var,
)


class FunctionLowering:
    """Lower one function definition."""

    def __init__(self, fn: A.FunctionDef, filename: str) -> None:
        self.fn = fn
        self.filename = filename
        self.func = Function(
            name=fn.name,
            params=[p.name for p in fn.params],
            param_types={p.name: p.ctype.spelled() for p in fn.params},
            line=fn.line,
        )
        self._temp_counter = 0
        self._label_counter = 0
        self._select_counter = 0
        self.current = self._new_block("entry")
        self.func.entry = "entry"
        #: Whether ``current`` already has a terminator.  Mirrors
        #: ``current.terminator is not None`` so the per-instruction
        #: emit check is one flag read instead of a property scan.
        self._sealed = False
        self._break_stack: List[str] = []
        self._continue_stack: List[str] = []
        self._goto_labels: Dict[str, BasicBlock] = {}

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _new_temp(self) -> Temp:
        self._temp_counter += 1
        return Temp(self._temp_counter)

    def _new_block(self, hint: str) -> BasicBlock:
        self._label_counter += 1
        label = f"{hint}" if hint == "entry" else f"{hint}.{self._label_counter}"
        block = BasicBlock(label)
        self.func.blocks[label] = block
        return block

    def _emit(self, instr: Instr) -> None:
        """Append a non-terminator to the current block (if still open)."""
        if not self._sealed:
            self.current.instrs.append(instr)

    def _emit_term(self, instr: Instr) -> None:
        """Append a terminator (Branch/Ret) and seal the block."""
        if not self._sealed:
            self.current.instrs.append(instr)
            self._sealed = True

    def _switch_to(self, block: BasicBlock) -> None:
        self.current = block
        self._sealed = block.terminator is not None

    def _terminate_with_jump(self, target: str) -> None:
        if not self._sealed:
            self.current.instrs.append(Jump(0, target))
            self._sealed = True

    # ------------------------------------------------------------------
    # entry
    # ------------------------------------------------------------------

    def lower(self) -> Function:
        """Lower the function body; returns the finished Function."""
        self._lower_stmt(self.fn.body)
        if self.current.terminator is None:
            self.current.instrs.append(Ret(0, None))
        # Guarantee every block terminates (empty merge blocks get rets).
        for block in self.func.blocks.values():
            if block.terminator is None:
                block.instrs.append(Ret(0, None))
        return self.func

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def _lower_stmt(self, stmt: A.Stmt) -> None:
        # Exact-type dispatch (the AST hierarchy is flat), most common
        # statement kinds first.
        t = type(stmt)
        if t is A.ExprStmt:
            self._lower_expr(stmt.expr)
        elif t is A.If:
            self._lower_if(stmt)
        elif t is A.Block:
            for child in stmt.statements:
                self._lower_stmt(child)
        elif t is A.VarDecl:
            if stmt.init is not None:
                value = self._lower_expr(stmt.init)
                self._emit(Move(stmt.line, Var(stmt.name), value))
        elif t is A.Return:
            value = self._lower_expr(stmt.value) if stmt.value is not None else None
            self._emit_term(Ret(stmt.line, value))
        elif t is A.While:
            self._lower_while(stmt)
        elif t is A.For:
            self._lower_for(stmt)
        elif t is A.Break:
            if not self._break_stack:
                raise LoweringError(f"{self.filename}:{stmt.line}: break outside loop/switch")
            self._terminate_with_jump(self._break_stack[-1])
        elif t is A.Continue:
            if not self._continue_stack:
                raise LoweringError(f"{self.filename}:{stmt.line}: continue outside loop")
            self._terminate_with_jump(self._continue_stack[-1])
        elif t is A.Switch:
            self._lower_switch(stmt)
        elif t is A.Goto:
            target = self._goto_block(stmt.label)
            self._terminate_with_jump(target.label)
        elif t is A.Label:
            target = self._goto_block(stmt.name)
            self._terminate_with_jump(target.label)
            self._switch_to(target)
        else:
            raise LoweringError(f"{self.filename}:{stmt.line}: cannot lower "
                                f"{type(stmt).__name__}")

    def _goto_block(self, name: str) -> BasicBlock:
        if name not in self._goto_labels:
            self._goto_labels[name] = self._new_block(f"label_{name}")
        return self._goto_labels[name]

    def _lower_if(self, stmt: A.If) -> None:
        cond = self._lower_expr(stmt.cond)
        then_block = self._new_block("if.then")
        else_block = self._new_block("if.else") if stmt.otherwise else None
        merge = self._new_block("if.end")
        self._emit_term(Branch(stmt.line, cond, then_block.label,
                          (else_block or merge).label))
        self._switch_to(then_block)
        self._lower_stmt(stmt.then)
        self._terminate_with_jump(merge.label)
        if else_block is not None:
            self._switch_to(else_block)
            self._lower_stmt(stmt.otherwise)
            self._terminate_with_jump(merge.label)
        self._switch_to(merge)

    def _lower_while(self, stmt: A.While) -> None:
        head = self._new_block("while.cond")
        body = self._new_block("while.body")
        end = self._new_block("while.end")
        if stmt.do_while:
            self._terminate_with_jump(body.label)
        else:
            self._terminate_with_jump(head.label)
        self._switch_to(head)
        cond = self._lower_expr(stmt.cond)
        self._emit_term(Branch(stmt.line, cond, body.label, end.label))
        self._switch_to(body)
        self._break_stack.append(end.label)
        self._continue_stack.append(head.label)
        self._lower_stmt(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        self._terminate_with_jump(head.label)
        self._switch_to(end)

    def _lower_for(self, stmt: A.For) -> None:
        if stmt.init is not None:
            self._lower_stmt(stmt.init)
        head = self._new_block("for.cond")
        body = self._new_block("for.body")
        step = self._new_block("for.step")
        end = self._new_block("for.end")
        self._terminate_with_jump(head.label)
        self._switch_to(head)
        if stmt.cond is not None:
            cond = self._lower_expr(stmt.cond)
            self._emit_term(Branch(stmt.line, cond, body.label, end.label))
        else:
            self._terminate_with_jump(body.label)
        self._switch_to(body)
        self._break_stack.append(end.label)
        self._continue_stack.append(step.label)
        self._lower_stmt(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        self._terminate_with_jump(step.label)
        self._switch_to(step)
        if stmt.step is not None:
            self._lower_expr(stmt.step)
        self._terminate_with_jump(head.label)
        self._switch_to(end)

    def _lower_switch(self, stmt: A.Switch) -> None:
        subject = self._lower_expr(stmt.subject)
        end = self._new_block("switch.end")
        body_blocks = [self._new_block(f"case.{i}") for i in range(len(stmt.cases))]
        default_index: Optional[int] = None
        # Comparison chain.
        for i, case in enumerate(stmt.cases):
            if case.value is None:
                default_index = i
                continue
            value = self._lower_expr(case.value)
            cmp = self._new_temp()
            self._emit(BinOp(case.line, cmp, "==", subject, value))
            next_test = self._new_block(f"switch.test.{i}")
            self._emit_term(Branch(case.line, cmp, body_blocks[i].label, next_test.label))
            self._switch_to(next_test)
        self._terminate_with_jump(
            body_blocks[default_index].label if default_index is not None else end.label
        )
        # Case bodies, with C fallthrough.
        self._break_stack.append(end.label)
        for i, case in enumerate(stmt.cases):
            self._switch_to(body_blocks[i])
            for child in case.body:
                self._lower_stmt(child)
            fallthrough = body_blocks[i + 1].label if i + 1 < len(body_blocks) else end.label
            self._terminate_with_jump(fallthrough)
        self._break_stack.pop()
        self._switch_to(end)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def _lower_expr(self, expr: A.Expr) -> Value:
        # Exact-type dispatch (the AST hierarchy is flat), most common
        # expression kinds first.
        t = type(expr)
        if t is A.Ident:
            return Var(expr.name)
        if t is A.IntLit:
            return Const(expr.value, expr.macro)
        if t is A.Binary:
            if expr.op == ",":
                self._lower_expr(expr.left)
                return self._lower_expr(expr.right)
            left = self._lower_expr(expr.left)
            right = self._lower_expr(expr.right)
            dst = self._new_temp()
            self._emit(BinOp(expr.line, dst, expr.op, left, right))
            return dst
        if t is A.Member:
            base = self._lower_expr(expr.base)
            struct = self._struct_of(expr.base)
            dst = self._new_temp()
            self._emit(LoadField(expr.line, dst, base, struct, expr.field_name))
            return dst
        if t is A.Call:
            args = [self._lower_expr(a) for a in expr.args]
            dst = self._new_temp()
            self._emit(CallInstr(expr.line, dst, expr.func, args))
            return dst
        if t is A.Assign:
            return self._lower_assign(expr)
        if t is A.Unary:
            return self._lower_unary(expr)
        if t is A.StrLit:
            return StrConst(expr.value)
        if t is A.Index:
            base = self._lower_expr(expr.base)
            index = self._lower_expr(expr.index)
            dst = self._new_temp()
            self._emit(LoadIndex(expr.line, dst, base, index))
            return dst
        if t is A.Ternary:
            return self._lower_ternary(expr)
        if t is A.Cast:
            return self._lower_expr(expr.operand)
        if t is A.SizeOf:
            return Const(8)
        if t is A.AddressOf:
            operand = self._lower_expr(expr.operand)
            dst = self._new_temp()
            self._emit(UnOp(expr.line, dst, "&", operand))
            return dst
        if t is A.Deref:
            operand = self._lower_expr(expr.operand)
            dst = self._new_temp()
            self._emit(UnOp(expr.line, dst, "*", operand))
            return dst
        raise LoweringError(f"{self.filename}:{expr.line}: cannot lower "
                            f"{type(expr).__name__}")

    def _lower_unary(self, expr: A.Unary) -> Value:
        if expr.op in ("++", "--"):
            # Rewrite as load/add/store against the lvalue.
            current = self._lower_expr(expr.operand)
            updated = self._new_temp()
            arith = "+" if expr.op == "++" else "-"
            self._emit(BinOp(expr.line, updated, arith, current, Const(1)))
            self._store_into(expr.operand, updated, expr.line)
            return updated if expr.prefix else current
        operand = self._lower_expr(expr.operand)
        dst = self._new_temp()
        self._emit(UnOp(expr.line, dst, expr.op, operand))
        return dst

    def _lower_ternary(self, expr: A.Ternary) -> Value:
        """Lower ``c ? a : b`` to real control flow with a select variable."""
        cond = self._lower_expr(expr.cond)
        self._select_counter += 1
        select = Var(f".sel{self._select_counter}")
        then_block = self._new_block("sel.then")
        else_block = self._new_block("sel.else")
        merge = self._new_block("sel.end")
        self._emit_term(Branch(expr.line, cond, then_block.label, else_block.label))
        self._switch_to(then_block)
        then_value = self._lower_expr(expr.then)
        self._emit(Move(expr.line, select, then_value))
        self._terminate_with_jump(merge.label)
        self._switch_to(else_block)
        else_value = self._lower_expr(expr.otherwise)
        self._emit(Move(expr.line, select, else_value))
        self._terminate_with_jump(merge.label)
        self._switch_to(merge)
        return select

    def _lower_assign(self, expr: A.Assign) -> Value:
        value = self._lower_expr(expr.value)
        if expr.op != "=":
            # Compound assignment: load current, combine, store.
            current = self._lower_expr(expr.target)
            combined = self._new_temp()
            self._emit(BinOp(expr.line, combined, expr.op[:-1], current, value))
            value = combined
        self._store_into(expr.target, value, expr.line)
        return value

    def _store_into(self, target: A.Expr, value: Value, line: int) -> None:
        if isinstance(target, A.Ident):
            self._emit(Move(line, Var(target.name), value))
        elif isinstance(target, A.Member):
            base = self._lower_expr(target.base)
            struct = self._struct_of(target.base)
            self._emit(StoreField(line, base, struct, target.field_name, value))
        elif isinstance(target, A.Index):
            base = self._lower_expr(target.base)
            index = self._lower_expr(target.index)
            self._emit(StoreIndex(line, base, index, value))
        elif isinstance(target, A.Deref):
            base = self._lower_expr(target.operand)
            self._emit(StoreIndex(line, base, Const(0), value))
        else:
            raise LoweringError(
                f"{self.filename}:{line}: invalid assignment target "
                f"{type(target).__name__}"
            )

    @staticmethod
    def _struct_of(base: A.Expr) -> str:
        ctype = getattr(base, "ctype", None)
        if ctype is not None and ctype.struct_name:
            return ctype.struct_name
        return "?"


def lower(unit: A.TranslationUnit,
          lower_function: Optional[Callable[[A.FunctionDef], Function]] = None
          ) -> Module:
    """Lower a (semantically checked) translation unit to an IR module.

    ``lower_function`` lowers one function definition; by default each
    is lowered afresh (an outline passes the bodies it already has).
    """
    if lower_function is None:
        def lower_function(fn: A.FunctionDef) -> Function:
            return FunctionLowering(fn, unit.filename).lower()
    module = Module(unit.filename)
    for struct in unit.structs:
        module.structs[struct.name] = [f.name for f in struct.fields]
    for fn in unit.functions:
        if fn.body is None:
            continue
        module.functions[fn.name] = lower_function(fn)
    return module
