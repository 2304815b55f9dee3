"""The register IR the analyzer consumes (the LLVM-IR substitute).

Each function becomes a list of basic blocks holding three-address
instructions.  Struct traffic is explicit — :class:`LoadField` /
:class:`StoreField` name the struct tag and field — because shared
metadata fields are how the paper's analyzer bridges components.
Constants remember the ``#define`` macro they came from, so feature-bit
masks stay recognizable after expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterator, List, Optional, Tuple, Union


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Value:
    """Base class for IR operands."""


@dataclass(frozen=True)
class Temp(Value):
    """A compiler temporary."""

    id: int

    def __str__(self) -> str:
        return f"%t{self.id}"


@dataclass(frozen=True)
class Var(Value):
    """A named local, parameter, or global."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Value):
    """An integer constant; ``macro`` is the #define it expanded from."""

    value: int
    macro: Optional[str] = None

    def __str__(self) -> str:
        if self.macro:
            return f"{self.macro}({self.value})"
        return str(self.value)


@dataclass(frozen=True)
class StrConst(Value):
    """A string literal."""

    text: str

    def __str__(self) -> str:
        return repr(self.text)


Register = Union[Temp, Var]


# ---------------------------------------------------------------------------
# instructions
# ---------------------------------------------------------------------------


@dataclass
class Instr:
    """Base instruction; subclasses define defs()/uses().

    ``flow_dst``/``flow_srcs`` describe the *taint dataflow* surface of
    the instruction — the one value its transfer function may taint,
    and the operand values whose taint feeds that transfer.  They
    differ from ``defs``/``uses`` where taint semantics differ from
    SSA-style def/use: a ``StoreIndex`` defines nothing but taints its
    base aggregate, and a ``LoadField``'s output taint is independent
    of its base operand.  The sparse worklist solver builds its
    def-use edges from these.
    """

    line: int = 0

    def defs(self) -> Tuple[Register, ...]:
        return ()

    def uses(self) -> Tuple[Value, ...]:
        return ()

    def flow_dst(self) -> Optional[Value]:
        """The value this instruction's taint transfer may taint."""
        return None

    def flow_srcs(self) -> Tuple[Value, ...]:
        """Operands whose taint feeds this instruction's transfer."""
        return ()


@dataclass
class Move(Instr):
    """Copy a value into a register."""
    dst: Register = None
    src: Value = None

    def defs(self):
        return (self.dst,)

    def uses(self):
        return (self.src,)

    def flow_dst(self):
        return self.dst

    def flow_srcs(self):
        return (self.src,)

    def __str__(self) -> str:
        return f"{self.dst} = {self.src}"


@dataclass
class BinOp(Instr):
    """dst = left <op> right."""
    dst: Temp = None
    op: str = ""
    left: Value = None
    right: Value = None

    def defs(self):
        return (self.dst,)

    def uses(self):
        return (self.left, self.right)

    def flow_dst(self):
        return self.dst

    def flow_srcs(self):
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{self.dst} = {self.left} {self.op} {self.right}"


@dataclass
class UnOp(Instr):
    """dst = <op>operand."""
    dst: Temp = None
    op: str = ""
    operand: Value = None

    def defs(self):
        return (self.dst,)

    def uses(self):
        return (self.operand,)

    def flow_dst(self):
        return self.dst

    def flow_srcs(self):
        return (self.operand,)

    def __str__(self) -> str:
        return f"{self.dst} = {self.op}{self.operand}"


@dataclass
class LoadField(Instr):
    """dst = base->field (struct load)."""
    dst: Temp = None
    base: Value = None
    struct: str = ""
    field: str = ""

    def defs(self):
        return (self.dst,)

    def uses(self):
        return (self.base,)

    def flow_dst(self):
        # Output taint is the field label (+ unit-wide injections),
        # independent of the base operand's own taint.
        return self.dst

    def __str__(self) -> str:
        return f"{self.dst} = load {self.base}->{self.field} [{self.struct}]"


@dataclass
class StoreField(Instr):
    """base->field = src (struct store)."""
    base: Value = None
    struct: str = ""
    field: str = ""
    src: Value = None

    def uses(self):
        return (self.base, self.src)

    def __str__(self) -> str:
        return f"store {self.base}->{self.field} [{self.struct}] = {self.src}"


@dataclass
class LoadIndex(Instr):
    """dst = base[index]."""
    dst: Temp = None
    base: Value = None
    index: Value = None

    def defs(self):
        return (self.dst,)

    def uses(self):
        return (self.base, self.index)

    def flow_dst(self):
        return self.dst

    def flow_srcs(self):
        return (self.base,)

    def __str__(self) -> str:
        return f"{self.dst} = {self.base}[{self.index}]"


@dataclass
class StoreIndex(Instr):
    """base[index] = src."""
    base: Value = None
    index: Value = None
    src: Value = None

    def uses(self):
        return (self.base, self.index, self.src)

    def flow_dst(self):
        # Writing through an array cell taints the base aggregate.
        return self.base

    def flow_srcs(self):
        return (self.src,)

    def __str__(self) -> str:
        return f"{self.base}[{self.index}] = {self.src}"


@dataclass
class CallInstr(Instr):
    """dst = call func(args...)."""
    dst: Optional[Temp] = None
    func: str = ""
    args: List[Value] = dc_field(default_factory=list)

    def defs(self):
        return (self.dst,) if self.dst is not None else ()

    def uses(self):
        return tuple(self.args)

    def flow_dst(self):
        return self.dst

    def flow_srcs(self):
        # Arguments only matter for taint-preserving callees; the
        # engine filters, the edge set just has to be a superset.
        return tuple(self.args)

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        prefix = f"{self.dst} = " if self.dst is not None else ""
        return f"{prefix}call {self.func}({args})"


@dataclass
class Branch(Instr):
    """Conditional two-way transfer."""
    cond: Value = None
    true_label: str = ""
    false_label: str = ""

    def uses(self):
        return (self.cond,)

    def __str__(self) -> str:
        return f"br {self.cond} ? {self.true_label} : {self.false_label}"


@dataclass
class Jump(Instr):
    """Unconditional transfer."""
    label: str = ""

    def __str__(self) -> str:
        return f"jmp {self.label}"


@dataclass
class Ret(Instr):
    """Return from the function."""
    value: Optional[Value] = None

    def uses(self):
        return (self.value,) if self.value is not None else ()

    def __str__(self) -> str:
        return f"ret {self.value}" if self.value is not None else "ret"


TERMINATORS = (Branch, Jump, Ret)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


@dataclass
class BasicBlock:
    """A labelled straight-line instruction sequence."""
    label: str
    instrs: List[Instr] = dc_field(default_factory=list)

    @property
    def terminator(self) -> Optional[Instr]:
        """The block's final control-flow instruction, if any."""
        if self.instrs and isinstance(self.instrs[-1], TERMINATORS):
            return self.instrs[-1]
        return None

    def successors(self) -> Tuple[str, ...]:
        """Labels this block can transfer to."""
        term = self.terminator
        if isinstance(term, Branch):
            return (term.true_label, term.false_label)
        if isinstance(term, Jump):
            return (term.label,)
        return ()

    def __str__(self) -> str:
        lines = [f"{self.label}:"]
        lines.extend(f"  {instr}" for instr in self.instrs)
        return "\n".join(lines)


@dataclass
class Function:
    """One lowered function: parameters plus basic blocks."""
    name: str
    params: List[str] = dc_field(default_factory=list)
    param_types: Dict[str, str] = dc_field(default_factory=dict)  # name -> spelled type
    blocks: Dict[str, BasicBlock] = dc_field(default_factory=dict)
    entry: str = "entry"
    line: int = 0

    def instructions(self) -> Iterator[Instr]:
        """All instructions in block order."""
        for block in self.blocks.values():
            yield from block.instrs

    def __str__(self) -> str:
        head = f"func {self.name}({', '.join(self.params)})"
        return "\n".join([head] + [str(b) for b in self.blocks.values()])


@dataclass
class Module:
    """One translation unit's functions and struct layouts."""
    filename: str
    functions: Dict[str, Function] = dc_field(default_factory=dict)
    structs: Dict[str, List[str]] = dc_field(default_factory=dict)  # tag -> field names
    component: str = ""  # set by the corpus loader
    fingerprint: str = ""  # content hash (cache key), set by the corpus loader

    def function(self, name: str) -> Function:
        """Look up one function; KeyError when absent."""
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"no function {name!r} in module {self.filename}") from None

    def __str__(self) -> str:
        return "\n\n".join(str(fn) for fn in self.functions.values())


#: The name :mod:`repro.lang` exports :class:`Module` under.
IRModule = Module
