"""C type representations for the mini-C frontend.

Types stay simple: base types (possibly unsigned / sized), struct
references, pointers, and arrays.  The analyzer only needs to know (a)
whether an expression is integral, (b) which struct a pointer/value
refers to so member accesses resolve, and (c) declared signedness/width
for SD *data type* constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class CType:
    """One C type.

    ``base`` is one of 'int', 'char', 'long', 'short', 'void', 'float',
    'double', or 'struct'.  For struct types, ``struct_name`` holds the
    tag.  ``pointer`` counts levels of indirection; ``array`` holds an
    optional element count when declared as an array.
    """

    base: str = "int"
    unsigned: bool = False
    struct_name: Optional[str] = None
    pointer: int = 0
    array: Optional[int] = None
    typedef_name: Optional[str] = None  # the typedef this came through

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------

    @property
    def is_struct(self) -> bool:
        """A struct value (no indirection)."""
        return self.base == "struct" and self.pointer == 0

    @property
    def is_struct_pointer(self) -> bool:
        """A pointer to a struct."""
        return self.base == "struct" and self.pointer > 0

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------

    def pointer_to(self) -> "CType":
        """The type 'pointer to self'."""
        return CType(self.base, self.unsigned, self.struct_name,
                     self.pointer + 1, None, self.typedef_name)

    def deref(self) -> "CType":
        """The pointee type; ValueError when not a pointer."""
        if self.pointer > 0:
            return CType(self.base, self.unsigned, self.struct_name,
                         self.pointer - 1, None, self.typedef_name)
        if self.array is not None:
            return CType(self.base, self.unsigned, self.struct_name,
                         self.pointer, None, self.typedef_name)
        raise ValueError(f"cannot dereference non-pointer type {self}")

    def spelled(self) -> str:
        """A C-ish spelling, e.g. 'unsigned int', 'struct foo *'."""
        parts = []
        if self.unsigned:
            parts.append("unsigned")
        if self.base == "struct":
            parts.append(f"struct {self.struct_name}")
        else:
            parts.append(self.base)
        spelling = " ".join(parts) + " *" * self.pointer
        if self.array is not None:
            spelling += f"[{self.array}]"
        return spelling

    def __str__(self) -> str:
        return self.spelled()


#: Common types, built once.
INT = CType("int")
UNSIGNED = CType("int", unsigned=True)
LONG = CType("long")
UNSIGNED_LONG = CType("long", unsigned=True)
CHAR = CType("char")
CHAR_PTR = CType("char", pointer=1)
VOID = CType("void")
