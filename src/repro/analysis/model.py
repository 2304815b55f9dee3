"""The multi-level configuration-dependency taxonomy (paper Table 4).

Three categories, seven sub-kinds:

=====================  ==================================================
Self Dependency        SD_DATA_TYPE   P must have a specific data type
(SD)                   SD_VALUE_RANGE P must lie in a specific range
Cross-Parameter        CPD_CONTROL    P1 of C1 enabled iff P2 of C1 en/dis
Dependency (CPD)       CPD_VALUE      P1's value depends on P2's value
Cross-Component        CCD_CONTROL    P1 of C1 enabled iff P2 of C2 en/dis
Dependency (CCD)       CCD_VALUE      P1's value depends on P2 of C2
                       CCD_BEHAVIORAL C1's behaviour depends on P2 of C2
=====================  ==================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


class Category(enum.Enum):
    """The three major dependency categories (paper SS3.2)."""
    SD = "SD"
    CPD = "CPD"
    CCD = "CCD"


class SubKind(enum.Enum):
    """The seven dependency sub-kinds of Table 4."""
    SD_DATA_TYPE = "SD.data_type"
    SD_VALUE_RANGE = "SD.value_range"
    CPD_CONTROL = "CPD.control"
    CPD_VALUE = "CPD.value"
    CCD_CONTROL = "CCD.control"
    CCD_VALUE = "CCD.value"
    CCD_BEHAVIORAL = "CCD.behavioral"

    @property
    def category(self) -> Category:
        """The major category this sub-kind belongs to."""
        return _SUBKIND_CATEGORY[self]


#: SubKind -> Category, computed once (the property is hot: dependency
#: validation and classification consult it per object).
_SUBKIND_CATEGORY: Dict[SubKind, Category] = {
    kind: Category(kind.value.split(".")[0]) for kind in SubKind
}


@dataclass(frozen=True, order=True)
class ParamRef:
    """A parameter of a component, e.g. ``mke2fs.sparse_super2``."""

    component: str
    name: str

    def __str__(self) -> str:
        return f"{self.component}.{self.name}"

    @classmethod
    def parse(cls, text: str) -> "ParamRef":
        """Parse a 'component.name' string into a ParamRef."""
        component, _, name = text.partition(".")
        if not component or not name:
            raise ValueError(f"bad parameter reference {text!r}")
        return cls(component, name)


@dataclass(frozen=True)
class Evidence:
    """Where in the corpus the dependency was observed."""

    filename: str = ""
    function: str = ""
    line: int = 0

    def __str__(self) -> str:
        return f"{self.filename}:{self.function}:{self.line}"


@dataclass(frozen=True)
class Dependency:
    """One extracted multi-level configuration dependency.

    ``constraint`` is a small machine-readable description whose shape
    depends on the sub-kind:

    - SD_DATA_TYPE:   {"ctype": "unsigned long"}
    - SD_VALUE_RANGE: {"min": 1024, "max": 65536}   (either side optional)
    - CPD/CCD control: {"relation": "conflicts" | "requires"}
    - CPD/CCD value:  {"relation": "<=" , ...}
    - CCD_BEHAVIORAL: {"effect": "guards-behaviour"}
    """

    kind: SubKind
    params: Tuple[ParamRef, ...]
    constraint: Tuple[Tuple[str, object], ...] = ()
    bridge_field: Optional[str] = None  # shared metadata field for CCDs
    evidence: Evidence = field(default=Evidence(), compare=False)

    def __post_init__(self) -> None:
        if not self.params:
            raise ValueError("a dependency involves at least one parameter")
        if self.kind.category is Category.SD and len(self.params) != 1:
            raise ValueError(f"SD involves exactly one parameter, got {self.params}")
        if self.kind.category is not Category.SD and len(self.params) < 2:
            raise ValueError(f"{self.kind.value} involves at least two parameters")
        if self.kind.category is Category.CPD:
            components = {p.component for p in self.params}
            if len(components) != 1:
                raise ValueError(f"CPD parameters must share a component: {self.params}")
        if self.kind.category is Category.CCD:
            components = {p.component for p in self.params}
            if len(components) < 2:
                raise ValueError(f"CCD parameters must span components: {self.params}")

    @property
    def category(self) -> Category:
        """The major category this sub-kind belongs to."""
        return self.kind.category

    @property
    def constraint_dict(self) -> Dict[str, object]:
        """The constraint tuple as a plain dict."""
        return dict(self.constraint)

    def key(self) -> str:
        """Stable identity used for dedup and ground-truth labelling.

        Range constraints contribute their bounds, so "blocksize in
        [1024, 65536]" and "blocksize >= 256" stay distinct; relations
        contribute the relation token.  Cached on the (immutable)
        instance: dedup and reporting ask repeatedly.
        """
        cached = self.__dict__.get("_key")
        if cached is not None:
            return cached
        params = ",".join(sorted(str(p) for p in self.params))
        extra = ""
        cdict = self.constraint_dict
        if self.kind is SubKind.SD_VALUE_RANGE:
            extra = f":[{cdict.get('min', '')},{cdict.get('max', '')}]"
        elif self.kind is SubKind.SD_DATA_TYPE:
            extra = f":{cdict.get('ctype', '')}"
        elif "relation" in cdict:
            extra = f":{cdict['relation']}"
        bridge = f"@{self.bridge_field}" if self.bridge_field else ""
        result = f"{self.kind.value}:{params}{extra}{bridge}"
        object.__setattr__(self, "_key", result)
        return result

    def at_line(self, line: int) -> "Dependency":
        """This dependency with its evidence moved to ``line``.

        Only the evidence changes, so the copy skips re-validation and
        keeps the cached :meth:`key`, which the evidence is not part of.
        """
        moved = object.__new__(type(self))
        moved.__dict__.update(self.__dict__)
        evidence = self.evidence
        moved.__dict__["evidence"] = Evidence(evidence.filename,
                                              evidence.function, line)
        return moved

    def describe(self) -> str:
        """One-line human-readable description."""
        cdict = self.constraint_dict
        if self.kind is SubKind.SD_DATA_TYPE:
            return f"{self.params[0]} must be of type {cdict.get('ctype')}"
        if self.kind is SubKind.SD_VALUE_RANGE:
            lo, hi = cdict.get("min"), cdict.get("max")
            if lo is not None and hi is not None:
                return f"{self.params[0]} must be in [{lo}, {hi}]"
            if lo is not None:
                return f"{self.params[0]} must be >= {lo}"
            return f"{self.params[0]} must be <= {hi}"
        if self.kind in (SubKind.CPD_CONTROL, SubKind.CCD_CONTROL):
            rel = cdict.get("relation", "conflicts")
            a, b = self.params[0], self.params[-1]
            if rel == "conflicts":
                return f"{a} cannot be used together with {b}"
            return f"{a} requires {b}"
        if self.kind in (SubKind.CPD_VALUE, SubKind.CCD_VALUE):
            rel = cdict.get("relation", "depends")
            return f"{self.params[0]} {rel} {self.params[-1]}"
        via = f" (via {self.bridge_field})" if self.bridge_field else ""
        return (f"behaviour of {self.params[0].component} depends on "
                f"{', '.join(str(p) for p in self.params[1:])}{via}")


def make_constraint(**kwargs: object) -> Tuple[Tuple[str, object], ...]:
    """Build the hashable constraint tuple from keyword pairs."""
    return tuple(sorted(kwargs.items()))
