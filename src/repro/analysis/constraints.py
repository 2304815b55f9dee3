"""Derive SD and CPD dependencies from taint results (paper §4.1).

Given one function's IR, CFG, and taint state, this pass inspects every
branch whose outcome (on one side) reaches an error exit and decomposes
the condition into *atoms*:

- ``param  <op>  constant``  →  Self-Dependency value range,
- ``param1 <op>  param2`` (same component)  →  Cross-Parameter value,
- two boolean parameter tests in one guard →  Cross-Parameter control
  (``conflicts`` when both trigger the error enabled, ``requires`` when
  one must be enabled for the other),
- annotated variables defined by a typed parse helper →  Self-Dependency
  data type.

Branches whose condition carries metadata-field taint are summarized as
:class:`BranchUse` records for :mod:`repro.analysis.bridge`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro import perf
from repro.analysis.model import (
    Dependency,
    Evidence,
    ParamRef,
    SubKind,
    make_constraint,
)
from repro.analysis.sources import TYPED_PARSERS, ComponentSources
from repro.analysis.taint import FieldTaint, TaintState
from repro.lang.cfg import CFG
from repro.lang.ir import (
    BinOp,
    Branch,
    CallInstr,
    Const,
    Function,
    Move,
    Temp,
    UnOp,
    Value,
    Var,
)

_CMP_OPS = {"<", ">", "<=", ">=", "==", "!="}
_FLIP = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "==": "==", "!=": "!="}
_NEGATE = {"<": ">=", ">": "<=", "<=": ">", ">=": "<", "==": "!=", "!=": "=="}


@dataclass
class CmpAtom:
    """One comparison in a guard, with violation polarity applied."""

    op: str  # the *constraint* relation (already negated if needed)
    left: Value
    right: Value
    line: int


@dataclass
class FlagAtom:
    """One boolean test in a guard.

    ``enabled_in_violation`` — the flag is truthy on the error path.
    """

    value: Value
    enabled_in_violation: bool
    line: int


@dataclass
class BranchUse:
    """Summary of one branch for the cross-component bridge."""

    function: str
    line: int
    params: FrozenSet[ParamRef]
    fields: FrozenSet[FieldTaint]
    error_guard: bool
    feature_enabled_in_violation: Dict[FieldTaint, bool]


@dataclass
class FunctionFindings:
    """Everything one function contributes."""

    function: str
    dependencies: List[Dependency]
    branch_uses: List[BranchUse]


class ConstraintDeriver:
    """Extract SD/CPD findings from one analyzed function."""

    def __init__(self, func: Function, cfg: CFG, state: TaintState,
                 sources: ComponentSources, component: str,
                 filename: str) -> None:
        self.func = func
        self.cfg = cfg
        self.state = state
        self.sources = sources
        self.component = component
        self.filename = filename

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def run(self) -> FunctionFindings:
        """Derive the function's dependencies and bridge summaries."""
        deps: List[Dependency] = []
        uses: List[BranchUse] = []
        deps.extend(self._data_type_deps())
        for instr in self.cfg.branches():
            true_err, false_err = self.cfg.branch_error_sides(instr)
            # params/fields come pre-split from the taint layer's
            # content-keyed split memo (same canonical sets recur).
            params = self.state.params(instr.cond)
            fields = self.state.fields(instr.cond)
            error_guard = true_err or false_err
            if fields:
                uses.append(self._branch_use(instr, params, fields, error_guard))
            if not error_guard or true_err and false_err:
                continue
            if not params:
                continue
            atoms_cmp, atoms_flag = self._decompose(instr.cond, violation_when=true_err)
            deps.extend(self._derive_from_guard(atoms_cmp, atoms_flag, instr.line))
        return FunctionFindings(self.func.name, _dedupe(deps), uses)

    # ------------------------------------------------------------------
    # SD data type
    # ------------------------------------------------------------------

    def _data_type_deps(self) -> List[Dependency]:
        out: List[Dependency] = []
        for var_name, param in self.sources.sources_for(self.func.name).items():
            ctype = self._parsed_type_of(Var(var_name))
            if ctype is None:
                continue
            out.append(Dependency(
                kind=SubKind.SD_DATA_TYPE,
                params=(param,),
                constraint=make_constraint(ctype=ctype),
                evidence=Evidence(self.filename, self.func.name, self.func.line),
            ))
        return out

    def _parsed_type_of(self, var: Var) -> Optional[str]:
        """The typed-parser result type assigned into ``var``, if any."""
        for definition in self.state.defining(var):
            if not isinstance(definition, Move):
                continue
            src = definition.src
            if not isinstance(src, Temp):
                continue
            for src_def in self.state.defining(src):
                if isinstance(src_def, CallInstr) and src_def.func in TYPED_PARSERS:
                    return TYPED_PARSERS[src_def.func]
        return None

    # ------------------------------------------------------------------
    # guard decomposition
    # ------------------------------------------------------------------

    def _decompose(self, cond: Value, violation_when: bool) -> Tuple[List[CmpAtom], List[FlagAtom]]:
        """Split a guard into atoms with violation polarity applied.

        ``violation_when=True`` means the condition being *true* takes
        the error path; the constraint is then the negation of each
        atom.  The polarity pushes through ``!``, ``&&`` and ``||``.
        """
        cmps: List[CmpAtom] = []
        flags: List[FlagAtom] = []
        self._walk(cond, violation_when, cmps, flags)
        return cmps, flags

    def _walk(self, value: Value, violation: bool,
              cmps: List[CmpAtom], flags: List[FlagAtom]) -> None:
        definition = self._single_def(value)
        if isinstance(definition, BinOp):
            op = definition.op
            if op in ("&&", "||"):
                self._walk(definition.left, violation, cmps, flags)
                self._walk(definition.right, violation, cmps, flags)
                return
            if op in _CMP_OPS:
                constraint_op = _NEGATE[op] if violation else op
                cmps.append(CmpAtom(constraint_op, definition.left,
                                    definition.right, definition.line))
                return
            if op == "&":
                flags.append(FlagAtom(value, violation, definition.line))
                return
        if isinstance(definition, UnOp) and definition.op == "!":
            self._walk(definition.operand, not violation, cmps, flags)
            return
        # Bare value in boolean context.
        flags.append(FlagAtom(value, violation,
                              definition.line if definition else 0))

    def _single_def(self, value: Value):
        if isinstance(value, Temp):
            defs = self.state.defining(value)
            if len(defs) == 1:
                return defs[0]
        return None

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------

    def _derive_from_guard(self, cmps: List[CmpAtom], flags: List[FlagAtom],
                           line: int) -> List[Dependency]:
        deps: List[Dependency] = []
        evidence = Evidence(self.filename, self.func.name, line)
        bounds: Dict[ParamRef, Dict[str, int]] = {}
        for atom in cmps:
            left_p = self._single_param(atom.left)
            right_p = self._single_param(atom.right)
            left_c = atom.left.value if isinstance(atom.left, Const) else None
            right_c = atom.right.value if isinstance(atom.right, Const) else None
            if left_p is not None and right_c is not None:
                self._apply_bound(bounds, left_p, atom.op, right_c)
            elif right_p is not None and left_c is not None:
                self._apply_bound(bounds, right_p, _FLIP[atom.op], left_c)
            elif left_p is not None and right_p is not None and left_p != right_p:
                if left_p.component == right_p.component:
                    deps.append(Dependency(
                        kind=SubKind.CPD_VALUE,
                        params=(left_p, right_p),
                        constraint=make_constraint(relation=atom.op),
                        evidence=evidence,
                    ))
        for param, bound in bounds.items():
            if not bound:
                continue
            deps.append(Dependency(
                kind=SubKind.SD_VALUE_RANGE,
                params=(param,),
                constraint=make_constraint(**bound),
                evidence=evidence,
            ))
        deps.extend(self._flag_pairs(flags, evidence))
        return deps

    def _flag_pairs(self, flags: List[FlagAtom], evidence: Evidence) -> List[Dependency]:
        """Pair boolean parameter tests into CPD control dependencies."""
        by_param: Dict[ParamRef, bool] = {}
        for atom in flags:
            param = self._single_param(atom.value)
            if param is None:
                continue
            by_param.setdefault(param, atom.enabled_in_violation)
        if len(by_param) != 2:
            return []
        (p1, v1), (p2, v2) = sorted(by_param.items())
        if p1.component != p2.component:
            return []  # cross-component flag pairs belong to the bridge
        if v1 and v2:
            relation = "conflicts"
            params = (p1, p2)
        elif v1 != v2:
            relation = "requires"
            params = (p1, p2) if v1 else (p2, p1)
        else:
            relation = "requires"
            params = (p1, p2)
        return [Dependency(
            kind=SubKind.CPD_CONTROL,
            params=params,
            constraint=make_constraint(relation=relation),
            evidence=evidence,
        )]

    def _single_param(self, value: Value) -> Optional[ParamRef]:
        params = self.state.params(value)
        if len(params) == 1 and not self.state.fields(value):
            return next(iter(params))
        return None

    @staticmethod
    def _apply_bound(bounds: Dict[ParamRef, Dict[str, int]],
                     param: ParamRef, op: str, value: int) -> None:
        entry = bounds.setdefault(param, {})
        if op == ">=":
            entry["min"] = max(entry.get("min", value), value)
        elif op == ">":
            entry["min"] = max(entry.get("min", value + 1), value + 1)
        elif op == "<=":
            entry["max"] = min(entry.get("max", value), value)
        elif op == "<":
            entry["max"] = min(entry.get("max", value - 1), value - 1)
        # == / != do not produce range constraints.

    # ------------------------------------------------------------------
    # bridge summaries
    # ------------------------------------------------------------------

    def _branch_use(self, instr: Branch, params: FrozenSet[ParamRef],
                    fields: FrozenSet[FieldTaint], error_guard: bool) -> BranchUse:
        true_err, _false_err = self.cfg.branch_error_sides(instr)
        feature_polarity: Dict[FieldTaint, bool] = {}
        cmps, flags = self._decompose(instr.cond, violation_when=true_err)
        for atom in flags:
            for label in self.state.fields(atom.value):
                if label.feature is not None:
                    feature_polarity[label] = atom.enabled_in_violation
        return BranchUse(
            function=self.func.name,
            line=instr.line,
            params=params,
            fields=fields,
            error_guard=error_guard,
            feature_enabled_in_violation=feature_polarity,
        )


def _dedupe(deps: List[Dependency]) -> List[Dependency]:
    seen = set()
    out = []
    for dep in deps:
        key = dep.key()
        if key in seen:
            continue
        seen.add(key)
        out.append(dep)
    return out


def derive_constraints(func: Function, cfg: CFG, state: TaintState,
                       sources: ComponentSources, component: str,
                       filename: str) -> FunctionFindings:
    """Run constraint derivation for one function under ``state``."""
    with perf.timed("analysis.constraints"):
        return ConstraintDeriver(
            func, cfg, state, sources, component, filename
        ).run()
