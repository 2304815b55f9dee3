"""Cross-component dependency extraction via shared metadata (paper §4.1).

The key observation of the paper: all components access the FS metadata
structures, so the shared superblock bridges parameters of different
components.  This pass joins field *stores* from an earlier-stage
component with field *loads* (that influence branches) in a later-stage
component:

- a masked feature-word load joins with the store that set that feature
  bit (matching on the feature name),
- a plain field load joins with any parameter-tainted store of the same
  field.

Joins are classified as CCD control (a boolean reader parameter gated
against a feature bit on an error path) or CCD behavioral (everything
else the reader's control flow depends on).

Known imprecision, kept deliberately (it produces the paper's CCD false
positive): the join ignores *kills* — a reader that first overwrites a
field and then loads it back still joins with the original writer.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.constraints import BranchUse
from repro.analysis.model import (
    Dependency,
    Evidence,
    ParamRef,
    SubKind,
    make_constraint,
)
from repro.analysis.sources import BRIDGE_STRUCTS
from repro.analysis.taint import FieldTaint, FieldWrite, Label


class FieldStore(NamedTuple):
    """One metadata-field store as the bridge reads it: a
    :class:`~repro.analysis.taint.FieldWrite` without its instruction,
    so it can be stored and loaded without the IR."""

    struct: str
    field: str
    labels: FrozenSet[Label]

    @classmethod
    def of(cls, write: FieldWrite) -> "FieldStore":
        """The store ``write`` records."""
        return cls(write.struct, write.field, write.labels)


@dataclass
class ComponentSummary:
    """Per-component analysis facts the bridge consumes."""

    component: str
    filename: str
    field_writes: List[FieldStore] = dc_field(default_factory=list)
    branch_uses: List[BranchUse] = dc_field(default_factory=list)


def _flag_kind(component: str, name: str) -> bool:
    """Whether a parameter is boolean (controls CCD control vs behavioral)."""
    from repro.ecosystem.params import ParamKind, find_param

    try:
        return find_param(component, name).kind is ParamKind.FLAG
    except KeyError:
        return False


class MetadataBridge:
    """Join writes and reads across the components of one scenario."""

    def __init__(self, summaries: Sequence[ComponentSummary]) -> None:
        """``summaries`` must be in pipeline (stage) order."""
        self.summaries = list(summaries)

    def join(self) -> List[Dependency]:
        """Join field writes to later-stage reads; returns the CCDs."""
        deps: List[Dependency] = []
        for reader_idx, reader in enumerate(self.summaries):
            writers = self.summaries[:reader_idx]
            if not writers:
                continue
            for use in reader.branch_uses:
                deps.extend(self._join_branch(reader, writers, use))
        return _dedupe(deps)

    # ------------------------------------------------------------------
    # one branch
    # ------------------------------------------------------------------

    def _join_branch(self, reader: ComponentSummary,
                     writers: Sequence[ComponentSummary],
                     use: BranchUse) -> List[Dependency]:
        out: List[Dependency] = []
        # Sorted, like the labels below: set iteration order is hash
        # order, which differs between processes.
        for ft in sorted(use.fields, key=lambda ft: (ft.struct, ft.field,
                                                      ft.feature or "")):
            if ft.struct not in BRIDGE_STRUCTS:
                continue
            for writer in writers:
                if writer.component == reader.component:
                    continue
                # Reader-side parameters: everything in the guard that
                # does not belong to the writer.  (The kernel unit
                # guards mount-stage parameters, so the filter is
                # writer-relative, not unit-relative.)
                reader_params = frozenset(
                    p for p in use.params if p.component != writer.component
                )
                for writer_param in self._matching_writers(writer, ft):
                    dep = self._classify(reader, use, ft, writer_param,
                                         reader_params)
                    if dep is not None:
                        out.append(dep)
        return out

    @staticmethod
    def _matching_writers(writer: ComponentSummary,
                          ft: FieldTaint) -> List[ParamRef]:
        """Writer parameters whose stores this load observes."""
        matched: List[ParamRef] = []
        for write in writer.field_writes:
            if write.field != ft.field or write.struct != ft.struct:
                continue
            for label in sorted(label for label in write.labels
                                if isinstance(label, ParamRef)):
                if label.component != writer.component:
                    continue
                if ft.feature is not None and label.name != ft.feature:
                    continue
                matched.append(label)
        return matched

    def _classify(self, reader: ComponentSummary, use: BranchUse,
                  ft: FieldTaint, writer_param: ParamRef,
                  reader_params: FrozenSet[ParamRef]) -> Optional[Dependency]:
        evidence = Evidence(reader.filename, use.function, use.line)
        if (
            use.error_guard
            and ft.feature is not None
            and len(reader_params) == 1
            and _flag_kind(next(iter(reader_params)).component,
                           next(iter(reader_params)).name)
        ):
            reader_param = next(iter(reader_params))
            enabled = use.feature_enabled_in_violation.get(ft, True)
            relation = "conflicts" if enabled else "requires"
            return Dependency(
                kind=SubKind.CCD_CONTROL,
                params=(reader_param, writer_param),
                constraint=make_constraint(relation=relation),
                bridge_field=ft.field,
                evidence=evidence,
            )
        params: Tuple[ParamRef, ...]
        if reader_params:
            params = tuple(sorted(reader_params)) + (writer_param,)
        else:
            params = (ParamRef(reader.component, "*"), writer_param)
        if writer_param in params[:-1]:
            return None
        return Dependency(
            kind=SubKind.CCD_BEHAVIORAL,
            params=params,
            constraint=make_constraint(effect="guards-behaviour"),
            bridge_field=ft.field,
            evidence=evidence,
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
