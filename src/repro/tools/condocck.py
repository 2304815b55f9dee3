"""ConDocCk: check manuals against code-extracted dependencies (§4.2).

For every *validated* (true) extracted dependency, ConDocCk looks for a
matching statement in the manual corpus:

- an SD data type must appear as a 'type' statement with the same type,
- an SD value range as a 'range' statement with the same bounds,
- a CPD/CCD control as a 'conflicts'/'requires' statement naming the
  partner parameter (on either side's entry),
- a CPD value as a 'value' statement naming the partner,
- a CCD behavioral as a 'behavioral' statement naming the writer
  parameter, in any entry of the reader component's manual.

Each unmatched or wrongly-stated dependency becomes a
:class:`DocIssue`.  On the shipped corpus this reproduces the paper's
§4.3 result: 12 inaccurate documentations out of 59 true dependencies,
including the meta_bg/resize_inode example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.model import Dependency, SubKind
from repro.ecosystem.manpages import (
    ManualEntry,
    ManualPage,
    build_manual_corpus,
)
from repro.obs.tracer import span


@dataclass
class DocIssue:
    """One documentation inconsistency."""

    dependency: Dependency
    issue: str  # 'missing' or 'incorrect'
    detail: str

    def __str__(self) -> str:
        return f"[{self.issue}] {self.dependency.describe()} — {self.detail}"


class ConDocCk:
    """The documentation checker."""

    def __init__(self, manuals: Optional[Dict[str, ManualPage]] = None) -> None:
        self.manuals = manuals if manuals is not None else build_manual_corpus()

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def check(self, dependencies: Sequence[Dependency]) -> List[DocIssue]:
        """Cross-check every dependency; returns the found issues."""
        with span("condocck.check", dependencies=len(dependencies)):
            issues: List[DocIssue] = []
            for dep in dependencies:
                issue = self._check_one(dep)
                if issue is not None:
                    issues.append(issue)
            return issues

    def check_extracted(self) -> List[DocIssue]:
        """Run extraction and check the validated true dependencies."""
        from repro.analysis.extractor import extract_all

        report = extract_all()
        return self.check(report.true_dependencies())

    # ------------------------------------------------------------------
    # per-dependency matching
    # ------------------------------------------------------------------

    def _check_one(self, dep: Dependency) -> Optional[DocIssue]:
        if dep.kind is SubKind.SD_DATA_TYPE:
            return self._check_sd_type(dep)
        if dep.kind is SubKind.SD_VALUE_RANGE:
            return self._check_sd_range(dep)
        if dep.kind in (SubKind.CPD_CONTROL, SubKind.CCD_CONTROL):
            return self._check_relational(dep, kinds=("conflicts", "requires"))
        if dep.kind in (SubKind.CPD_VALUE, SubKind.CCD_VALUE):
            return self._check_relational(dep, kinds=("value",))
        if dep.kind is SubKind.CCD_BEHAVIORAL:
            return self._check_behavioral(dep)
        return None

    def _entry(self, component: str, name: str) -> Optional[ManualEntry]:
        page = self.manuals.get(component)
        if page is None:
            return None
        return page.entries.get(name)

    def _check_sd_type(self, dep: Dependency) -> Optional[DocIssue]:
        param = dep.params[0]
        want = dep.constraint_dict.get("ctype")
        entry = self._entry(param.component, param.name)
        if entry is None:
            return DocIssue(dep, "missing", f"no manual entry for {param}")
        types = [c for c in entry.constraints if c.kind == "type"]
        if not types:
            return DocIssue(dep, "missing",
                            f"manual for {param} does not state the value type")
        if all(c.ctype != want for c in types):
            return DocIssue(dep, "incorrect",
                            f"manual says {types[0].ctype!r}, code expects {want!r}")
        return None

    def _check_sd_range(self, dep: Dependency) -> Optional[DocIssue]:
        param = dep.params[0]
        cdict = dep.constraint_dict
        entry = self._entry(param.component, param.name)
        if entry is None:
            return DocIssue(dep, "missing", f"no manual entry for {param}")
        ranges = [c for c in entry.constraints if c.kind == "range"]
        if not ranges:
            return DocIssue(dep, "missing",
                            f"manual for {param} does not state the valid range")
        want_min, want_max = cdict.get("min"), cdict.get("max")
        for doc in ranges:
            if doc.min_value == want_min and doc.max_value == want_max:
                return None
        doc = ranges[0]
        return DocIssue(dep, "incorrect",
                        f"manual says [{doc.min_value}, {doc.max_value}], "
                        f"code enforces [{want_min}, {want_max}]")

    def _check_relational(self, dep: Dependency,
                          kinds: Sequence[str]) -> Optional[DocIssue]:
        """Conflicts/requires/value: a statement on either side suffices."""
        a, b = dep.params[0], dep.params[-1]
        for this, other in ((a, b), (b, a)):
            entry = self._entry(this.component, this.name)
            if entry is None:
                continue
            for doc in entry.constraints:
                if doc.kind in kinds and doc.partner == str(other):
                    return None
        return DocIssue(dep, "missing",
                        f"neither {a} nor {b} documents the dependency")

    def _check_behavioral(self, dep: Dependency) -> Optional[DocIssue]:
        """Behavioral: the reader component's manual must mention the
        writer parameter somewhere (e.g. in a NOTES section)."""
        writer = dep.params[-1]
        reader_component = dep.params[0].component
        page = self.manuals.get(reader_component)
        if page is None:
            return DocIssue(dep, "missing",
                            f"no manual for component {reader_component!r}")
        for entry in page.entries.values():
            for doc in entry.constraints:
                if doc.kind in ("behavioral", "conflicts", "requires") and \
                        doc.partner == str(writer):
                    return None
        return DocIssue(dep, "missing",
                        f"manual of {reader_component} never mentions {writer}")
