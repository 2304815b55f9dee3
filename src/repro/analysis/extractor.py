"""Scenario-driven extraction (paper §4.3, Table 5).

An extraction *scenario* is one row of Table 5: a pipeline of
components plus the pre-selected functions analyzed in each ("At the
time of this writing, the static analyzer can handle intra-procedure
taint analysis ... so we can only extract dependencies via a few
pre-selected functions").  The extractor runs taint + constraint
derivation per function, bridges field traffic across components in
pipeline order, and dedupes into a unique dependency set per scenario
and across scenarios.

A finished report is stored whole (:mod:`repro.corpus.cache`), so a
fresh process over an unchanged corpus reads it back without loading
the IR, the solver or the bridge; those modules are imported inside
the functions that run only when the report has to be computed.

Below the report, each pre-selected function resolves to a
:class:`FunctionSummary` — memo, its unit's index row, the analysis
store, then a taint solve — and only the last step compiles IR, for
that function's body alone (:meth:`repro.corpus.loader.CorpusUnit.function`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.analysis.groundtruth import is_false_positive
from repro.analysis.model import Category, Dependency
from repro.corpus import cache as disk
from repro.obs.tracer import span
from repro.perf import register_memo, timed

if TYPE_CHECKING:
    from repro.analysis.bridge import FieldStore
    from repro.analysis.constraints import FunctionFindings
    from repro.corpus.loader import CorpusUnit


@dataclass(frozen=True)
class ScenarioSpec:
    """One Table-5 row: pipeline label + pre-selected functions."""

    name: str
    key_utilities: Tuple[str, ...]  # bolded components in the paper's table
    #: (unit filename, function name) in pipeline order.
    selected: Tuple[Tuple[str, Tuple[str, ...]], ...]


#: The four usage scenarios of Tables 3 and 5.
SCENARIOS: Tuple[ScenarioSpec, ...] = (
    ScenarioSpec(
        name="mke2fs - mount - Ext4",
        key_utilities=("mke2fs", "mount"),
        selected=(
            ("mke2fs.c", ("parse_mke2fs_options", "check_feature_conflicts",
                          "write_superblock")),
            ("mount.c", ("parse_mount_options", "check_mount_options")),
            ("ext4_super.c", ("ext4_fill_super",)),
        ),
    ),
    ScenarioSpec(
        name="mke2fs - mount - Ext4 - e4defrag",
        key_utilities=("mke2fs", "mount", "e4defrag"),
        selected=(
            ("mke2fs.c", ("parse_mke2fs_options", "check_feature_conflicts",
                          "write_superblock")),
            ("mount.c", ("parse_mount_options", "check_mount_options")),
            ("ext4_super.c", ("ext4_fill_super",)),
            ("e4defrag.c", ("main_defrag", "defrag_file")),
        ),
    ),
    ScenarioSpec(
        name="mke2fs - mount - Ext4 - umount - resize2fs",
        key_utilities=("mke2fs", "mount", "resize2fs"),
        selected=(
            ("mke2fs.c", ("parse_mke2fs_options", "check_feature_conflicts",
                          "write_superblock")),
            ("mount.c", ("parse_mount_options", "check_mount_options",
                         "ext4_remount_checks")),
            ("ext4_super.c", ("ext4_fill_super",)),
            ("libext2fs.c", ("ext2fs_check_blocksize",
                             "ext2fs_check_inode_geometry")),
            ("resize2fs.c", ("parse_resize_options", "convert_64bit",
                             "resize_fs")),
        ),
    ),
    ScenarioSpec(
        name="mke2fs - mount - Ext4 - umount - e2fsck",
        key_utilities=("mke2fs", "mount", "e2fsck"),
        selected=(
            ("mke2fs.c", ("parse_mke2fs_options", "check_feature_conflicts",
                          "write_superblock")),
            ("mount.c", ("parse_mount_options", "check_mount_options",
                         "ext4_remount_checks")),
            ("ext4_super.c", ("ext4_fill_super",)),
            ("libext2fs.c", ("ext2fs_check_blocksize",
                             "ext2fs_check_inode_geometry")),
            ("e2fsck.c", ("parse_e2fsck_options", "run_checks")),
        ),
    ),
)


#: §6 extension scenario: the same methodology applied to XFS.  Kept
#: out of SCENARIOS so Table 5 stays the paper's Ext4 evaluation.
XFS_SCENARIO = ScenarioSpec(
    name="mkfs.xfs - mount - XFS - xfs_growfs",
    key_utilities=("mkfs.xfs", "xfs_growfs"),
    selected=(
        ("xfs_mkfs.c", ("parse_xfs_mkfs_options", "check_xfs_feature_conflicts",
                        "write_xfs_superblock")),
        ("xfs_growfs.c", ("parse_xfs_growfs_options", "xfs_grow_data")),
    ),
)


@dataclass
class CategoryCount:
    """Extraction tally for one category in one scenario."""

    extracted: int = 0
    false_positives: int = 0


@dataclass
class ScenarioResult:
    """Unique dependencies extracted under one scenario."""

    spec: ScenarioSpec
    dependencies: List[Dependency] = dc_field(default_factory=list)

    def by_category(self) -> Dict[Category, List[Dependency]]:
        """Dependencies grouped by SD/CPD/CCD."""
        out: Dict[Category, List[Dependency]] = {c: [] for c in Category}
        for dep in self.dependencies:
            out[dep.category].append(dep)
        return out

    def counts(self) -> Dict[Category, CategoryCount]:
        """Per-category extraction/FP tallies for this scenario."""
        out: Dict[Category, CategoryCount] = {}
        for category, deps in self.by_category().items():
            fp = sum(1 for d in deps if is_false_positive(d))
            out[category] = CategoryCount(len(deps), fp)
        return out


@dataclass
class ExtractionReport:
    """All four scenarios plus the unique union (Table 5)."""

    scenarios: List[ScenarioResult]
    union: List[Dependency]

    def union_counts(self) -> Dict[Category, CategoryCount]:
        """Per-category tallies over the unique union (Table 5)."""
        out: Dict[Category, CategoryCount] = {c: CategoryCount() for c in Category}
        for dep in self.union:
            entry = out[dep.category]
            entry.extracted += 1
            if is_false_positive(dep):
                entry.false_positives += 1
        return out

    @property
    def total_extracted(self) -> int:
        """Size of the unique union."""
        return len(self.union)

    @property
    def total_false_positives(self) -> int:
        """False positives in the unique union."""
        return sum(1 for d in self.union if is_false_positive(d))

    @property
    def overall_fp_rate(self) -> float:
        """Union FP rate (the paper's 7.8%)."""
        if not self.union:
            return 0.0
        return self.total_false_positives / self.total_extracted

    def true_dependencies(self) -> List[Dependency]:
        """The union minus the labelled false positives."""
        return [d for d in self.union if not is_false_positive(d)]


@dataclass(frozen=True)
class FunctionSummary:
    """What extraction reads of one analyzed function: the metadata
    field stores the bridge joins, the findings, and the definition
    line the findings' lines were taken at.  The analysis store keeps
    exactly this, so a store hit loads no taint state and no IR."""

    line: int
    field_writes: Tuple[FieldStore, ...]
    findings: FunctionFindings

    def moved_to(self, line: int) -> "FunctionSummary":
        """This summary for the same function defined on ``line``.

        A stored entry is keyed by the function's source slice, which
        an edit above the function leaves alone while moving every line
        of it; the lines that reach output (dependency evidence and the
        branch lines the bridge cites) move by the same amount.
        """
        delta = line - self.line
        if not delta:
            return self
        findings = self.findings
        deps = [dep.at_line(dep.evidence.line + delta)
                for dep in findings.dependencies]
        uses = [replace(use, line=use.line + delta)
                for use in findings.branch_uses]
        return FunctionSummary(line, self.field_writes,
                               replace(findings, dependencies=deps,
                                       branch_uses=uses))


#: (unit fingerprint, function, sources fingerprint, component,
#: filename) -> summary at that content.  The four Table-5 scenarios
#: share most of their functions, so one extraction resolves each
#: function once.
_SUMMARIES: Dict[Tuple[str, str, str, str, str], FunctionSummary] = {}

register_memo("extract.summaries", _SUMMARIES.clear)


class Extractor:
    """Run extraction over scenarios.

    Extraction runs sequentially in this process and dependency sets
    assemble in spec order.  The summary memo is the one in-process
    memo of a function's analysis: a function shared by several
    scenarios is solved once, and nothing below it (taint state,
    findings, CFG) is kept.
    """

    def __init__(self, scenarios: Sequence[ScenarioSpec] = SCENARIOS) -> None:
        self.scenarios = tuple(scenarios)

    # ------------------------------------------------------------------
    # per-scenario
    # ------------------------------------------------------------------

    def _summarize(self, unit: CorpusUnit, fn_name: str) -> FunctionSummary:
        """One pre-selected function's summary.

        Resolution order is memo → unit index row → analysis store →
        compute: the memo wins within a process, the index row answers
        an unchanged unit, the analysis store (:mod:`repro.corpus.cache`)
        the unchanged functions of an edited one, and only genuinely new
        content compiles the function's body and pays for a fixpoint.
        """
        from repro.analysis.sources import SOURCES_BY_UNIT
        from repro.errors import UnknownFunctionError

        filename = unit.filename
        with span("extract.function", unit=filename, function=fn_name):
            line = unit.lines.get(fn_name)
            if line is None:
                raise UnknownFunctionError(
                    f"pre-selected function {fn_name!r} missing from {filename}"
                )
            sources = SOURCES_BY_UNIT[filename]
            sources_fp = sources.fingerprint()
            memo_key = (unit.fingerprint, fn_name, sources_fp,
                        unit.component, filename)
            summary = _SUMMARIES.get(memo_key)
            if summary is not None:
                return summary
            summary = (unit.summaries or {}).get(
                (fn_name, sources_fp, unit.component))
            if summary is not None:
                disk.analysis_stats().tally("hits")
                _SUMMARIES[memo_key] = summary
                return summary
            store_key = ""
            if disk.disk_cache_enabled():
                store_key = disk.analysis_key(
                    filename, fn_name, unit.slices[fn_name], sources_fp,
                    unit.component)
            if store_key:
                summary = disk.load_analysis(store_key, FunctionSummary)
            if summary is not None and summary.findings.function == fn_name:
                summary = summary.moved_to(line)
            else:
                summary = _compute(unit, fn_name, sources)
                if store_key:
                    disk.store_analysis(store_key, summary)
            _SUMMARIES[memo_key] = summary
            return summary

    def extract_scenario(self, spec: ScenarioSpec) -> ScenarioResult:
        """Extract one scenario's unique dependency set."""
        from repro.analysis.bridge import ComponentSummary, MetadataBridge
        from repro.corpus.loader import load_unit

        with span("extract.scenario", scenario=spec.name), \
                timed("extract.scenario"):
            deps: List[Dependency] = []
            summaries: List[ComponentSummary] = []
            for filename, functions in spec.selected:
                unit = load_unit(filename, summary_kind=FunctionSummary)
                summary = ComponentSummary(unit.component, filename)
                for fn_name in functions:
                    function = self._summarize(unit, fn_name)
                    deps.extend(function.findings.dependencies)
                    summary.field_writes.extend(function.field_writes)
                    summary.branch_uses.extend(function.findings.branch_uses)
                summaries.append(summary)
            with span("extract.bridge", scenario=spec.name), \
                    timed("extract.bridge"):
                deps.extend(MetadataBridge(summaries).join())
            return ScenarioResult(spec, _dedupe(deps))

    # ------------------------------------------------------------------
    # all scenarios
    # ------------------------------------------------------------------

    def _unit_names(self) -> List[str]:
        """Distinct unit filenames across the scenarios, in first-use order."""
        seen = []
        for spec in self.scenarios:
            for filename, _functions in spec.selected:
                if filename not in seen:
                    seen.append(filename)
        return seen

    def _report_key(self) -> str:
        """The report-store key for this extraction, or '' when the
        disk cache is off or a scenario unit cannot be read.

        Each unit is keyed by the sources the loader analyzes
        (:func:`repro.corpus.cache.read_unit`), not by a second read of
        the file, so an edit on disk after this process read a unit
        can never file the old unit's report under the new sources.
        """
        if not disk.disk_cache_enabled():
            return ""
        units = []
        for filename in self._unit_names():
            try:
                units.append((filename, disk.read_unit(filename)[1]))
            except OSError:
                return ""  # the compute path reports the missing unit
        kind = type(self)
        return disk.report_key(f"{kind.__module__}.{kind.__qualname__}",
                               repr(self.scenarios), units)

    def extract_all(self) -> ExtractionReport:
        """Extract every scenario plus the unique union.

        The report store answers first; on a miss the scenarios are
        extracted and the finished report is stored.
        """
        with span("extract.all", scenarios=len(self.scenarios)), \
                timed("extract.all"):
            key = self._report_key()
            report = disk.load_report(key, ExtractionReport) if key else None
            if report is not None:
                return report
            results = [self.extract_scenario(spec) for spec in self.scenarios]
            union: List[Dependency] = []
            for result in results:
                union.extend(result.dependencies)
            report = ExtractionReport(results, _dedupe(union))
            if key:
                self._store_units()
                disk.store_report(key, report)
            return report

    def _store_units(self) -> None:
        """Write an index row, with its summaries, for each unit no row
        answered: one write per missed unit."""
        from repro.corpus.loader import load_unit

        for filename in self._unit_names():
            unit = load_unit(filename, summary_kind=FunctionSummary)
            if unit.summaries is None:
                unit.summaries = {memo[1:4]: summary for memo, summary
                                  in list(_SUMMARIES.items())
                                  if memo[0] == unit.fingerprint}
                disk.store_index(unit.fingerprint, unit.lines, unit.slices,
                                 unit.summaries)


def _compute(unit: CorpusUnit, fn_name: str, sources) -> FunctionSummary:
    """Taint + constraints for one function of ``unit``."""
    from repro.analysis.bridge import FieldStore
    from repro.analysis.constraints import derive_constraints
    from repro.analysis.taint import analyze_function
    from repro.lang.cfg import build_cfg

    func = unit.function(fn_name)
    state = analyze_function(func, sources, unit.component)
    findings = derive_constraints(func, build_cfg(func), state, sources,
                                  unit.component, unit.filename)
    return FunctionSummary(
        func.line, tuple(FieldStore.of(write) for write in state.field_writes),
        findings)


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


def extract_all(scenarios: Sequence[ScenarioSpec] = SCENARIOS) -> ExtractionReport:
    """Convenience: run the full Table-5 extraction."""
    return Extractor(scenarios).extract_all()
