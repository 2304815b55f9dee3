"""Text renderings of Tables 1-5 and Figures 1-2.

Each ``render_*`` function computes its content when called (no
numbers are written into this module) and returns a printable string;
the benchmark harness and the CLI both use these.  Table 5 and the
usages render an extraction report, which a warm cache serves from the
report store (:mod:`repro.corpus.cache`) rather than recomputing.  Only
those two import the extractor, so the study tables and the figures
never load the analysis stack.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.common.texttable import TextTable

if TYPE_CHECKING:
    from repro.analysis.extractor import ExtractionReport


def render_table1() -> str:
    """Table 1: configuration methods of popular file systems."""
    from repro.knowledge.fstable import config_method_table

    table = TextTable(
        ["FS (OS)", "Create", "Mount", "Online", "Offline"],
        title="Table 1: Examples of configuration methods for different file systems",
    )
    for entry in config_method_table():
        table.add_row(entry.label(), *entry.stage_cells())
    return table.render()


def render_table2() -> str:
    """Table 2: configuration coverage of test suites."""
    from repro.suites.coverage import coverage_table

    table = TextTable(
        ["Test Suite", "Target Software", "# Total", "# Used",
         "Used (ours)", "Used (paper-style)"],
        title="Table 2: Configuration Coverage of Test Suites",
    )
    for row in coverage_table():
        table.add_row(
            row.suite,
            row.target,
            f">{row.paper_bound} ({row.total})",
            row.used,
            f"{100 * row.used_fraction:.1f}%",
            f"< {row.paper_style_pct:.1f}%",
        )
    return table.render()


def render_table3() -> str:
    """Table 3: distribution of the 67 configuration bugs."""
    from repro.study.classify import scenario_table, total_row

    rows = scenario_table()
    table = TextTable(
        ["Usage Scenario", "# Bugs", "SD", "CPD", "CCD"],
        title="Table 3: Distribution of Configuration Bugs in Four Scenarios",
    )
    for row in rows + [total_row(rows)]:
        table.add_row(
            row.scenario,
            row.bug_count,
            f"{row.sd_bugs} ({row.pct(row.sd_bugs):.1f}%)",
            f"{row.cpd_bugs} ({row.pct(row.cpd_bugs):.1f}%)" if row.cpd_bugs else "-",
            f"{row.ccd_bugs} ({row.pct(row.ccd_bugs):.1f}%)",
        )
    return table.render()


def render_table4() -> str:
    """Table 4: taxonomy of critical configuration dependencies."""
    from repro.study.classify import observed_subkinds, taxonomy_table

    rows = taxonomy_table()
    table = TextTable(
        ["Dependency", "Description", "Exist?", "Count"],
        title="Table 4: A Taxonomy of Critical Configuration Dependencies",
    )
    for row in rows:
        table.add_row(
            row.kind.value,
            row.description,
            "Y" if row.observed else "N",
            row.count if row.observed else "-",
        )
    observed, total = observed_subkinds(rows)
    table.add_row("Total", f"{observed}/{total} sub-categories observed", "",
                  sum(r.count for r in rows))
    return table.render()


def render_table5(report: Optional[ExtractionReport] = None) -> str:
    """Table 5: extraction results per scenario plus the unique union."""
    from repro.analysis.extractor import extract_all
    from repro.analysis.model import Category

    report = report if report is not None else extract_all()
    table = TextTable(
        ["Usage Scenario",
         "SD Extracted", "SD FP",
         "CPD Extracted", "CPD FP",
         "CCD Extracted", "CCD FP"],
        title="Table 5: Evaluation Results of Extracting Multi-Level Configuration Dependencies",
    )
    for result in report.scenarios:
        counts = result.counts()
        cells = [result.spec.name]
        for category in (Category.SD, Category.CPD, Category.CCD):
            entry = counts[category]
            cells.append(entry.extracted)
            cells.append(_fp_cell(entry.extracted, entry.false_positives))
        table.add_row(*cells)
    union = report.union_counts()
    cells = ["Total Unique"]
    for category in (Category.SD, Category.CPD, Category.CCD):
        entry = union[category]
        cells.append(entry.extracted)
        cells.append(_fp_cell(entry.extracted, entry.false_positives))
    table.add_row(*cells)
    footer = (
        f"Overall: {report.total_extracted} unique dependencies, "
        f"{report.total_false_positives} false positives "
        f"({report.overall_fp_rate:.1%})"
    )
    return table.render() + "\n" + footer


def _fp_cell(extracted: int, fp: int) -> str:
    if extracted == 0:
        return "-"
    if fp == 0:
        return "0"
    return f"{fp} ({100 * fp / extracted:.1f}%)"


def render_figure1() -> str:
    """Figure 1: the sparse_super2/resize2fs corruption, executed live."""
    from repro.ecosystem.e2fsck import E2fsck, E2fsckConfig
    from repro.ecosystem.mke2fs import Mke2fs
    from repro.ecosystem.resize2fs import Resize2fs, Resize2fsConfig
    from repro.fsimage.blockdev import BlockDevice

    lines = ["Figure 1: A Configuration-Related Issue of Ext4",
             "",
             "Parameters: P1 = mke2fs -O sparse_super2, "
             "P2 = mke2fs <size>, P3 = resize2fs <size>",
             "Dependencies: (1) P1 = TRUE  (2) P3 > P2", ""]
    dev = BlockDevice(4096, 4096)
    Mke2fs.from_args(["-O", "sparse_super2,^resize_inode", "-b", "4096",
                      "2048"]).run(dev)
    lines.append("create: mke2fs -O sparse_super2 (P2 = 2048 blocks)")
    Resize2fs(Resize2fsConfig(size="4096")).run(dev)
    lines.append("resize: resize2fs size=4096 (P3 = 4096 > P2) -- expansion")
    result = E2fsck(E2fsckConfig(force=True, no_changes=True)).run(dev)
    if result.problems:
        lines.append("impact: metadata CORRUPTED -- e2fsck reports:")
        for problem in result.problems:
            lines.append(f"  pass {problem.pass_no}: {problem.message}")
    else:
        lines.append("impact: no corruption detected (bug not triggered)")
    lines.append("")
    fixed_dev = BlockDevice(4096, 4096)
    Mke2fs.from_args(["-O", "sparse_super2,^resize_inode", "-b", "4096",
                      "2048"]).run(fixed_dev)
    Resize2fs(Resize2fsConfig(size="4096"), fixed=True).run(fixed_dev)
    fixed = E2fsck(E2fsckConfig(force=True, no_changes=True)).run(fixed_dev)
    lines.append(
        "with the upstream fix applied: "
        + ("clean" if not fixed.problems else "still corrupted")
    )
    return "\n".join(lines)


def render_figure2() -> str:
    """Figure 2: the four configuration stages, executed end to end."""
    from repro.ecosystem.e2fsck import E2fsck, E2fsckConfig
    from repro.ecosystem.e4defrag import E4defrag, E4defragConfig
    from repro.ecosystem.mke2fs import Mke2fs
    from repro.ecosystem.mount import Ext4Mount
    from repro.ecosystem.resize2fs import Resize2fs, Resize2fsConfig
    from repro.fsimage.blockdev import BlockDevice

    lines = ["Figure 2: Methods of Configuring File Systems (executed)"]
    dev = BlockDevice(8192, 4096)
    Mke2fs.from_args(["-b", "4096", "4096"]).run(dev)
    lines.append("(1) create:  mke2fs -b 4096 4096          -> formatted")
    handle = Ext4Mount.mount(dev, "noatime,commit=10")
    lines.append("(2) mount:   mount -o noatime,commit=10   -> mounted")
    ino = handle.create_file(8, fragmented=True)
    report = E4defrag(E4defragConfig()).run(handle)
    lines.append(
        f"(3) online:  e4defrag                      -> {report.defragmented} "
        f"file(s) defragmented (score {report.score:.2f})"
    )
    handle.umount()
    Resize2fs(Resize2fsConfig(size="8192")).run(dev)
    lines.append("(4) offline: resize2fs 8192               -> grown")
    result = E2fsck(E2fsckConfig(force=True, no_changes=True)).run(dev)
    state = "clean" if result.is_clean else f"{len(result.problems)} problems"
    lines.append(f"    offline: e2fsck -f -n                 -> {state}")
    return "\n".join(lines)


def render_usages(report: Optional[ExtractionReport] = None) -> str:
    """§4.3: the three dependency usages, executed."""
    from repro.tools.condocck import ConDocCk
    from repro.tools.conhandleck import ConHandleCk
    from repro.tools.conbugck import ConBugCk
    from repro.analysis.extractor import extract_all

    report = report if report is not None else extract_all()
    true_deps = report.true_dependencies()
    lines = [f"Using the {len(true_deps)} extracted true dependencies:", ""]
    issues = ConDocCk().check(true_deps)
    lines.append(f"ConDocCk: {len(issues)} inaccurate documentations")
    for issue in issues:
        lines.append(f"  {issue}")
    lines.append("")
    violations = ConHandleCk().check(true_deps)
    outcome_counts = violations.by_outcome()
    lines.append(
        "ConHandleCk: "
        + ", ".join(f"{k.value}={v}" for k, v in outcome_counts.items() if v)
    )
    for bad in violations.bad_handling():
        lines.append(f"  BAD HANDLING: {bad}")
    lines.append("")
    generator = ConBugCk(true_deps, seed=2022)
    guided = generator.drive(generator.generate(30))
    naive = generator.drive(generator.generate_naive(30))
    lines.append("ConBugCk (30 configurations each):")
    lines.append(
        f"  dependency-respecting: {guided.reached['fsck-clean']}/{guided.total} "
        "reach the deepest stage"
    )
    lines.append(
        f"  naive random:          {naive.reached['fsck-clean']}/{naive.total} "
        "reach the deepest stage"
    )
    return "\n".join(lines)


def render_mining() -> str:
    """§3.1: the patch-mining pipeline numbers."""
    from repro.study.mining import MiningPipeline

    result = MiningPipeline().run()
    return "\n".join([
        "Patch mining pipeline (paper §3.1):",
        f"  commit history:      {result.total_commits} commits",
        f"  keyword search:      {result.keyword_hits} candidate patches",
        f"  random sample:       {result.sampled} patches examined",
        f"  relevant (curated):  {result.relevant} configuration bugs",
    ])
