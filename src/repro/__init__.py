"""repro — reproduction of *Understanding Configuration Dependencies of
File Systems* (HotStorage '22).

The package has four layers:

1. **Simulated Ext4 ecosystem** (:mod:`repro.fsimage`,
   :mod:`repro.ecosystem`): a byte-serialized ext4 image format plus
   executable models of mke2fs, mount/ext4_fill_super, e4defrag,
   resize2fs (including the Figure-1 sparse_super2 bug) and e2fsck.
2. **Mini-C frontend** (:mod:`repro.lang`) and the **modelled corpus**
   (:mod:`repro.corpus`): the LLVM substitute and the C translation
   units the analyzer consumes.
3. **The analyzer** (:mod:`repro.analysis`): taint analysis, constraint
   derivation, metadata-bridge CCD extraction, scenario driver — the
   paper's §4 contribution.
4. **Consumers**: the empirical study (:mod:`repro.study`), the test-
   suite coverage models (:mod:`repro.suites`), the three checkers
   (:mod:`repro.tools`), and the table/figure renderers
   (:mod:`repro.reporting`).

Quick start::

    from repro import extract_all, ConDocCk

    report = extract_all()          # Table-5 extraction
    print(report.total_extracted)   # 64
    issues = ConDocCk().check(report.true_dependencies())
    print(len(issues))              # 12
"""

from repro import _lazy

__version__ = "1.0.0"

__all__ = ["__version__"]

# Exports resolve on first access (PEP 562), so ``import repro`` loads
# no subpackage; add new public names to this table, never as eager
# imports.
_lazy.install(globals(), {
    "repro.analysis.extractor": ("extract_all", "Extractor",
                                 "ExtractionReport", "ScenarioSpec",
                                 "SCENARIOS"),
    "repro.analysis.model": ("Dependency", "ParamRef", "Category", "SubKind"),
    "repro.fsimage.blockdev": ("BlockDevice",),
    "repro.fsimage.image": ("Ext4Image",),
    "repro.fsimage.layout": ("Superblock",),
    "repro.ecosystem.featureset": ("FeatureSet",),
    "repro.ecosystem.mke2fs": ("Mke2fs", "Mke2fsConfig"),
    "repro.ecosystem.mount": ("Ext4Mount", "MountConfig"),
    "repro.ecosystem.e4defrag": ("E4defrag", "E4defragConfig"),
    "repro.ecosystem.resize2fs": ("Resize2fs", "Resize2fsConfig"),
    "repro.ecosystem.e2fsck": ("E2fsck", "E2fsckConfig"),
    "repro.tools.condocck": ("ConDocCk",),
    "repro.tools.conhandleck": ("ConHandleCk",),
    "repro.tools.conbugck": ("ConBugCk",),
})
