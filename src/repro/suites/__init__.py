"""Test-suite models and configuration-coverage computation (Table 2)."""

from repro import _lazy

_lazy.install(globals(), {
    "repro.suites.xfstest": ("XFSTEST_SUITE",),
    "repro.suites.e2fsprogs_test": ("E2FSCK_SUITE", "RESIZE2FS_SUITE"),
    "repro.suites.coverage": ("CoverageRow", "compute_coverage",
                              "coverage_table"),
})
