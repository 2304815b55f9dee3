"""Tests for ConHandleCk."""

import pytest

from repro.analysis.model import (
    Dependency,
    ParamRef,
    SubKind,
    make_constraint,
)
from repro.tools.conhandleck import (
    ConHandleCk,
    ViolationOutcome,
    ViolationReport,
    ViolationResult,
)


@pytest.fixture(scope="module")
def report(extraction_report):
    return ConHandleCk().check(extraction_report.true_dependencies())


class TestPaperResult:
    def test_every_true_dependency_exercised(self, report):
        outcomes = report.by_outcome()
        assert outcomes[ViolationOutcome.NOT_EXERCISED] == 0
        assert len(report.results) == 59

    def test_exactly_one_bad_handling(self, report):
        """'we have found one unexpected configuration handling case
        where resize2fs may corrupt the file system' (§4.3)."""
        bad = report.bad_handling()
        assert len(bad) == 1

    def test_bad_handling_is_the_figure1_case(self, report):
        bad = report.bad_handling()[0]
        assert bad.outcome is ViolationOutcome.CORRUPTION
        params = {str(p) for p in bad.dependency.params}
        assert "mke2fs.sparse_super2" in params
        assert "resize2fs" in bad.detail or "sparse_super2" in bad.detail

    def test_figure1_driver_detail_pinned(self, report):
        bad = report.bad_handling()[0]
        assert bad.dependency.key() == (
            "CCD.behavioral:mke2fs.sparse_super2,resize2fs.*@s_feature_compat")
        assert bad.outcome is ViolationOutcome.CORRUPTION
        assert bad.detail == (
            "sparse_super2 expansion: e2fsck found free blocks count wrong "
            "for group #0 (1947, counted=3995); free blocks count wrong "
            "(1947, counted=3995)")

    def test_most_violations_rejected_gracefully(self, report):
        outcomes = report.by_outcome()
        assert outcomes[ViolationOutcome.REJECTED] >= 50

    def test_kernel_adjustments_detected(self, report):
        assert report.by_outcome()[ViolationOutcome.ADJUSTED] >= 1

    def test_corruption_detail_mentions_fsck_finding(self, report):
        bad = report.bad_handling()[0]
        assert "free blocks count" in bad.detail


class TestDrivers:
    def _violate(self, kind, params, **constraint):
        dep = Dependency(kind, params, make_constraint(**constraint))
        return ConHandleCk().violate(dep)

    def test_sd_range_violation_rejected(self):
        result = self._violate(
            SubKind.SD_VALUE_RANGE, (ParamRef("mke2fs", "blocksize"),),
            min=1024, max=65536)
        assert result.outcome is ViolationOutcome.REJECTED

    def test_sd_type_violation_rejected(self):
        result = self._violate(
            SubKind.SD_DATA_TYPE, (ParamRef("mke2fs", "blocksize"),),
            ctype="int")
        assert result.outcome is ViolationOutcome.REJECTED

    def test_mount_range_violation_rejected(self):
        result = self._violate(
            SubKind.SD_VALUE_RANGE, (ParamRef("mount", "commit"),),
            min=0, max=900)
        assert result.outcome is ViolationOutcome.REJECTED

    def test_cpd_conflict_violation_rejected(self):
        result = self._violate(
            SubKind.CPD_CONTROL,
            (ParamRef("mke2fs", "meta_bg"), ParamRef("mke2fs", "resize_inode")),
            relation="conflicts")
        assert result.outcome is ViolationOutcome.REJECTED

    def test_cpd_requires_violation_rejected(self):
        result = self._violate(
            SubKind.CPD_CONTROL,
            (ParamRef("mke2fs", "bigalloc"), ParamRef("mke2fs", "extent")),
            relation="requires")
        assert result.outcome is ViolationOutcome.REJECTED

    def test_mount_cpd_violation_rejected(self):
        result = self._violate(
            SubKind.CPD_CONTROL,
            (ParamRef("mount", "noload"), ParamRef("mount", "ro")),
            relation="requires")
        assert result.outcome is ViolationOutcome.REJECTED

    def test_delalloc_adjustment_detected(self):
        result = self._violate(
            SubKind.CPD_CONTROL,
            (ParamRef("mount", "data"), ParamRef("mount", "delalloc")),
            relation="conflicts")
        assert result.outcome is ViolationOutcome.ADJUSTED

    def test_unknown_parameter_not_exercised(self):
        result = self._violate(
            SubKind.SD_VALUE_RANGE, (ParamRef("mke2fs", "esoteric"),),
            min=0, max=1)
        assert result.outcome is ViolationOutcome.NOT_EXERCISED

    def test_unknown_ccd_not_exercised(self):
        dep = Dependency(
            SubKind.CCD_BEHAVIORAL,
            (ParamRef("e2fsck", "*"), ParamRef("mke2fs", "quota")),
            make_constraint(effect="guards-behaviour"),
            bridge_field="s_feature_ro_compat")
        assert ConHandleCk().violate(dep).outcome is ViolationOutcome.NOT_EXERCISED


class TestReportAggregation:
    def test_by_outcome_counts(self):
        report = ViolationReport(results=[
            ViolationResult(None, ViolationOutcome.REJECTED),
            ViolationResult(None, ViolationOutcome.REJECTED),
            ViolationResult(None, ViolationOutcome.CORRUPTION),
        ])
        counts = report.by_outcome()
        assert counts[ViolationOutcome.REJECTED] == 2
        assert counts[ViolationOutcome.CORRUPTION] == 1

    def test_bad_handling_filter(self):
        report = ViolationReport(results=[
            ViolationResult(None, ViolationOutcome.ACCEPTED),
            ViolationResult(None, ViolationOutcome.CORRUPTION),
        ])
        assert len(report.bad_handling()) == 1
