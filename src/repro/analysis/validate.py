"""Differential validation: extracted dependencies vs. concrete execution.

The static analyzer *claims* constraints; the interpreter
(:mod:`repro.lang.interp`) can *execute* the corpus.  This module
closes the loop: for every extracted Self-Dependency range it runs the
owning parse function with boundary values (min-1 / min / max / max+1)
and checks that the error path fires exactly outside the claimed range;
for every Cross-Parameter Dependency it runs the conflict-check
function with a violating and a satisfying configuration.

Verdicts:

- ``CONSISTENT``    the corpus behaves exactly as the dependency claims,
- ``INCONSISTENT``  the corpus disagrees (an analyzer bug — or a false
  positive: the three derived-range FPs fail this validation, which is
  an automated version of the paper's manual FP labelling),
- ``NOT_VALIDATED`` no concrete driver for this dependency shape.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.model import Dependency, ParamRef, SubKind
from repro.corpus.loader import load_unit
from repro.lang.interp import InterpError, Interpreter


class Verdict(enum.Enum):
    """Outcome of one differential-validation probe."""
    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"
    NOT_VALIDATED = "not-validated"


@dataclass
class ValidationResult:
    """One dependency's differential-validation outcome."""
    dependency: Dependency
    verdict: Verdict
    detail: str = ""

    def __str__(self) -> str:
        return f"[{self.verdict.value}] {self.dependency.describe()} — {self.detail}"


@dataclass
class ValidationReport:
    """All validation outcomes of one run."""
    results: List[ValidationResult] = dc_field(default_factory=list)

    def count(self, verdict: Verdict) -> int:
        """Number of results with the given verdict."""
        return sum(1 for r in self.results if r.verdict is verdict)

    def inconsistent(self) -> List[ValidationResult]:
        """Results where execution contradicts the claim."""
        return [r for r in self.results if r.verdict is Verdict.INCONSISTENT]


# ---------------------------------------------------------------------------
# mke2fs drivers
# ---------------------------------------------------------------------------

#: parameter -> getopt option character in the corpus parse loop.
_MKE2FS_OPTION_CHAR: Dict[str, str] = {
    "blocksize": "b",
    "cluster_size": "C",
    "blocks_per_group": "g",
    "number_of_groups": "G",
    "inode_ratio": "i",
    "inode_size": "I",
    "journal_size": "J",
    "reserved_percent": "m",
    "inode_count": "N",
}

#: parameter -> corpus global variable (inverse of the annotations).
_MKE2FS_GLOBAL: Dict[str, str] = {
    "blocksize": "blocksize",
    "cluster_size": "cluster_size",
    "inode_ratio": "inode_ratio",
    "inode_size": "inode_size",
    "reserved_percent": "reserved_percent",
    "blocks_per_group": "blocks_per_group",
    "number_of_groups": "num_groups",
    "inode_count": "num_inodes",
    "journal_size": "journal_size",
    "fs_size": "fs_blocks_count",
    "stride": "fs_stride",
    "stripe_width": "fs_stripe_width",
    "resize_limit": "resize_limit",
    "check_badblocks": "check_badblocks_flag",
    "dry_run": "dry_run_flag",
}

#: a conflict-free feature baseline for satisfied-case runs.
_MKE2FS_BASELINE: Dict[str, Any] = {
    "f_extent": 1, "f_ext_attr": 1, "f_dir_index": 1, "f_large_file": 1,
    "f_quota": 1, "f_has_journal": 1, "f_sparse_super": 1,
    "blocksize": 4096, "inode_size": 256,
}

#: "enabled" values for non-flag mke2fs parameters in CPD runs.
_MKE2FS_ON_VALUE: Dict[str, Any] = {
    "journal_size": 2048,
    "cluster_size": 16384,
    "number_of_groups": 16,
    "resize_limit": 1024,
    "stripe_width": 64,
    "stride": 16,
    "inode_size": 256,
    "check_badblocks": 1,
    "dry_run": 1,
}

#: value-CPD cases: (params) -> (violating globals, satisfying globals).
_MKE2FS_VALUE_CASES: Dict[frozenset, Tuple[Dict[str, Any], Dict[str, Any]]] = {
    frozenset({"cluster_size", "blocksize"}): (
        {"cluster_size": 4096, "blocksize": 4096, "f_bigalloc": 1},
        {"cluster_size": 16384, "blocksize": 4096, "f_bigalloc": 1},
    ),
    frozenset({"inode_size", "blocksize"}): (
        {"inode_size": 8192, "blocksize": 4096},
        {"inode_size": 256, "blocksize": 4096},
    ),
}

_MOUNT_GLOBAL: Dict[str, str] = {
    "commit": "opt_commit",
    "barrier": "opt_barrier",
    "journal_ioprio": "opt_journal_ioprio",
    "auto_da_alloc": "opt_auto_da_alloc",
    "max_batch_time": "opt_max_batch_time",
    "min_batch_time": "opt_min_batch_time",
    "resuid": "opt_resuid",
    "resgid": "opt_resgid",
    "stripe": "opt_stripe",
    "ro": "opt_ro",
    "dax": "opt_dax",
    "noload": "opt_noload",
    "data": "opt_data_journal",
    "delalloc": "opt_delalloc",
    "journal_checksum": "opt_journal_checksum",
    "journal_async_commit": "opt_journal_async_commit",
}

#: mount CPD cases: params -> (check function, violating, satisfying).
_MOUNT_CPD_CASES: Dict[frozenset, Tuple[str, Dict[str, Any], Dict[str, Any]]] = {
    frozenset({"journal_async_commit", "journal_checksum"}): (
        "check_mount_options",
        {"opt_journal_async_commit": 1, "opt_journal_checksum": 0},
        {"opt_journal_async_commit": 1, "opt_journal_checksum": 1},
    ),
    frozenset({"dax", "data"}): (
        "check_mount_options",
        {"opt_dax": 1, "opt_data_journal": 1},
        {"opt_dax": 1, "opt_data_journal": 0},
    ),
    frozenset({"noload", "ro"}): (
        "check_mount_options",
        {"opt_noload": 1, "opt_ro": 0},
        {"opt_noload": 1, "opt_ro": 1},
    ),
    frozenset({"min_batch_time", "max_batch_time"}): (
        "ext4_remount_checks",
        {"opt_min_batch_time": 20000, "opt_max_batch_time": 10000},
        {"opt_min_batch_time": 0, "opt_max_batch_time": 15000},
    ),
    frozenset({"data", "delalloc"}): (
        "ext4_remount_checks",
        {"opt_data_journal": 1, "opt_delalloc": 1},
        {"opt_data_journal": 1, "opt_delalloc": 0},
    ),
}


class DifferentialValidator:
    """Validate extracted dependencies by executing the corpus."""

    def __init__(self) -> None:
        self.mke2fs = load_unit("mke2fs.c").module
        self.mount = load_unit("mount.c").module

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def validate(self, dependencies: Sequence[Dependency]) -> ValidationReport:
        """Validate a batch of dependencies."""
        report = ValidationReport()
        for dep in dependencies:
            report.results.append(self.validate_one(dep))
        return report

    def validate_one(self, dep: Dependency) -> ValidationResult:
        """Validate a single dependency; never raises."""
        try:
            if dep.kind is SubKind.SD_VALUE_RANGE:
                return self._validate_range(dep)
            if dep.kind is SubKind.SD_DATA_TYPE:
                return self._validate_type(dep)
            if dep.kind in (SubKind.CPD_CONTROL, SubKind.CPD_VALUE):
                return self._validate_cpd(dep)
        except InterpError as exc:
            return ValidationResult(dep, Verdict.NOT_VALIDATED,
                                    f"interpreter: {exc}")
        return ValidationResult(dep, Verdict.NOT_VALIDATED,
                                "no concrete driver for this dependency shape")

    # ------------------------------------------------------------------
    # SD value range
    # ------------------------------------------------------------------

    def _validate_range(self, dep: Dependency) -> ValidationResult:
        param = dep.params[0]
        bounds = dep.constraint_dict
        lo, hi = bounds.get("min"), bounds.get("max")
        probes: List[Tuple[int, bool]] = []  # (value, expect_rejection)
        if lo is not None:
            probes += [(lo - 1, True), (lo, False)]
        if hi is not None:
            probes += [(hi, False), (hi + 1, True)]
        if param.component == "mke2fs":
            runner = self._mke2fs_range_runner(param.name)
        elif param.component == "mount":
            runner = self._mount_range_runner(param.name)
        else:
            return ValidationResult(dep, Verdict.NOT_VALIDATED,
                                    f"no range driver for {param.component}")
        if runner is None:
            return ValidationResult(dep, Verdict.NOT_VALIDATED,
                                    f"no driver for {param}")
        for value, expect_reject in probes:
            rejected = runner(value)
            if rejected != expect_reject:
                return ValidationResult(
                    dep, Verdict.INCONSISTENT,
                    f"value {value}: corpus "
                    f"{'rejects' if rejected else 'accepts'}, claim says "
                    f"{'reject' if expect_reject else 'accept'}")
        return ValidationResult(dep, Verdict.CONSISTENT,
                                f"{len(probes)} boundary probes agree")

    def _mke2fs_range_runner(self, name: str) -> Optional[Callable[[int], bool]]:
        if name == "fs_size":
            return lambda value: self._run_mke2fs_parse([], str(value))
        char = _MKE2FS_OPTION_CHAR.get(name)
        if char is None:
            return None
        return lambda value: self._run_mke2fs_parse([(char, str(value))], "128")

    def _run_mke2fs_parse(self, options: List[Tuple[str, str]],
                          size_operand: str) -> bool:
        """Run parse_mke2fs_options; True when it takes the error path."""
        chars = iter([ord(c) for c, _v in options] + [0])
        values = iter([v for _c, v in options] + [size_operand])
        interp = Interpreter(self.mke2fs, stubs={
            "getopt": lambda argc, argv: next(chars),
            "optarg_value": lambda: next(values),
            "parse_feature_word": lambda s: 0,
        })
        result = interp.run("parse_mke2fs_options", 2, 0)
        return result.error_exit

    def _mount_range_runner(self, name: str) -> Optional[Callable[[int], bool]]:
        global_name = _MOUNT_GLOBAL.get(name)
        if global_name is None:
            return None

        def run(value: int) -> bool:
            baseline = {"opt_max_batch_time": 15000}
            baseline[global_name] = value
            interp = Interpreter(self.mount, globals_init=baseline)
            result = interp.run("check_mount_options")
            return result.error_exit or _rejected(result.return_value)

        return run

    # ------------------------------------------------------------------
    # SD data type
    # ------------------------------------------------------------------

    def _validate_type(self, dep: Dependency) -> ValidationResult:
        param = dep.params[0]
        if param.component != "mke2fs":
            return ValidationResult(dep, Verdict.NOT_VALIDATED,
                                    "type probing is wired for mke2fs only")
        runner = self._mke2fs_range_runner(param.name)
        if runner is None:
            return ValidationResult(dep, Verdict.NOT_VALIDATED,
                                    f"no driver for {param}")
        try:
            if param.name == "fs_size":
                self._run_mke2fs_parse([], "not-a-number")
            else:
                char = _MKE2FS_OPTION_CHAR[param.name]
                self._run_mke2fs_parse([(char, "not-a-number")], "128")
        except (InterpError, ValueError):
            return ValidationResult(dep, Verdict.CONSISTENT,
                                    "non-numeric input fails the typed parse")
        return ValidationResult(dep, Verdict.INCONSISTENT,
                                "non-numeric input was accepted")

    # ------------------------------------------------------------------
    # CPD
    # ------------------------------------------------------------------

    def _validate_cpd(self, dep: Dependency) -> ValidationResult:
        a, b = dep.params[0], dep.params[-1]
        if a.component == "mke2fs":
            return self._validate_mke2fs_cpd(dep, a, b)
        if a.component == "mount":
            return self._validate_mount_cpd(dep, a, b)
        return ValidationResult(dep, Verdict.NOT_VALIDATED,
                                f"no CPD driver for {a.component}")

    def _validate_mke2fs_cpd(self, dep: Dependency, a: ParamRef,
                             b: ParamRef) -> ValidationResult:
        if dep.kind is SubKind.CPD_VALUE:
            case = _MKE2FS_VALUE_CASES.get(frozenset({a.name, b.name}))
            if case is None:
                return ValidationResult(dep, Verdict.NOT_VALIDATED,
                                        "no value-CPD case")
            violating, satisfying = case
        else:
            relation = dep.constraint_dict.get("relation", "conflicts")
            violating = {self._mke2fs_setting(a.name): self._on_value(a.name)}
            satisfying = dict(violating)
            if relation == "conflicts":
                violating[self._mke2fs_setting(b.name)] = self._on_value(b.name)
                satisfying[self._mke2fs_setting(b.name)] = 0
            else:  # a requires b
                violating[self._mke2fs_setting(b.name)] = 0
                satisfying[self._mke2fs_setting(b.name)] = self._on_value(b.name)
        reject_violating = self._run_mke2fs_conflicts(violating)
        reject_satisfying = self._run_mke2fs_conflicts(satisfying)
        return self._cpd_verdict(dep, reject_violating, reject_satisfying)

    @staticmethod
    def _mke2fs_setting(name: str) -> str:
        from repro.ecosystem.featureset import all_feature_names

        if name in all_feature_names():
            return f"f_{name}"
        return _MKE2FS_GLOBAL[name]

    @staticmethod
    def _on_value(name: str) -> Any:
        return _MKE2FS_ON_VALUE.get(name, 1)

    def _run_mke2fs_conflicts(self, overrides: Dict[str, Any]) -> bool:
        globals_init = dict(_MKE2FS_BASELINE)
        # drop baseline entries that would themselves conflict
        for key, value in overrides.items():
            globals_init[key] = value
        interp = Interpreter(self.mke2fs, globals_init=globals_init)
        result = interp.run("check_feature_conflicts")
        return result.error_exit or _rejected(result.return_value)

    def _validate_mount_cpd(self, dep: Dependency, a: ParamRef,
                            b: ParamRef) -> ValidationResult:
        case = _MOUNT_CPD_CASES.get(frozenset({a.name, b.name}))
        if case is None:
            return ValidationResult(dep, Verdict.NOT_VALIDATED,
                                    "no mount CPD case")
        function, violating, satisfying = case
        reject_violating = self._run_mount_check(function, violating)
        reject_satisfying = self._run_mount_check(function, satisfying)
        return self._cpd_verdict(dep, reject_violating, reject_satisfying)

    def _run_mount_check(self, function: str, overrides: Dict[str, Any]) -> bool:
        globals_init = {"opt_max_batch_time": 15000}
        globals_init.update(overrides)
        interp = Interpreter(self.mount, globals_init=globals_init)
        result = interp.run(function)
        return result.error_exit or _rejected(result.return_value)

    @staticmethod
    def _cpd_verdict(dep: Dependency, reject_violating: bool,
                     reject_satisfying: bool) -> ValidationResult:
        if reject_violating and not reject_satisfying:
            return ValidationResult(dep, Verdict.CONSISTENT,
                                    "violating config rejected, satisfying accepted")
        if not reject_violating:
            return ValidationResult(dep, Verdict.INCONSISTENT,
                                    "violating configuration was accepted")
        return ValidationResult(dep, Verdict.INCONSISTENT,
                                "satisfying configuration was rejected")


def _rejected(return_value: Any) -> bool:
    return isinstance(return_value, int) and return_value < 0


def validate_extracted(dependencies: Optional[Sequence[Dependency]] = None) -> ValidationReport:
    """Differentially validate (default: the full Table-5 union)."""
    if dependencies is None:
        from repro.analysis.extractor import extract_all

        dependencies = extract_all().union
    return DifferentialValidator().validate(dependencies)
