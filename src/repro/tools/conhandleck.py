"""ConHandleCk: dependency-violation robustness testing (paper §4.2).

For each validated dependency, ConHandleCk constructs a configuration
that *violates* it and runs the violation against the simulated
ecosystem, observing how the components handle it:

- ``REJECTED`` — a component refused the configuration with a clear
  error (graceful handling),
- ``ADJUSTED`` — a component silently corrected the configuration
  (e.g. the kernel forcing delalloc off under data=journal),
- ``ACCEPTED`` — the violation went through with no visible reaction,
- ``CORRUPTION`` — the run completed but e2fsck finds damaged metadata
  afterwards (bad configuration handling),
- ``NOT_EXERCISED`` — no violation driver for this dependency.

On the shipped corpus this reproduces the paper's §4.3 finding: exactly
one bad-handling case, where resize2fs corrupts the file system
(expanding a ``sparse_super2`` file system — Figure 1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.model import Category, Dependency, ParamRef, SubKind
from repro.ecosystem.e2fsck import E2fsck, E2fsckConfig
from repro.ecosystem.mke2fs import Mke2fs
from repro.ecosystem.mount import Ext4Mount
from repro.ecosystem.resize2fs import Resize2fs, Resize2fsConfig
from repro.errors import MountError, ReproError, UsageError
from repro.fsimage.blockdev import BlockDevice
from repro.obs.tracer import span
from repro.perf import SnapshotCache, bump, timed


class ViolationOutcome(enum.Enum):
    """How the ecosystem handled one violation."""
    REJECTED = "rejected"
    ADJUSTED = "adjusted"
    ACCEPTED = "accepted"
    CORRUPTION = "corruption"
    NOT_EXERCISED = "not-exercised"


@dataclass
class ViolationResult:
    """Outcome of violating one dependency."""

    dependency: Dependency
    outcome: ViolationOutcome
    detail: str = ""

    def __str__(self) -> str:
        return f"[{self.outcome.value}] {self.dependency.describe()} — {self.detail}"


@dataclass
class ViolationReport:
    """Aggregate over all violated dependencies."""

    results: List[ViolationResult] = field(default_factory=list)

    def by_outcome(self) -> Dict[ViolationOutcome, int]:
        """Result counts per outcome."""
        out = {o: 0 for o in ViolationOutcome}
        for r in self.results:
            out[r.outcome] += 1
        return out

    def bad_handling(self) -> List[ViolationResult]:
        """The cases the paper calls bad configuration handling."""
        return [r for r in self.results
                if r.outcome in (ViolationOutcome.CORRUPTION,)]


# ---------------------------------------------------------------------------
# parameter setters: how to express a parameter on the CLI surface
# ---------------------------------------------------------------------------

#: mke2fs numeric/flag options: param name -> args contribution when
#: "enabled" with a benign value.
_MKE2FS_OPTION_ARGS: Dict[str, List[str]] = {
    "blocksize": ["-b", "4096"],
    "cluster_size": ["-C", "16384"],
    "blocks_per_group": ["-g", "1024"],
    "number_of_groups": ["-G", "16"],
    "inode_ratio": ["-i", "16384"],
    "inode_size": ["-I", "256"],
    "journal_size": ["-J", "size=4"],
    "reserved_percent": ["-m", "5"],
    "inode_count": ["-N", "1024"],
    "stride": ["-E", "stride=16"],
    "stripe_width": ["-E", "stripe_width=64"],
    "resize_limit": ["-E", "resize=65536"],
}

#: Out-of-range values per ranged parameter (component, name) -> args.
_RANGE_VIOLATIONS: Dict[Tuple[str, str], object] = {
    ("mke2fs", "blocksize"): ["-b", "131072"],
    ("mke2fs", "blocks_per_group"): ["-g", "128"],
    ("mke2fs", "number_of_groups"): ["-O", "flex_bg", "-G", "0"],
    ("mke2fs", "inode_ratio"): ["-i", "512"],
    ("mke2fs", "inode_size"): ["-I", "8192"],
    ("mke2fs", "journal_size"): ["-j", "-J", "size=0"],
    ("mke2fs", "reserved_percent"): ["-m", "80"],
    ("mke2fs", "fs_size"): ["32"],
    ("mount", "commit"): "commit=1000",
    ("mount", "journal_ioprio"): "journal_ioprio=9",
    ("mount", "barrier"): "barrier=2",
    ("mount", "auto_da_alloc"): "auto_da_alloc=5",
    ("mount", "max_batch_time"): "max_batch_time=-1",
    ("mount", "min_batch_time"): "min_batch_time=-1",
}

#: Type violations: non-numeric text for typed parameters.
_TYPE_VIOLATIONS: Dict[Tuple[str, str], object] = {
    ("mke2fs", "blocksize"): ["-b", "huge"],
    ("mke2fs", "cluster_size"): ["-C", "big"],
    ("mke2fs", "blocks_per_group"): ["-g", "many"],
    ("mke2fs", "number_of_groups"): ["-G", "some"],
    ("mke2fs", "inode_ratio"): ["-i", "dense"],
    ("mke2fs", "inode_size"): ["-I", "large"],
    ("mke2fs", "journal_size"): ["-J", "size=big"],
    ("mke2fs", "reserved_percent"): ["-m", "half"],
    ("mke2fs", "inode_count"): ["-N", "lots"],
    ("mke2fs", "fs_size"): ["10Q"],
    ("mount", "commit"): "commit=soon",
    ("mount", "resuid"): "resuid=root",
    ("mount", "resgid"): "resgid=wheel",
    ("mount", "journal_ioprio"): "journal_ioprio=high",
    ("mount", "stripe"): "stripe=wide",
}

#: Feature parameters of mke2fs (everything togglable via -O).
def _is_feature(name: str) -> bool:
    from repro.ecosystem.featureset import all_feature_names

    return name in all_feature_names()


class ConHandleCk:
    """The dependency-violation robustness checker."""

    def __init__(self, device_blocks: int = 4096, block_size: int = 4096) -> None:
        self.device_blocks = device_blocks
        self.block_size = block_size
        # Post-mkfs snapshots shared across violation runs: every mount
        # violation formats the same base image, and SD violations repeat
        # argument vectors — mkfs is deterministic, so cloning is exact.
        self._snapshots = SnapshotCache()

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------

    def check(self, dependencies: Sequence[Dependency]) -> ViolationReport:
        """Violate every dependency, in dependency order; returns the
        report."""
        report = ViolationReport()
        bump("campaign.items", len(dependencies))
        with span("campaign.violate", items=len(dependencies)), \
                timed("campaign.violate"):
            report.results.extend(self.violate(dep) for dep in dependencies)
        return report

    def check_extracted(self) -> ViolationReport:
        """Run extraction and violate every validated dependency."""
        from repro.analysis.extractor import extract_all

        return self.check(extract_all().true_dependencies())

    # ------------------------------------------------------------------
    # single-dependency drivers
    # ------------------------------------------------------------------

    def violate(self, dep: Dependency) -> ViolationResult:
        """Construct and run the violation for one dependency."""
        with span("conhandleck.violate", dependency=dep.key()):
            try:
                if dep.kind is SubKind.SD_VALUE_RANGE:
                    return self._violate_sd(dep, _RANGE_VIOLATIONS)
                if dep.kind is SubKind.SD_DATA_TYPE:
                    return self._violate_sd(dep, _TYPE_VIOLATIONS)
                if dep.category is Category.CPD:
                    return self._violate_cpd(dep)
                if dep.category is Category.CCD:
                    return self._violate_ccd(dep)
            except ReproError as exc:  # defensive: unexpected error path
                return ViolationResult(dep, ViolationOutcome.ACCEPTED,
                                       f"unexpected error {exc}")
            return ViolationResult(dep, ViolationOutcome.NOT_EXERCISED,
                                   "no violation driver")

    # ---- SD --------------------------------------------------------------

    def _violate_sd(self, dep: Dependency,
                    table: Dict[Tuple[str, str], object]) -> ViolationResult:
        param = dep.params[0]
        spec = table.get((param.component, param.name))
        if spec is None:
            return ViolationResult(dep, ViolationOutcome.NOT_EXERCISED,
                                   "no violation value for this parameter")
        if param.component == "mke2fs":
            return self._run_mke2fs(dep, list(spec))
        if param.component == "mount":
            return self._run_mount(dep, str(spec))
        return ViolationResult(dep, ViolationOutcome.NOT_EXERCISED,
                               f"no driver for component {param.component}")

    # ---- CPD --------------------------------------------------------------

    def _violate_cpd(self, dep: Dependency) -> ViolationResult:
        relation = dep.constraint_dict.get("relation", "conflicts")
        a, b = dep.params[0], dep.params[1]
        if a.component == "mke2fs":
            return self._violate_mke2fs_cpd(dep, a, b, relation)
        if a.component == "mount":
            return self._violate_mount_cpd(dep, a, b, relation)
        return ViolationResult(dep, ViolationOutcome.NOT_EXERCISED,
                               f"no CPD driver for {a.component}")

    def _violate_mke2fs_cpd(self, dep: Dependency, a: ParamRef, b: ParamRef,
                            relation: str) -> ViolationResult:
        args: List[str] = []
        features: List[str] = []

        def enable(p: ParamRef) -> None:
            if _is_feature(p.name):
                features.append(p.name)
            else:
                args.extend(_MKE2FS_OPTION_ARGS.get(p.name, []))

        def disable(p: ParamRef) -> None:
            if _is_feature(p.name):
                features.append("^" + p.name)
            # a numeric option is disabled by omission

        if dep.kind is SubKind.CPD_VALUE:
            return self._violate_mke2fs_cpd_value(dep, a, b)
        if relation == "conflicts":
            enable(a)
            enable(b)
        else:  # a requires b: enable a, disable b
            enable(a)
            disable(b)
            # satisfy unrelated prerequisites so only this rule fires
            features.extend(self._prerequisites(a, exclude=b.name))
        if features:
            args = ["-O", ",".join(features)] + args
        return self._run_mke2fs(dep, args)

    @staticmethod
    def _prerequisites(param: ParamRef, exclude: str) -> List[str]:
        """Extra features a violation setup needs (e.g. -C needs bigalloc)."""
        needs = {
            "cluster_size": ["bigalloc", "extent"],
            "journal_size": ["has_journal"],
            "bigalloc": [],
            "resize_limit": ["resize_inode"],
            "number_of_groups": ["flex_bg"],
        }
        return [f for f in needs.get(param.name, []) if f != exclude]

    def _violate_mke2fs_cpd_value(self, dep: Dependency, a: ParamRef,
                                  b: ParamRef) -> ViolationResult:
        if {a.name, b.name} == {"cluster_size", "blocksize"}:
            args = ["-O", "bigalloc,extent", "-b", "4096", "-C", "4096"]
        elif {a.name, b.name} == {"inode_size", "blocksize"}:
            args = ["-b", "2048", "-I", "4096", "-F"]
        else:
            return ViolationResult(dep, ViolationOutcome.NOT_EXERCISED,
                                   "no value-violation driver")
        return self._run_mke2fs(dep, args)

    def _violate_mount_cpd(self, dep: Dependency, a: ParamRef, b: ParamRef,
                           relation: str) -> ViolationResult:
        combos = {
            frozenset({"journal_async_commit", "journal_checksum"}):
                "journal_async_commit",
            frozenset({"dax", "data"}): "dax,data=journal",
            frozenset({"noload", "ro"}): "noload",
            frozenset({"max_batch_time", "min_batch_time"}):
                "min_batch_time=20000,max_batch_time=10000",
            frozenset({"data", "delalloc"}): "data=journal,delalloc",
        }
        opts = combos.get(frozenset({a.name, b.name}))
        if opts is None:
            return ViolationResult(dep, ViolationOutcome.NOT_EXERCISED,
                                   "no mount-option combination driver")
        return self._run_mount(dep, opts, journal=True)

    # ---- CCD --------------------------------------------------------------

    def _violate_ccd(self, dep: Dependency) -> ViolationResult:
        drivers: Dict[str, Callable[[Dependency], ViolationResult]] = {
            "CCD.behavioral:mke2fs.fs_size,resize2fs.size@s_blocks_count":
                self._drive_plain_expand,
            "CCD.behavioral:mke2fs.sparse_super2,resize2fs.*@s_feature_compat":
                self._drive_sparse_super2_expand,
            "CCD.behavioral:mke2fs.resize_inode,resize2fs.size@s_feature_compat":
                self._drive_grow_without_resize_inode,
            "CCD.behavioral:mke2fs.resize_limit,resize2fs.size@s_reserved_gdt_blocks":
                self._drive_grow_past_reserved,
            "CCD.control:mke2fs.64bit,resize2fs.enable_64bit:conflicts@s_feature_incompat":
                self._drive_redundant_64bit,
        }
        driver = drivers.get(dep.key())
        if driver is None:
            return ViolationResult(dep, ViolationOutcome.NOT_EXERCISED,
                                   "no scenario driver")
        return driver(dep)

    def _drive_plain_expand(self, dep: Dependency) -> ViolationResult:
        """Expand without sparse_super2: the size relation handled well."""
        dev = BlockDevice(4096, 4096)
        Mke2fs.from_args(["-b", "4096", "2048"]).run(dev)
        Resize2fs(Resize2fsConfig(size="4096")).run(dev)
        return self._fsck_verdict(dep, dev, "plain expansion")

    def _drive_sparse_super2_expand(self, dep: Dependency) -> ViolationResult:
        """Figure 1: sparse_super2 + expansion => metadata corruption."""
        dev = BlockDevice(4096, 4096)
        Mke2fs.from_args(["-O", "sparse_super2,^resize_inode",
                          "-b", "4096", "2048"]).run(dev)
        Resize2fs(Resize2fsConfig(size="4096")).run(dev)
        return self._fsck_verdict(dep, dev, "sparse_super2 expansion")

    def _drive_grow_without_resize_inode(self, dep: Dependency) -> ViolationResult:
        dev = BlockDevice(16384, 1024)
        Mke2fs.from_args(["-b", "1024", "-g", "256",
                          "-O", "^resize_inode,^has_journal", "8192"]).run(dev)
        try:
            Resize2fs(Resize2fsConfig(size="12288")).run(dev)
        except UsageError as exc:
            return ViolationResult(dep, ViolationOutcome.REJECTED, str(exc))
        return self._fsck_verdict(dep, dev, "growth without resize_inode")

    def _drive_grow_past_reserved(self, dep: Dependency) -> ViolationResult:
        dev = BlockDevice(32768, 1024)
        Mke2fs.from_args(["-b", "1024", "-g", "256", "-O", "^has_journal",
                          "-E", "resize=11264", "8192"]).run(dev)
        try:
            Resize2fs(Resize2fsConfig(size="28672")).run(dev)
        except UsageError as exc:
            return ViolationResult(dep, ViolationOutcome.REJECTED, str(exc))
        return self._fsck_verdict(dep, dev, "growth past -E resize= limit")

    def _drive_redundant_64bit(self, dep: Dependency) -> ViolationResult:
        dev = BlockDevice(2048, 4096)
        Mke2fs.from_args(["-O", "64bit", "-b", "4096", "2048"]).run(dev)
        resizer = Resize2fs(Resize2fsConfig(enable_64bit=True))
        result = resizer.run(dev)
        if any("already" in m for m in result.messages):
            return ViolationResult(dep, ViolationOutcome.ADJUSTED,
                                   "resize2fs notices the feature is present")
        return self._fsck_verdict(dep, dev, "redundant 64-bit conversion")

    # ------------------------------------------------------------------
    # execution helpers
    # ------------------------------------------------------------------

    def _formatted_device(self, mk_args: List[str]) -> BlockDevice:
        """A fresh device formatted with ``mk_args``, via the snapshot cache."""
        return self._snapshots.device_for(
            ("mke2fs", tuple(mk_args), self.device_blocks, self.block_size),
            self.device_blocks, self.block_size,
            lambda dev: Mke2fs.from_args(mk_args).run(dev))

    def _run_mke2fs(self, dep: Dependency, args: List[str]) -> ViolationResult:
        try:
            dev = self._formatted_device(args)
        except UsageError as exc:
            return ViolationResult(dep, ViolationOutcome.REJECTED, str(exc))
        return self._fsck_verdict(dep, dev, f"mke2fs accepted {args}")

    def _run_mount(self, dep: Dependency, options: str,
                   journal: bool = False) -> ViolationResult:
        mk_args = ["-b", str(self.block_size), str(self.device_blocks)]
        if journal:
            mk_args = ["-j"] + mk_args
        dev = self._formatted_device(mk_args)
        try:
            handle = Ext4Mount.mount(dev, options)
        except (UsageError, MountError) as exc:
            return ViolationResult(dep, ViolationOutcome.REJECTED, str(exc))
        adjusted = "delalloc" in options and not handle.config.delalloc
        handle.umount()
        if adjusted:
            return ViolationResult(dep, ViolationOutcome.ADJUSTED,
                                   "kernel forced delalloc off under data=journal")
        return self._fsck_verdict(dep, dev, f"mount accepted -o {options}")

    def _fsck_verdict(self, dep: Dependency, dev: BlockDevice,
                      context: str) -> ViolationResult:
        check = E2fsck(E2fsckConfig(force=True, no_changes=True)).run(dev)
        if check.problems:
            details = "; ".join(p.message for p in check.problems[:3])
            return ViolationResult(dep, ViolationOutcome.CORRUPTION,
                                   f"{context}: e2fsck found {details}")
        return ViolationResult(dep, ViolationOutcome.ACCEPTED,
                               f"{context}; filesystem remained consistent")


# ---------------------------------------------------------------------------
# sharded violation campaigns
# ---------------------------------------------------------------------------
#
# The shard runner behind repro.perf.campaign.SHARD_RUNNERS
# ["conhandleck"]: a budgeted violation campaign draws dependencies
# (with replacement) through the counter-based sampling stream, so any
# shard can regenerate its own slice from (seed, index) alone.  Workers
# re-extract the validated dependency list themselves — the extraction
# is deterministic and disk-cached, so every shard sees the identical
# list in the identical order.

def _shard_dependencies():
    """The deterministic dependency list every shard regenerates."""
    from repro.analysis.extractor import extract_all

    return extract_all().true_dependencies()


def run_shard(spec: Dict[str, object]) -> Dict[str, object]:
    """Violate dependency draws for global indices ``[lo, hi)``.

    Without a budget the campaign is the dependency list itself (config
    index = dependency index); with one, index ``i`` draws dependency
    ``draw_rows(seed, i, i + 1, (range(len(deps)),))[0][0]`` — one lane
    per index, uniform with replacement, the regenerable-anywhere
    property sharding needs — and the shard draws its window a block
    of indices per kernel pass (``iter_rows``).  Outcomes fold into a
    bounded :class:`~repro.perf.campaign.ShardAggregate`: the digest
    covers (outcome, dependency key) per index, failure exemplars are
    the paper's bad-handling cases (corruption verdicts).
    Each dependency is violated, and its outcome, failure text and
    digest tail built, once per shard; later draws of it reuse them.
    """
    from repro.perf.campaign import ShardAggregate, outcome_tail
    from repro.perf.sampling import iter_rows

    lo, hi = int(spec["lo"]), int(spec["hi"])  # type: ignore[arg-type]
    seed = int(spec.get("seed", 2022))  # type: ignore[arg-type]
    budget = spec.get("budget")
    deps = _shard_dependencies()
    if budget is None:
        picks = ((index, (index,)) for index in range(lo, hi))
    else:
        picks = iter_rows(seed, lo, hi, (range(len(deps)),))
    checker = ConHandleCk(
        device_blocks=int(spec.get("device_blocks", 4096)),  # type: ignore[arg-type]
        block_size=int(spec.get("block_size", 4096)))  # type: ignore[arg-type]
    aggregate = ShardAggregate()
    memo: Dict[int, Tuple[Tuple[str, str], Optional[str], bytes]] = {}
    for index, (dep_index,) in picks:
        outcome = memo.get(dep_index)
        if outcome is None:
            dep = deps[dep_index]
            result = checker.violate(dep)
            key = dep.key()
            reached = (result.outcome.value, key)
            failure = (f"{key} — {result.detail}" if result.outcome
                       is ViolationOutcome.CORRUPTION else None)
            outcome = memo[dep_index] = (
                reached, failure, outcome_tail(reached, failure))
        aggregate.add(index, *outcome)
    # Every memo entry was one miss; every other draw was a hit.
    for name, count in (("campaign.outcome.miss", len(memo)),
                        ("campaign.outcome.hit", hi - lo - len(memo))):
        if count:
            aggregate.tally(name, count)
    aggregate.tally("campaign.snapshot.hit", checker._snapshots.hits)
    aggregate.tally("campaign.snapshot.miss", checker._snapshots.misses)
    return aggregate.as_payload()


def sampled_check(dependencies: Sequence[Dependency],
                  seed: int = 2022,
                  budget: Optional[int] = None,
                  shards: int = 1,
                  jobs: int = 1,
                  device_blocks: int = 4096,
                  block_size: int = 4096):
    """Drive a (budgeted) violation campaign in streaming shards.

    Returns ``(CampaignReport, meta)``.  The report's ``reached`` maps
    outcome values to counts (every config also counts its dependency
    key, so per-dependency totals are recoverable); failure exemplars
    are the bad-handling cases.  ``budget=None`` violates each
    dependency exactly once — the classic :meth:`ConHandleCk.check` —
    while a budget scales the campaign to any size via seeded draws.
    """
    from repro.perf.campaign import run_sharded, shard_ranges

    total = len(dependencies) if budget is None else int(budget)
    bump("campaign.sampled", total)
    spec: Dict[str, object] = {
        "tool": "conhandleck", "seed": seed, "budget": budget,
        "device_blocks": device_blocks, "block_size": block_size,
    }
    report = run_sharded("conhandleck", spec, total, shards=shards,
                         jobs=jobs, phase="campaign.violate.sharded")
    meta = {
        "sampler": "deps" if budget is None else "random",
        "seed": seed,
        "budget": budget,
        "total": total,
        "shards": len(shard_ranges(total, shards)),
        "dependencies": len(dependencies),
    }
    return report, meta
