"""False-negative evaluation — more §6 future work, implemented.

The paper evaluates only false positives ("we plan to ... evaluate with
more metrics (e.g., false negatives, overhead)").  Because our corpus
is modelled, its full dependency content is known, so recall can be
measured: the ground truth is the manually validated union of every
dependency encoded in the corpus — the 59 the intra-procedural
prototype finds plus the ones it provably misses:

- two resize2fs flag conflicts living in a function outside the
  pre-selected lists (``check_flag_conflicts``),
- the e2fsck -p/-n/-y exclusion hidden behind a helper call,
- the mount-time CCDs reachable only through the kernel's
  ``ext4_sb_info`` copies (dax vs. block size, data=journal vs.
  has_journal, cluster-ratio vs. block size),
- e4defrag's extent dependency hidden behind the ioctl boundary.

:func:`recall_report` measures both engines against this truth; the
inter-procedural extension recovers most of the misses, and the ioctl/
helper-call items remain — the honest residue of static analysis at a
syscall boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.extractor import ExtractionReport, extract_all
from repro.analysis.groundtruth import is_false_positive
from repro.analysis.model import Category


@dataclass(frozen=True)
class KnownMiss:
    """One dependency the intra-procedural prototype cannot extract."""

    description: str
    category: Category
    #: extraction keys that count as having found this dependency
    #: (classification may shift between engines, hence alternatives)
    keys: Tuple[str, ...]
    reason: str  # why intra misses it


#: The corpus-encoded dependencies beyond the prototype's reach.
KNOWN_MISSES: Tuple[KnownMiss, ...] = (
    KnownMiss(
        "resize2fs -b and -s cannot be used together",
        Category.CPD,
        ("CPD.control:resize2fs.disable_64bit,resize2fs.enable_64bit:conflicts",),
        "guard lives outside the pre-selected function lists",
    ),
    KnownMiss(
        "resize2fs -M and -P cannot be used together",
        Category.CPD,
        ("CPD.control:resize2fs.minimize,resize2fs.print_min_size:conflicts",),
        "guard lives outside the pre-selected function lists",
    ),
    KnownMiss(
        "e2fsck accepts only one of -p/-a, -n, -y",
        Category.CPD,
        ("CPD.control:e2fsck.assume_yes,e2fsck.no_changes:conflicts",),
        "exclusion counted inside a helper with no corpus body",
    ),
    KnownMiss(
        "mount -o dax requires the mkfs-time block size to equal the page size",
        Category.CCD,
        ("CCD.behavioral:mke2fs.blocksize,mount.dax@s_log_block_size",),
        "kernel validates an ext4_sb_info copy filled by ext4_load_super",
    ),
    KnownMiss(
        "mount -o data=journal requires a journal created at mkfs time",
        Category.CCD,
        ("CCD.behavioral:mke2fs.has_journal,mount.data@s_feature_compat",),
        "kernel validates an ext4_sb_info copy filled by ext4_load_super",
    ),
    KnownMiss(
        "the kernel's cluster-ratio check depends on the mkfs-time block size",
        Category.CCD,
        ("CCD.behavioral:ext4.*,mke2fs.blocksize@s_log_cluster_size",
         "CCD.behavioral:ext4.*,mke2fs.blocksize@s_log_block_size"),
        "kernel validates an ext4_sb_info copy filled by ext4_load_super",
    ),
    KnownMiss(
        "e4defrag only works on extent-mapped files (mke2fs -O extent)",
        Category.CCD,
        ("CCD.behavioral:e4defrag.*,mke2fs.extent@s_feature_incompat",),
        "dependency crosses the EXT4_IOC_MOVE_EXT ioctl boundary",
    ),
)


@dataclass
class TruthEntry:
    """One ground-truth dependency and which engines found it."""

    description: str
    category: Category
    found_intra: bool
    found_interproc: bool
    reason_if_missed: str = ""


@dataclass
class RecallReport:
    """Recall of both engines against the corpus ground truth."""

    entries: List[TruthEntry] = dc_field(default_factory=list)

    def _by(self, category: Optional[Category] = None) -> List[TruthEntry]:
        return [e for e in self.entries
                if category is None or e.category is category]

    def truth_total(self, category: Optional[Category] = None) -> int:
        """Ground-truth dependency count (optionally per category)."""
        return len(self._by(category))

    def found_intra(self, category: Optional[Category] = None) -> int:
        """Truth entries the intra-procedural engine found."""
        return sum(1 for e in self._by(category) if e.found_intra)

    def found_interproc(self, category: Optional[Category] = None) -> int:
        """Truth entries the inter-procedural engine found."""
        return sum(1 for e in self._by(category) if e.found_interproc)

    def recall_intra(self, category: Optional[Category] = None) -> float:
        """Intra-procedural recall against the ground truth."""
        total = self.truth_total(category)
        return self.found_intra(category) / total if total else 1.0

    def recall_interproc(self, category: Optional[Category] = None) -> float:
        """Inter-procedural recall against the ground truth."""
        total = self.truth_total(category)
        return self.found_interproc(category) / total if total else 1.0

    def still_missed(self) -> List[TruthEntry]:
        """Truth entries neither engine extracts."""
        return [e for e in self.entries if not e.found_interproc]

    def render(self) -> str:
        """Render the recall table as printable text."""
        lines = ["False-negative evaluation (corpus ground truth)",
                 f"{'category':>10s} {'truth':>6s} {'intra':>6s} "
                 f"{'inter':>6s} {'recall(intra)':>14s} {'recall(inter)':>14s}"]
        for category in (Category.SD, Category.CPD, Category.CCD):
            lines.append(
                f"{category.value:>10s} {self.truth_total(category):>6d} "
                f"{self.found_intra(category):>6d} "
                f"{self.found_interproc(category):>6d} "
                f"{self.recall_intra(category):>13.1%} "
                f"{self.recall_interproc(category):>13.1%}"
            )
        lines.append(
            f"{'total':>10s} {self.truth_total():>6d} {self.found_intra():>6d} "
            f"{self.found_interproc():>6d} {self.recall_intra():>13.1%} "
            f"{self.recall_interproc():>13.1%}"
        )
        missed = self.still_missed()
        if missed:
            lines.append("still missed by both engines:")
            for entry in missed:
                lines.append(f"  - {entry.description} ({entry.reason_if_missed})")
        return "\n".join(lines)


def recall_report(intra: Optional[ExtractionReport] = None,
                  interproc: Optional[ExtractionReport] = None) -> RecallReport:
    """Measure recall of both engines against the corpus ground truth."""
    intra = intra if intra is not None else extract_all()
    if interproc is None:
        from repro.analysis.interproc import extract_interprocedural

        interproc = extract_interprocedural()
    intra_keys = {d.key() for d in intra.union if not is_false_positive(d)}
    inter_keys = {d.key() for d in interproc.union if not is_false_positive(d)}

    report = RecallReport()
    # Every validated intra finding is ground truth by construction.
    for dep in intra.true_dependencies():
        report.entries.append(TruthEntry(
            description=dep.describe(),
            category=dep.category,
            found_intra=True,
            found_interproc=_any_variant_found(dep.key(), inter_keys),
        ))
    for miss in KNOWN_MISSES:
        found_inter = any(k in inter_keys for k in miss.keys)
        report.entries.append(TruthEntry(
            description=miss.description,
            category=miss.category,
            found_intra=any(k in intra_keys for k in miss.keys),
            found_interproc=found_inter,
            reason_if_missed=miss.reason,
        ))
    return report


#: Classification shifts between the engines: an intra key and the
#: interproc key that denotes the same dependency.
_KEY_VARIANTS: Dict[str, Tuple[str, ...]] = {
    "CCD.control:mke2fs.64bit,resize2fs.enable_64bit:conflicts@s_feature_incompat": (
        "CCD.behavioral:mke2fs.64bit,resize2fs.64bit,resize2fs.enable_64bit@s_feature_incompat",
    ),
}


def _any_variant_found(key: str, key_set: Set[str]) -> bool:
    if key in key_set:
        return True
    return any(v in key_set for v in _KEY_VARIANTS.get(key, ()))
