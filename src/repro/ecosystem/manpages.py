"""The manual corpus: structured man-page content for the ecosystem.

ConDocCk (paper §4.2) cross-checks user manuals against the
dependencies extracted from the source code.  This module models the
manuals as structured constraint statements per parameter.  Twelve
documented statements deviate from the code — the documentation
inaccuracies the paper reports finding (§4.3), including its concrete
example: the mke2fs manual not mentioning that ``meta_bg`` and
``resize_inode`` cannot be used together.

The seeded inaccuracies (D1-D12):

==== ======================================================================
D1   meta_bg/resize_inode conflict missing from the mke2fs manual
D2   blocksize range documented as 1024-4096 (code allows up to 65536)
D3   inode_size upper bound (4096) missing
D4   reserved_percent documented as 0-100 (code rejects above 50)
D5   journal_size valid range not documented at all
D6   stripe_width-requires-stride missing
D7   encrypt/casefold conflict missing
D8   commit interval documented as 0-300 (code allows up to 900)
D9   journal_async_commit-requires-journal_checksum missing
D10  noload-requires-read-only missing
D11  -E resize=-requires-resize_inode missing
D12  -G-requires-flex_bg missing
==== ======================================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ManualError


@dataclass(frozen=True)
class DocConstraint:
    """One constraint statement in a manual page.

    ``kind`` is one of 'type', 'range', 'conflicts', 'requires',
    'value', 'behavioral'.  ``partner`` names the other parameter for
    relational kinds ('component.param').
    """

    kind: str
    ctype: Optional[str] = None
    min_value: Optional[int] = None
    max_value: Optional[int] = None
    partner: Optional[str] = None
    relation: Optional[str] = None
    note: str = ""


@dataclass
class ManualEntry:
    """Documentation of one parameter."""

    param: str
    text: str
    constraints: Tuple[DocConstraint, ...] = ()


@dataclass
class ManualPage:
    """One component's manual."""

    component: str
    entries: Dict[str, ManualEntry] = field(default_factory=dict)

    def entry(self, param: str) -> ManualEntry:
        """The entry for ``param``; ManualError when absent."""
        try:
            return self.entries[param]
        except KeyError:
            raise ManualError(
                f"manual for {self.component} has no entry for {param!r}"
            ) from None

    def add(self, param: str, text: str, *constraints: DocConstraint) -> None:
        """Register one parameter's documentation."""
        self.entries[param] = ManualEntry(param, text, tuple(constraints))


def _range(lo: Optional[int], hi: Optional[int]) -> DocConstraint:
    return DocConstraint("range", min_value=lo, max_value=hi)


def _type(ctype: str) -> DocConstraint:
    return DocConstraint("type", ctype=ctype)


def _conflicts(partner: str) -> DocConstraint:
    return DocConstraint("conflicts", partner=partner, relation="conflicts")


def _requires(partner: str) -> DocConstraint:
    return DocConstraint("requires", partner=partner, relation="requires")


def _value(partner: str, relation: str) -> DocConstraint:
    return DocConstraint("value", partner=partner, relation=relation)


def _behavioral(partner: str, note: str = "") -> DocConstraint:
    return DocConstraint("behavioral", partner=partner, note=note)


def build_manual_corpus() -> Dict[str, ManualPage]:
    """Construct the manuals for all ecosystem components."""
    return {
        "mke2fs": _mke2fs_manual(),
        "mount": _mount_manual(),
        "e4defrag": _e4defrag_manual(),
        "resize2fs": _resize2fs_manual(),
        "e2fsck": _e2fsck_manual(),
    }


def _mke2fs_manual() -> ManualPage:
    man = ManualPage("mke2fs")
    man.add("blocksize",
            "-b block-size: Specify the size of blocks in bytes. "
            "Valid values are 1024, 2048 and 4096 bytes per block.",
            _type("int"), _range(1024, 4096))  # D2: real code allows 65536
    man.add("cluster_size",
            "-C cluster-size: Specify the size of clusters in bytes for "
            "filesystems using the bigalloc feature. Must be larger than "
            "the block size.",
            _type("int"), _requires("mke2fs.bigalloc"),
            _value("mke2fs.blocksize", ">"))
    man.add("blocks_per_group",
            "-g blocks-per-group: Specify the number of blocks in a block "
            "group, between 256 and 65528 and a multiple of 8.",
            _type("int"), _range(256, 65528))
    man.add("number_of_groups",
            "-G number-of-groups: Specify the number of block groups packed "
            "together as a flex group (at least 1).",
            _type("int"), _range(1, None))  # D12: no mention of flex_bg
    man.add("inode_ratio",
            "-i bytes-per-inode: Specify the bytes/inode ratio, between "
            "1024 and 4194304 bytes.",
            _type("int"), _range(1024, 4194304))
    man.add("inode_size",
            "-I inode-size: Specify the size of each inode in bytes; must "
            "be a power of 2 of at least 128 bytes and no larger than the "
            "block size.",
            _type("int"),
            _range(128, None),  # D3: max 4096 not documented
            _value("mke2fs.blocksize", "<="))
    man.add("journal_size",
            "-J size=journal-size: Create a journal of the given size. "
            "Requires a journal (-j or -O has_journal).",
            _type("int"),  # D5: the 1024..10240000 range is undocumented
            _requires("mke2fs.has_journal"))
    man.add("reserved_percent",
            "-m reserved-blocks-percentage: Specify the percentage of "
            "blocks reserved for the super-user, between 0 and 100.",
            _type("int"), _range(0, 100))  # D4: code rejects above 50
    man.add("inode_count",
            "-N number-of-inodes: Override the default number of inodes.",
            _type("unsigned long"))
    man.add("fs_size",
            "fs-size: The size of the filesystem in blocks (with an "
            "optional K/M/G/T suffix). At least 64 blocks.",
            _type("unsigned long"), _range(64, None))
    man.add("stride",
            "-E stride=stride-size: Blocks read/written per RAID disk.",
            _type("int"))
    man.add("stripe_width",
            "-E stripe_width=width: Blocks per RAID stripe.",
            _type("int"))  # D6: 'requires stride' missing
    man.add("resize_limit",
            "-E resize=max-online-resize: Reserve space so the block group "
            "descriptor table can grow to this size later.",
            _type("unsigned long"))  # D11: 'requires resize_inode' missing
    man.add("meta_bg",
            "-O meta_bg: Place group descriptors in a meta block group "
            "layout, allowing larger filesystems.")
    # D1: the resize_inode conflict is NOT documented here.
    # D11: the manual does not say -E resize= requires this feature.
    man.add("resize_inode",
            "-O resize_inode: Reserve space for the block group descriptor "
            "table to grow. Enabled by default.")
    man.add("bigalloc",
            "-O bigalloc: Enable cluster-based allocation. Requires the "
            "extent feature.",
            _requires("mke2fs.extent"))
    man.add("sparse_super2",
            "-O sparse_super2: Keep only two backup superblocks. Cannot be "
            "combined with sparse_super.",
            _conflicts("mke2fs.sparse_super"))
    man.add("metadata_csum",
            "-O metadata_csum: Checksum all metadata. Cannot be combined "
            "with uninit_bg.",
            _conflicts("mke2fs.uninit_bg"))
    man.add("journal_dev",
            "-O journal_dev: Create an external journal device instead of a "
            "filesystem. Cannot itself carry has_journal.",
            _conflicts("mke2fs.has_journal"))
    man.add("encrypt",
            "-O encrypt: Enable file-system level encryption.")
    # D7: the casefold conflict is NOT documented.
    man.add("inline_data",
            "-O inline_data: Store small files in the inode. Requires "
            "ext_attr.",
            _requires("mke2fs.ext_attr"))
    man.add("huge_file",
            "-O huge_file: Allow file sizes in units of logical blocks. "
            "Requires large_file.",
            _requires("mke2fs.large_file"))
    man.add("dir_nlink",
            "-O dir_nlink: Allow more than 65000 subdirectories. Requires "
            "dir_index.",
            _requires("mke2fs.dir_index"))
    man.add("ea_inode",
            "-O ea_inode: Store large extended attributes in inodes. "
            "Requires ext_attr.",
            _requires("mke2fs.ext_attr"))
    man.add("large_dir",
            "-O large_dir: Allow 3-level hashed directory trees. Requires "
            "dir_index.",
            _requires("mke2fs.dir_index"))
    man.add("project",
            "-O project: Enable project quota tracking. Requires quota.",
            _requires("mke2fs.quota"))
    man.add("verity",
            "-O verity: Enable fs-verity. Requires the extent feature.",
            _requires("mke2fs.extent"))
    return man


def _mount_manual() -> ManualPage:
    man = ManualPage("mount")
    man.add("commit",
            "commit=nrsec: Sync all data and metadata every nrsec seconds, "
            "between 0 and 300.",
            _type("int"), _range(0, 300))  # D8: code allows up to 900
    man.add("resuid",
            "resuid=n: The user id that may use reserved blocks.",
            _type("int"))
    man.add("resgid",
            "resgid=n: The group id that may use reserved blocks.",
            _type("int"))
    man.add("journal_ioprio",
            "journal_ioprio=prio: I/O priority for journal I/O, between 0 "
            "(highest) and 7 (lowest).",
            _type("int"), _range(0, 7))
    man.add("stripe",
            "stripe=n: Number of blocks mballoc tries to align allocations "
            "to.",
            _type("int"))
    man.add("barrier",
            "barrier=0|1: Disable or enable write barriers in jbd2.",
            _range(0, 1))
    man.add("auto_da_alloc",
            "auto_da_alloc=0|1: Control the replace-via-rename allocation "
            "heuristic.",
            _range(0, 1))
    man.add("max_batch_time",
            "max_batch_time=usec: Maximum time to wait batching synchronous "
            "writes; non-negative.",
            _range(0, None),
            _value("mount.min_batch_time", ">="))
    man.add("min_batch_time",
            "min_batch_time=usec: Minimum batching time; non-negative and "
            "no larger than max_batch_time.",
            _range(0, None),
            _value("mount.max_batch_time", "<="))
    man.add("journal_async_commit",
            "journal_async_commit: Commit blocks without waiting for the "
            "descriptor blocks.")
    # D9: the journal_checksum requirement is NOT documented.
    man.add("journal_checksum",
            "journal_checksum: Enable checksumming of journal transactions.")
    man.add("noload",
            "noload: Do not load the journal on mounting.")
    # D10: the read-only requirement is NOT documented.
    man.add("dax",
            "dax: Direct access to persistent memory, bypassing the page "
            "cache. Incompatible with data=journal.",
            _conflicts("mount.data"))
    man.add("data",
            "data=journal|ordered|writeback: Journaling mode for file data. "
            "data=journal disables delayed allocation and is incompatible "
            "with dax.",
            _conflicts("mount.dax"), _conflicts("mount.delalloc"))
    man.add("delalloc",
            "delalloc: Defer block allocation until writeback. Forced off "
            "by data=journal.",
            _conflicts("mount.data"))
    man.add("ro", "ro: Mount the filesystem read-only.")
    return man


def _e4defrag_manual() -> ManualPage:
    man = ManualPage("e4defrag")
    man.add("check_only",
            "-c: Report the fragmentation score without defragmenting.")
    man.add("verbose", "-v: Print per-file fragmentation details.")
    man.add("target",
            "target: A regular file, directory, or device. Only extent-"
            "mapped files can be defragmented.",
            _behavioral("mke2fs.extent", "requires extent-mapped files"))
    return man


def _resize2fs_manual() -> ManualPage:
    man = ManualPage("resize2fs")
    man.add("size",
            "size: The requested size of the filesystem (blocks, or with a "
            "K/M/G/T suffix). Growing requires free reserved descriptor "
            "space (resize_inode / -E resize=) and cannot cross 2^32 blocks "
            "without the 64bit feature. Bounded by the mkfs-time size when "
            "shrinking below the minimum.",
            _type("unsigned long"),
            _behavioral("mke2fs.fs_size", "relative to the mkfs-time size"),
            _behavioral("mke2fs.resize_inode", "growth needs resize_inode"),
            _behavioral("mke2fs.resize_limit", "growth bounded by -E resize="),
            ),
    man.add("enable_64bit",
            "-b: Convert the filesystem to 64-bit block numbers. Fails when "
            "the filesystem already has the 64bit feature.",
            _conflicts("mke2fs.64bit"))
    man.add("disable_64bit",
            "-s: Convert the filesystem to 32-bit block numbers.")
    man.add("minimize",
            "-M: Shrink the filesystem to the minimum possible size.")
    man.add("print_min_size",
            "-P: Print the estimated minimum size and exit.")
    man.add("force", "-f: Override some safety checks.")
    man.add("progress", "-p: Print a progress bar per pass.")
    man.add("stride", "-S RAID-stride: Heuristic hint for block placement.",
            _type("int"))
    man.add("sparse_super2_note",
            "NOTES: On filesystems with the sparse_super2 feature, resizing "
            "moves the second backup superblock to the new last group.",
            _behavioral("mke2fs.sparse_super2", "backup relocation on resize"))
    return man


def _e2fsck_manual() -> ManualPage:
    man = ManualPage("e2fsck")
    man.add("preen_mode",
            "-p: Automatically repair without questions. Exclusive with -n "
            "and -y.",
            _conflicts("e2fsck.no_changes"), _conflicts("e2fsck.assume_yes"))
    man.add("assume_yes",
            "-y: Assume an answer of 'yes' to all questions. Exclusive with "
            "-n and -p.",
            _conflicts("e2fsck.no_changes"))
    man.add("no_changes",
            "-n: Open the filesystem read-only; assume 'no' everywhere. "
            "Exclusive with -p/-y; incompatible with -D.",
            _conflicts("e2fsck.assume_yes"),
            _conflicts("e2fsck.optimize_dirs"))
    man.add("superblock",
            "-b superblock: Use an alternative superblock. Backup locations "
            "depend on the mkfs-time sparse_super layout (8193 for 1k "
            "blocks, 32768 for 4k blocks).",
            _type("int"),
            _behavioral("mke2fs.sparse_super", "backup placement"))
    man.add("blocksize",
            "-B blocksize: Assume this blocksize when searching for the "
            "superblock. Only useful together with -b.",
            _type("int"), _requires("e2fsck.superblock"))
    man.add("force", "-f: Force checking even when the filesystem seems clean.")
    man.add("optimize_dirs",
            "-D: Optimize directories. Incompatible with -n.",
            _conflicts("e2fsck.no_changes"))
    return man


def render_page(page: ManualPage) -> str:
    """Render one manual page as man-style text."""
    lines = [f"{page.component.upper()}(8)", "", "OPTIONS"]
    for entry in page.entries.values():
        lines.append(f"  {entry.text}")
        lines.append("")
    return "\n".join(lines)
