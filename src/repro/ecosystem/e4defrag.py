"""Simulated ``e4defrag`` — the online-stage utility (paper Figure 2b).

e4defrag operates on a *mounted* file system and only works on
extent-mapped files: its behaviour depends on the ``extent`` feature
chosen at mke2fs time — a cross-component *behavioral* dependency in
the paper's taxonomy (e4defrag's behaviour depends on a mke2fs
parameter, bridged through ``s_feature_incompat``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import AllocationError, NotMountedError, UsageError
from repro.ecosystem.mount import Ext4Mount

COMPONENT = "e4defrag"


@dataclass
class E4defragConfig:
    """Parsed e4defrag parameters."""

    check_only: bool = False  # -c
    verbose: bool = False  # -v
    target: Optional[int] = None  # inode number; None = whole file system

    @classmethod
    def from_args(cls, args: List[str]) -> "E4defragConfig":
        """Parse an e4defrag-style argument vector."""
        cfg = cls()
        for arg in args:
            if arg == "-c":
                cfg.check_only = True
            elif arg == "-v":
                cfg.verbose = True
            elif arg.startswith("-"):
                raise UsageError(COMPONENT, f"unknown option {arg}")
            else:
                try:
                    cfg.target = int(arg)
                except ValueError:
                    raise UsageError(COMPONENT, f"invalid target inode {arg!r}") from None
        return cfg


@dataclass
class DefragReport:
    """Per-run summary."""

    examined: int = 0
    already_ideal: int = 0
    defragmented: int = 0
    failed: int = 0
    fragments_before: int = 0
    fragments_after: int = 0
    details: List[Tuple[int, int, int]] = None  # (ino, before, after)

    def __post_init__(self) -> None:
        if self.details is None:
            self.details = []

    @property
    def score(self) -> float:
        """Average fragments per examined file after the run (1.0 = ideal)."""
        if not self.examined:
            return 1.0
        return self.fragments_after / self.examined


class E4defrag:
    """The online defragmenter."""

    def __init__(self, config: Optional[E4defragConfig] = None) -> None:
        self.config = config or E4defragConfig()
        self.messages: List[str] = []

    def run(self, mount: Ext4Mount) -> DefragReport:
        """Defragment (or with -c, only measure) the mounted file system.

        Raises NotMountedError on an unmounted handle and UsageError when
        the file system lacks the extent feature — mirroring the real
        tool's "ext4 defragmentation for <file> failed: Operation not
        supported" on non-extent files.
        """
        if not mount.mounted:
            raise NotMountedError("e4defrag requires a mounted file system")
        # CCD behavioral: whether e4defrag can run at all was decided by
        # mke2fs -O extent when the file system was created.
        if "extent" not in mount.features:
            raise UsageError(
                COMPONENT,
                "file system does not support the extent feature; e4defrag cannot run",
            )
        if not self.config.check_only and mount.config.ro:
            raise UsageError(COMPONENT, "cannot defragment a read-only mount")
        report = DefragReport()
        for ino, inode in self._iter_targets(mount):
            report.examined += 1
            before = inode.fragment_count()
            report.fragments_before += before
            if before <= 1:
                report.already_ideal += 1
                report.fragments_after += before
                report.details.append((ino, before, before))
                continue
            if self.config.check_only:
                report.fragments_after += before
                report.details.append((ino, before, before))
                continue
            after = self._defragment_one(mount, ino)
            if after < before:
                report.defragmented += 1
            else:
                report.failed += 1
            report.fragments_after += after
            report.details.append((ino, before, after))
            if self.config.verbose:
                self.messages.append(f"inode {ino}: {before} -> {after} extents")
        return report

    def _iter_targets(self, mount: Ext4Mount):
        from repro.fsimage.layout import JOURNAL_INO, ROOT_INO

        for ino, inode in mount.image.iter_used_inodes():
            if ino in (ROOT_INO, JOURNAL_INO):
                continue
            if not inode.is_regular:
                continue
            if self.config.target is not None and ino != self.config.target:
                continue
            yield ino, inode

    def _defragment_one(self, mount: Ext4Mount, ino: int) -> int:
        """Rewrite one file into a single contiguous extent when possible."""
        image = mount.image
        inode = image.read_inode(ino)
        old_blocks = inode.data_blocks()
        try:
            new_blocks = image.allocate_blocks(len(old_blocks), contiguous=True)
        except AllocationError:
            self.messages.append(f"inode {ino}: insufficient contiguous space")
            return inode.fragment_count()
        for old, new in zip(old_blocks, new_blocks):
            image.dev.write_block(new, image.dev.read_block(old))
        for old in old_blocks:
            image.free_block(old)
        inode.set_extents([(new_blocks[0], len(new_blocks))])
        image.write_inode(ino, inode)
        image.flush()
        return 1
