"""Simulated ``dumpe2fs`` — read-only file-system inspection.

Prints superblock and block-group information the way the real tool
does.  Purely diagnostic: the examples and ConHandleCk use it to show
*what* a configuration wrote to disk, and the tests use it as an
independent read path over the image layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import UsageError
from repro.fsimage.blockdev import BlockDevice
from repro.fsimage.image import Ext4Image, compute_group_layout, group_has_super
from repro.fsimage.layout import STATE_CLEAN
from repro.ecosystem.featureset import FeatureSet

COMPONENT = "dumpe2fs"


@dataclass
class Dumpe2fsConfig:
    """Parsed dumpe2fs parameters."""

    header_only: bool = False  # -h
    blocks_only: bool = False  # -b style summary

    @classmethod
    def from_args(cls, args: List[str]) -> "Dumpe2fsConfig":
        """Parse a dumpe2fs-style argument vector."""
        cfg = cls()
        for arg in args:
            if arg == "-h":
                cfg.header_only = True
            elif arg == "-b":
                cfg.blocks_only = True
            else:
                raise UsageError(COMPONENT, f"unknown option {arg}")
        return cfg


@dataclass
class GroupInfo:
    """One block group's summary."""

    group: int
    first_block: int
    last_block: int
    has_super: bool
    free_blocks: int
    free_inodes: int


@dataclass
class DumpReport:
    """Structured dump of one image."""

    blocks_count: int = 0
    inodes_count: int = 0
    free_blocks: int = 0
    free_inodes: int = 0
    reserved_blocks: int = 0
    block_size: int = 0
    inode_size: int = 0
    blocks_per_group: int = 0
    state_clean: bool = True
    volume_name: str = ""
    features: List[str] = field(default_factory=list)
    backup_groups: List[int] = field(default_factory=list)
    groups: List[GroupInfo] = field(default_factory=list)

    def render(self) -> str:
        """Render the dump as dumpe2fs-style text."""
        lines = [
            f"Filesystem volume name:   {self.volume_name or '<none>'}",
            f"Filesystem state:         {'clean' if self.state_clean else 'not clean'}",
            f"Filesystem features:      {' '.join(self.features) or '(none)'}",
            f"Block size:               {self.block_size}",
            f"Inode size:               {self.inode_size}",
            f"Block count:              {self.blocks_count}",
            f"Inode count:              {self.inodes_count}",
            f"Free blocks:              {self.free_blocks}",
            f"Reserved block count:     {self.reserved_blocks}",
            f"Free inodes:              {self.free_inodes}",
            f"Blocks per group:         {self.blocks_per_group}",
            f"Backup superblock groups: "
            f"{', '.join(map(str, self.backup_groups)) or '(none)'}",
        ]
        for info in self.groups:
            suffix = " [has superblock backup]" if info.has_super and info.group else ""
            lines.append(
                f"Group {info.group}: blocks {info.first_block}-{info.last_block}, "
                f"{info.free_blocks} free blocks, {info.free_inodes} free inodes"
                f"{suffix}"
            )
        return "\n".join(lines)


class Dumpe2fs:
    """The read-only inspector."""

    def __init__(self, config: Optional[Dumpe2fsConfig] = None) -> None:
        self.config = config or Dumpe2fsConfig()

    def run(self, dev: BlockDevice) -> DumpReport:
        """Read and summarize the image; raises BadSuperblock when invalid."""
        image = Ext4Image.open(dev)
        sb = image.sb
        features = FeatureSet.from_words(
            sb.s_feature_compat, sb.s_feature_incompat, sb.s_feature_ro_compat
        )
        report = DumpReport(
            blocks_count=sb.s_blocks_count,
            inodes_count=sb.s_inodes_count,
            free_blocks=sb.s_free_blocks_count,
            free_inodes=sb.s_free_inodes_count,
            reserved_blocks=sb.s_r_blocks_count,
            block_size=sb.block_size,
            inode_size=sb.s_inode_size,
            blocks_per_group=sb.s_blocks_per_group,
            state_clean=bool(sb.s_state & STATE_CLEAN),
            volume_name=sb.s_volume_name,
            features=sorted(features),
            backup_groups=[g for g in range(1, sb.group_count)
                           if group_has_super(sb, g)],
        )
        if self.config.header_only:
            return report
        for g in range(sb.group_count):
            layout = compute_group_layout(sb, g)
            report.groups.append(GroupInfo(
                group=g,
                first_block=layout.first_block,
                last_block=layout.first_block + layout.nblocks - 1,
                has_super=layout.has_super,
                free_blocks=image.group_descs[g].bg_free_blocks_count,
                free_inodes=image.group_descs[g].bg_free_inodes_count,
            ))
        return report
