"""Simulated ``e2fsck`` — the offline consistency checker (Figure 2c).

Implements the pass structure of the real checker over the simulated
image:

- pass 0: superblock sanity (magic, geometry vs. device, state),
- pass 1: inode scan — block pointers in range, no multiply-claimed
  blocks, inode bitmap consistency,
- pass 5: bitmap/free-count cross-check — this is the pass that catches
  the Figure-1 resize2fs corruption (group descriptor and superblock
  free-block counts disagreeing with the block bitmaps).

Configuration dependencies modelled here include the mutual exclusion
of ``-p``/``-n``/``-y`` (cross-parameter) and the backup-superblock
location for ``-b`` depending on mke2fs's ``sparse_super``/
``sparse_super2`` placement (cross-component).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import AlreadyMountedError, BadSuperblock, UsageError
from repro.fsimage.blockdev import BlockDevice
from repro.fsimage.image import (
    COMPAT_SPARSE_SUPER2,
    Ext4Image,
    group_has_super,
)
from repro.fsimage.layout import (
    EXT2_MAGIC,
    ROOT_INO,
    STATE_CLEAN,
    Superblock,
    SUPERBLOCK_OFFSET,
    SUPERBLOCK_SIZE,
)

COMPONENT = "e2fsck"

#: Exit codes, matching e2fsck(8).
EXIT_OK = 0
EXIT_FIXED = 1
EXIT_UNFIXED = 4
EXIT_OP_ERROR = 8
EXIT_USAGE = 16


@dataclass
class E2fsckConfig:
    """Parsed e2fsck parameters."""

    preen: bool = False  # -p / -a
    assume_yes: bool = False  # -y
    no_changes: bool = False  # -n
    force: bool = False  # -f
    superblock: Optional[int] = None  # -b
    blocksize: Optional[int] = None  # -B
    optimize_dirs: bool = False  # -D
    verbose: bool = False  # -v
    journal_only: bool = False  # -E journal_only
    fragcheck: bool = False  # -E fragcheck

    @classmethod
    def from_args(cls, args: List[str]) -> "E2fsckConfig":
        """Parse an e2fsck-style argument vector."""
        cfg = cls()
        i = 0
        while i < len(args):
            arg = args[i]
            if arg in ("-p", "-a"):
                cfg.preen = True
            elif arg == "-y":
                cfg.assume_yes = True
            elif arg == "-n":
                cfg.no_changes = True
            elif arg == "-f":
                cfg.force = True
            elif arg == "-D":
                cfg.optimize_dirs = True
            elif arg == "-v":
                cfg.verbose = True
            elif arg == "-b":
                i += 1
                if i >= len(args):
                    raise UsageError(COMPONENT, "-b requires a block number")
                cfg.superblock = int(args[i])
            elif arg == "-B":
                i += 1
                if i >= len(args):
                    raise UsageError(COMPONENT, "-B requires a block size")
                cfg.blocksize = int(args[i])
            elif arg == "-E":
                i += 1
                if i >= len(args):
                    raise UsageError(COMPONENT, "-E requires options")
                for token in args[i].split(","):
                    if token == "journal_only":
                        cfg.journal_only = True
                    elif token == "fragcheck":
                        cfg.fragcheck = True
                    else:
                        raise UsageError(COMPONENT, f"unknown extended option {token!r}")
            elif arg.startswith("-"):
                raise UsageError(COMPONENT, f"unknown option {arg}")
            i += 1
        return cfg


@dataclass
class FsckProblem:
    """One problem found during a check."""

    pass_no: int
    code: str
    message: str
    fixed: bool = False
    context: Optional[Dict[str, object]] = None  # structured fix inputs


@dataclass
class FsckResult:
    """Outcome of one e2fsck run."""

    exit_code: int
    clean_skip: bool
    problems: List[FsckProblem] = field(default_factory=list)
    messages: List[str] = field(default_factory=list)

    @property
    def is_clean(self) -> bool:
        """True when the check found nothing."""
        return self.exit_code == EXIT_OK and not self.problems


class E2fsck:
    """The offline checker."""

    def __init__(self, config: Optional[E2fsckConfig] = None) -> None:
        self.config = config or E2fsckConfig()

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def run(self, dev: BlockDevice) -> FsckResult:
        """Check (and optionally repair) the file system on ``dev``."""
        cfg = self.config
        if getattr(dev, "ext4_mounted", False):
            raise AlreadyMountedError(f"{COMPONENT}: device is mounted; unmount first")
        # CPD: only one of -p, -n, -y may be specified (real e2fsck error).
        mode_flags = sum([cfg.preen, cfg.assume_yes, cfg.no_changes])
        if mode_flags > 1:
            raise UsageError(COMPONENT, "only one of the options -p/-a, -n or -y may be specified")
        # CPD: -D rewrites directories, impossible under -n.
        if cfg.optimize_dirs and cfg.no_changes:
            raise UsageError(COMPONENT, "the -n and -D options are incompatible")
        # CPD: -B is only meaningful together with -b.
        if cfg.blocksize is not None and cfg.superblock is None:
            raise UsageError(COMPONENT, "-B requires -b")

        result = FsckResult(exit_code=EXIT_OK, clean_skip=False)
        image = self._open_image(dev, result)
        if image is None:
            result.exit_code = EXIT_OP_ERROR
            return result

        sb = image.sb
        if (sb.s_state & STATE_CLEAN) and not cfg.force and cfg.superblock is None:
            result.clean_skip = True
            result.messages.append("clean; skipping full check (use -f to force)")
            return result

        self._pass0(image, result)
        block_owners = self._pass1(image, result)
        self._pass2(image, result)
        self._pass5(image, result, block_owners)

        can_fix = (cfg.assume_yes or cfg.preen) and not cfg.no_changes
        if can_fix and any(not p.fixed for p in result.problems):
            self._apply_fixes(image, result)
        if result.problems:
            unfixed = [p for p in result.problems if not p.fixed]
            result.exit_code = EXIT_UNFIXED if unfixed else EXIT_FIXED
        if can_fix and not any(not p.fixed for p in result.problems):
            sb.s_state |= STATE_CLEAN
            image.flush()
        return result

    # ------------------------------------------------------------------
    # superblock acquisition (primary or -b backup)
    # ------------------------------------------------------------------

    def _open_image(self, dev: BlockDevice, result: FsckResult) -> Optional[Ext4Image]:
        cfg = self.config
        if cfg.superblock is None:
            try:
                return Ext4Image.open(dev)
            except BadSuperblock as exc:
                result.messages.append(f"bad primary superblock: {exc}")
                return None
        # -b: read a backup superblock. Its location depends on the
        # mkfs-time layout (sparse_super/sparse_super2) — a cross-
        # component dependency between e2fsck -b and mke2fs features.
        blocksize = cfg.blocksize or dev.block_size
        if blocksize != dev.block_size:
            result.messages.append(
                f"-B {blocksize} does not match device block size {dev.block_size}"
            )
            return None
        try:
            raw = dev.read_block(cfg.superblock)
            backup = Superblock.unpack(raw[:SUPERBLOCK_SIZE])
        except Exception as exc:  # noqa: BLE001 - mirrors e2fsck's catch-all
            result.messages.append(f"cannot read backup superblock at {cfg.superblock}: {exc}")
            return None
        result.messages.append(f"using backup superblock at block {cfg.superblock}")
        # Restore the primary from the backup, as e2fsck -b does on fix.
        if not cfg.no_changes:
            dev.write_bytes(SUPERBLOCK_OFFSET, backup.pack())
        try:
            return Ext4Image.open(dev)
        except BadSuperblock as exc:
            result.messages.append(f"backup superblock also invalid: {exc}")
            return None

    def backup_superblock_locations(self, image: Ext4Image) -> List[int]:
        """Block numbers of all backup superblocks (for -b guidance)."""
        sb = image.sb
        return [
            sb.group_first_block(g)
            for g in range(1, sb.group_count)
            if group_has_super(sb, g)
        ]

    # ------------------------------------------------------------------
    # passes
    # ------------------------------------------------------------------

    def _pass0(self, image: Ext4Image, result: FsckResult) -> None:
        sb = image.sb
        if sb.s_magic != EXT2_MAGIC:
            result.problems.append(FsckProblem(0, "SB_MAGIC", "bad superblock magic"))
        if sb.s_blocks_count > image.dev.num_blocks:
            result.problems.append(FsckProblem(
                0, "SB_SIZE",
                f"superblock block count {sb.s_blocks_count} exceeds device "
                f"{image.dev.num_blocks}"))
        if sb.s_inodes_count != sb.s_inodes_per_group * sb.group_count:
            result.problems.append(FsckProblem(
                0, "SB_INODES",
                f"inode count {sb.s_inodes_count} inconsistent with "
                f"{sb.group_count} groups of {sb.s_inodes_per_group}"))
        if not sb.s_state & STATE_CLEAN:
            result.messages.append("filesystem was not cleanly unmounted")
        if sb.s_feature_compat & COMPAT_SPARSE_SUPER2:
            for g in sb.s_backup_bgs:
                if g and g >= sb.group_count:
                    result.problems.append(FsckProblem(
                        0, "SB_BACKUP_BGS",
                        f"sparse_super2 backup group {g} beyond last group "
                        f"{sb.group_count - 1}"))

    def _pass1(self, image: Ext4Image, result: FsckResult) -> Dict[int, List[int]]:
        """Scan inodes; returns block -> owning inodes map."""
        sb = image.sb
        owners: Dict[int, List[int]] = {}
        for ino, inode in image.iter_used_inodes():
            for blockno in inode.data_blocks():
                if blockno < sb.s_first_data_block or blockno >= sb.s_blocks_count:
                    result.problems.append(FsckProblem(
                        1, "BLOCK_RANGE",
                        f"inode {ino} references out-of-range block {blockno}"))
                    continue
                owners.setdefault(blockno, []).append(ino)
                g, idx = image._locate_block(blockno)
                if not image.block_bitmaps[g].test(idx):
                    result.problems.append(FsckProblem(
                        1, "BLOCK_UNMARKED",
                        f"inode {ino} uses block {blockno} not marked in bitmap"))
        for blockno, inos in owners.items():
            if len(inos) > 1:
                result.problems.append(FsckProblem(
                    1, "BLOCK_SHARED",
                    f"block {blockno} claimed by multiple inodes {sorted(inos)}"))
        try:
            root = image.read_inode(ROOT_INO)
            if not root.is_directory:
                result.problems.append(FsckProblem(
                    2, "ROOT_NOT_DIR", "root inode is not a directory"))
        except Exception as exc:  # noqa: BLE001
            result.problems.append(FsckProblem(2, "ROOT_BAD", f"cannot read root inode: {exc}"))
        if self.config.fragcheck:
            for ino, inode in image.iter_used_inodes():
                frags = inode.fragment_count()
                if frags > 1:
                    result.messages.append(f"inode {ino} has {frags} fragments")
        return owners

    def _pass2(self, image: Ext4Image, result: FsckResult) -> None:
        """Directory structure: entry sanity, file types, link counts."""
        from repro.errors import ImageError
        from repro.fsimage.dirent import FT_DIR, FT_REG_FILE, FT_UNKNOWN
        from repro.fsimage.dirtree import DirectoryTree

        sb = image.sb
        tree = DirectoryTree(image)
        refs: Dict[int, int] = {}
        for dir_ino, inode in image.iter_used_inodes():
            if not inode.is_directory:
                continue
            try:
                entries = tree.entries(dir_ino)
            except ImageError as exc:
                result.problems.append(FsckProblem(
                    2, "DIR_CORRUPT",
                    f"directory inode {dir_ino} is corrupted: {exc}"))
                continue
            for entry in entries:
                if entry.inode < 1 or entry.inode > sb.s_inodes_count:
                    result.problems.append(FsckProblem(
                        2, "DIRENT_BAD_INO",
                        f"entry '{entry.name}' in directory {dir_ino} "
                        f"references invalid inode {entry.inode}",
                        context={"dir": dir_ino, "name": entry.name}))
                    continue
                target = image.read_inode(entry.inode)
                if not target.in_use:
                    result.problems.append(FsckProblem(
                        2, "DIRENT_UNUSED_INO",
                        f"entry '{entry.name}' in directory {dir_ino} "
                        f"references deleted inode {entry.inode}",
                        context={"dir": dir_ino, "name": entry.name}))
                    continue
                refs[entry.inode] = refs.get(entry.inode, 0) + 1
                expected = FT_DIR if target.is_directory else FT_REG_FILE
                if tree.filetype_enabled and entry.file_type != expected:
                    result.problems.append(FsckProblem(
                        2, "DIRENT_BAD_TYPE",
                        f"entry '{entry.name}' in directory {dir_ino} has "
                        f"wrong file type {entry.file_type} (expected {expected})",
                        context={"dir": dir_ino, "name": entry.name,
                                 "ftype": expected}))
                elif not tree.filetype_enabled and entry.file_type != FT_UNKNOWN:
                    # filetype data present although mke2fs never enabled
                    # the feature: a cross-component inconsistency.
                    result.problems.append(FsckProblem(
                        2, "DIRENT_TYPE_NO_FEATURE",
                        f"entry '{entry.name}' in directory {dir_ino} carries "
                        "a file type but the filetype feature is disabled",
                        context={"dir": dir_ino, "name": entry.name,
                                 "ftype": FT_UNKNOWN}))
        # pass-4-style link counts for *referenced* inodes; unreferenced
        # inodes are legal in this model (no lost+found handling).
        for ino, inode in image.iter_used_inodes():
            count = refs.get(ino, 0)
            if count and inode.i_links_count != count:
                result.problems.append(FsckProblem(
                    4, "LINK_COUNT",
                    f"inode {ino} has link count {inode.i_links_count}, "
                    f"counted {count}",
                    context={"ino": ino, "count": count}))

    def _pass5(self, image: Ext4Image, result: FsckResult,
               block_owners: Dict[int, List[int]]) -> None:
        sb = image.sb
        for g, gd in enumerate(image.group_descs):
            computed = image.computed_free_blocks(g)
            if gd.bg_free_blocks_count != computed:
                result.problems.append(FsckProblem(
                    5, "GD_FREE_BLOCKS",
                    f"free blocks count wrong for group #{g} "
                    f"({gd.bg_free_blocks_count}, counted={computed})"))
            computed_inodes = image.computed_free_inodes(g)
            if gd.bg_free_inodes_count != computed_inodes:
                result.problems.append(FsckProblem(
                    5, "GD_FREE_INODES",
                    f"free inodes count wrong for group #{g} "
                    f"({gd.bg_free_inodes_count}, counted={computed_inodes})"))
        total = image.total_computed_free_blocks()
        if sb.s_free_blocks_count != total:
            result.problems.append(FsckProblem(
                5, "SB_FREE_BLOCKS",
                f"free blocks count wrong ({sb.s_free_blocks_count}, counted={total})"))
        total_inodes = image.total_computed_free_inodes()
        if sb.s_free_inodes_count != total_inodes:
            result.problems.append(FsckProblem(
                5, "SB_FREE_INODES",
                f"free inodes count wrong ({sb.s_free_inodes_count}, counted={total_inodes})"))

    # ------------------------------------------------------------------
    # fixes
    # ------------------------------------------------------------------

    def _apply_fixes(self, image: Ext4Image, result: FsckResult) -> None:
        """Repair the problems that have mechanical fixes."""
        sb = image.sb
        for problem in result.problems:
            if problem.code == "GD_FREE_BLOCKS":
                g = int(problem.message.split("#")[1].split()[0])
                image.group_descs[g].bg_free_blocks_count = image.computed_free_blocks(g)
                problem.fixed = True
            elif problem.code == "GD_FREE_INODES":
                g = int(problem.message.split("#")[1].split()[0])
                image.group_descs[g].bg_free_inodes_count = image.computed_free_inodes(g)
                problem.fixed = True
            elif problem.code == "SB_FREE_BLOCKS":
                sb.s_free_blocks_count = image.total_computed_free_blocks()
                problem.fixed = True
            elif problem.code == "SB_FREE_INODES":
                sb.s_free_inodes_count = image.total_computed_free_inodes()
                problem.fixed = True
            elif problem.code == "BLOCK_UNMARKED":
                blockno = int(problem.message.rsplit("block", 1)[1].split()[0])
                g, idx = image._locate_block(blockno)
                image.block_bitmaps[g].set(idx)
                image.group_descs[g].bg_free_blocks_count = image.computed_free_blocks(g)
                problem.fixed = True
            elif problem.code == "SB_INODES":
                sb.s_inodes_count = sb.s_inodes_per_group * sb.group_count
                problem.fixed = True
            elif problem.code in ("DIRENT_BAD_INO", "DIRENT_UNUSED_INO"):
                from repro.fsimage.dirtree import DirectoryTree

                ctx = problem.context or {}
                DirectoryTree(image).remove_entry(ctx["dir"], ctx["name"])
                problem.fixed = True
            elif problem.code in ("DIRENT_BAD_TYPE", "DIRENT_TYPE_NO_FEATURE"):
                ctx = problem.context or {}
                self._fix_entry_type(image, ctx["dir"], ctx["name"], ctx["ftype"])
                problem.fixed = True
            elif problem.code == "LINK_COUNT":
                ctx = problem.context or {}
                inode = image.read_inode(ctx["ino"])
                inode.i_links_count = ctx["count"]
                image.write_inode(ctx["ino"], inode)
                problem.fixed = True
        # Reclaiming blocks in pass 1 changes the free totals, so pass-5
        # style resynchronization must follow (as real e2fsck does).
        if any(p.fixed and p.code == "BLOCK_UNMARKED" for p in result.problems):
            for g, gd in enumerate(image.group_descs):
                gd.bg_free_blocks_count = image.computed_free_blocks(g)
            sb.s_free_blocks_count = image.total_computed_free_blocks()
        image.flush()

    @staticmethod
    def _fix_entry_type(image: Ext4Image, dir_ino: int, name: str,
                        ftype: int) -> None:
        """Rewrite one directory entry's file type in place."""
        from repro.fsimage.dirent import DirBlock
        from repro.fsimage.dirtree import DirectoryTree

        tree = DirectoryTree(image)
        _inode, blocks = tree._dir_blocks(dir_ino)
        for blockno in blocks:
            block = DirBlock.from_bytes(image.dev.read_block(blockno))
            entry = block.find(name)
            if entry is not None:
                entry.file_type = ftype
                image.dev.write_block(blockno, block.to_bytes())
                return
