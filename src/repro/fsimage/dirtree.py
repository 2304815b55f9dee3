"""Directory-tree operations over an :class:`~repro.fsimage.Ext4Image`.

Implements name-based access: entry insertion/removal/lookup in
directory data blocks, ``.``/``..`` conventions, and link-count
bookkeeping.  The ``filetype`` feature (chosen at mke2fs time) decides
whether entries carry a file type — behaviour that e2fsck's pass 2
validates, making this another configuration-dependent surface.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ImageError
from repro.fsimage.dirent import (
    DirBlock,
    Dirent,
    FT_DIR,
    FT_REG_FILE,
    FT_UNKNOWN,
)
from repro.fsimage.image import Ext4Image
from repro.fsimage.inode import Inode, S_IFDIR
from repro.fsimage.layout import ROOT_INO

#: incompat bit of the filetype feature (EXT2_FEATURE_INCOMPAT_FILETYPE).
INCOMPAT_FILETYPE = 0x0002


class DirectoryTree:
    """Name-based directory operations."""

    def __init__(self, image: Ext4Image) -> None:
        self.image = image

    # ------------------------------------------------------------------
    # feature-dependent typing
    # ------------------------------------------------------------------

    @property
    def filetype_enabled(self) -> bool:
        """Whether dirents carry file types (mke2fs -O filetype)."""
        return bool(self.image.sb.s_feature_incompat & INCOMPAT_FILETYPE)

    def _ftype_for(self, inode: Inode) -> int:
        if not self.filetype_enabled:
            return FT_UNKNOWN
        if inode.is_directory:
            return FT_DIR
        return FT_REG_FILE

    # ------------------------------------------------------------------
    # block plumbing
    # ------------------------------------------------------------------

    def _dir_blocks(self, dir_ino: int) -> Tuple[Inode, List[int]]:
        inode = self.image.read_inode(dir_ino)
        if not inode.is_directory:
            raise ImageError(f"inode {dir_ino} is not a directory")
        return inode, inode.data_blocks()

    def _load(self, blockno: int) -> DirBlock:
        return DirBlock.from_bytes(self.image.dev.read_block(blockno))

    def _store(self, blockno: int, block: DirBlock) -> None:
        self.image.dev.write_block(blockno, block.to_bytes())

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def init_directory(self, dir_ino: int, parent_ino: int) -> None:
        """Write '.' and '..' into a fresh directory's first block."""
        inode, blocks = self._dir_blocks(dir_ino)
        if not blocks:
            raise ImageError(f"directory {dir_ino} has no data block")
        block = DirBlock(self.image.sb.block_size)
        ftype = FT_DIR if self.filetype_enabled else FT_UNKNOWN
        block.add(Dirent(dir_ino, ".", ftype))
        block.add(Dirent(parent_ino, "..", ftype))
        self._store(blocks[0], block)

    def add_entry(self, dir_ino: int, name: str, ino: int) -> None:
        """Insert one entry; grows the directory when its blocks fill."""
        if self.lookup(dir_ino, name) is not None:
            raise ImageError(f"entry {name!r} already exists")
        target = self.image.read_inode(ino)
        entry = Dirent(ino, name, self._ftype_for(target))
        dir_inode, blocks = self._dir_blocks(dir_ino)
        for blockno in blocks:
            block = self._load(blockno)
            if block.fits(entry):
                block.add(entry)
                self._store(blockno, block)
                return
        new_block = self.image.allocate_blocks(1)[0]
        fresh = DirBlock(self.image.sb.block_size)
        fresh.add(entry)
        self._store(new_block, fresh)
        dir_inode.set_direct_blocks(blocks + [new_block])
        dir_inode.i_size += self.image.sb.block_size
        self.image.write_inode(dir_ino, dir_inode)

    def remove_entry(self, dir_ino: int, name: str) -> Dirent:
        """Remove one entry by name; raises ImageError when absent."""
        if name in (".", ".."):
            raise ImageError(f"cannot remove {name!r}")
        _inode, blocks = self._dir_blocks(dir_ino)
        for blockno in blocks:
            block = self._load(blockno)
            if block.find(name) is not None:
                entry = block.remove(name)
                self._store(blockno, block)
                return entry
        raise ImageError(f"no entry named {name!r} in inode {dir_ino}")

    def lookup(self, dir_ino: int, name: str) -> Optional[int]:
        """Inode number of ``name`` in the directory, or None."""
        _inode, blocks = self._dir_blocks(dir_ino)
        for blockno in blocks:
            entry = self._load(blockno).find(name)
            if entry is not None:
                return entry.inode
        return None

    def entries(self, dir_ino: int) -> List[Dirent]:
        """Every entry of the directory (including '.' and '..')."""
        _inode, blocks = self._dir_blocks(dir_ino)
        out: List[Dirent] = []
        for blockno in blocks:
            out.extend(self._load(blockno))
        return out

    def names(self, dir_ino: int) -> List[str]:
        """Entry names, '.'/'..' excluded."""
        return [e.name for e in self.entries(dir_ino)
                if e.name not in (".", "..")]

    # ------------------------------------------------------------------
    # high-level helpers
    # ------------------------------------------------------------------

    def make_directory(self, parent_ino: int, name: str) -> int:
        """Create a subdirectory with '.'/'..' and link counts updated."""
        block = self.image.allocate_blocks(1)[0]
        ino = self.image.allocate_inode()
        inode = Inode(i_mode=S_IFDIR, i_links_count=2,
                      i_size=self.image.sb.block_size)
        inode.set_direct_blocks([block])
        self.image.write_inode(ino, inode)
        self.init_directory(ino, parent_ino)
        self.add_entry(parent_ino, name, ino)
        parent = self.image.read_inode(parent_ino)
        parent.i_links_count += 1  # the child's '..'
        self.image.write_inode(parent_ino, parent)
        group = (ino - 1) // self.image.sb.s_inodes_per_group
        self.image.group_descs[group].bg_used_dirs_count += 1
        return ino


def init_root_directory(image: Ext4Image) -> None:
    """Give the root inode its '.' and '..' entries (mke2fs behaviour)."""
    DirectoryTree(image).init_directory(ROOT_INO, ROOT_INO)
