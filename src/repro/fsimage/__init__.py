"""Simulated block device and simplified ext4 on-disk image format.

This package is the execution substrate that replaces a real block
device + ext4 kernel module in the paper's evaluation: a byte-serialized
superblock, block-group descriptors, block/inode bitmaps, and an inode
table, laid out per block group the way ext2/ext4 does (including
``sparse_super`` and ``sparse_super2`` backup-superblock placement).

Utilities in :mod:`repro.ecosystem` manipulate images through this
layer, so configuration mistakes manifest as real, observable metadata
corruption — which is what ConHandleCk and the Figure-1 reproduction
need.
"""

from repro import _lazy

_lazy.install(globals(), {
    "repro.fsimage.blockdev": ("BlockDevice",),
    "repro.fsimage.layout": ("Superblock", "GroupDescriptor", "EXT2_MAGIC"),
    "repro.fsimage.bitmap": ("Bitmap",),
    "repro.fsimage.inode": ("Inode",),
    "repro.fsimage.image": ("Ext4Image", "GroupLayout"),
    "repro.fsimage.dirent": ("Dirent", "DirBlock"),
    "repro.fsimage.dirtree": ("DirectoryTree",),
})
