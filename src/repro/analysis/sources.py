"""Configuration-source annotations (the paper's manual annotations).

The static analyzer needs to know where configuration values *enter*
each component: which variables hold parsed parameter values, and which
``#define`` feature macros correspond to which named feature parameter.
This module declares both, per corpus component.  Annotations use
variable names as they appear in the corpus translation units; a
mismatch raises :class:`~repro.errors.SourceAnnotationError` at
analysis setup so drift between corpus and annotations is caught early.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet

from repro.analysis.model import ParamRef

#: Feature-bit macro -> canonical feature parameter name.  The writer
#: component for features is always mke2fs (features are chosen at
#: create time), so bridged reads resolve to ``mke2fs.<feature>``.
FEATURE_MACROS: Dict[str, str] = {
    "EXT2_FEATURE_COMPAT_HAS_JOURNAL": "has_journal",
    "EXT2_FEATURE_COMPAT_EXT_ATTR": "ext_attr",
    "EXT2_FEATURE_COMPAT_RESIZE_INODE": "resize_inode",
    "EXT2_FEATURE_COMPAT_DIR_INDEX": "dir_index",
    "EXT4_FEATURE_COMPAT_SPARSE_SUPER2": "sparse_super2",
    "EXT2_FEATURE_INCOMPAT_FILETYPE": "filetype",
    "EXT2_FEATURE_INCOMPAT_META_BG": "meta_bg",
    "EXT3_FEATURE_INCOMPAT_EXTENTS": "extent",
    "EXT4_FEATURE_INCOMPAT_64BIT": "64bit",
    "EXT4_FEATURE_INCOMPAT_MMP": "mmp",
    "EXT4_FEATURE_INCOMPAT_FLEX_BG": "flex_bg",
    "EXT4_FEATURE_INCOMPAT_EA_INODE": "ea_inode",
    "EXT4_FEATURE_INCOMPAT_LARGEDIR": "large_dir",
    "EXT4_FEATURE_INCOMPAT_INLINE_DATA": "inline_data",
    "EXT4_FEATURE_INCOMPAT_ENCRYPT": "encrypt",
    "EXT4_FEATURE_INCOMPAT_CASEFOLD": "casefold",
    "EXT3_FEATURE_INCOMPAT_JOURNAL_DEV": "journal_dev",
    "EXT2_FEATURE_RO_COMPAT_SPARSE_SUPER": "sparse_super",
    "EXT2_FEATURE_RO_COMPAT_LARGE_FILE": "large_file",
    "EXT4_FEATURE_RO_COMPAT_HUGE_FILE": "huge_file",
    "EXT4_FEATURE_RO_COMPAT_GDT_CSUM": "uninit_bg",
    "EXT4_FEATURE_RO_COMPAT_DIR_NLINK": "dir_nlink",
    "EXT4_FEATURE_RO_COMPAT_EXTRA_ISIZE": "extra_isize",
    "EXT4_FEATURE_RO_COMPAT_QUOTA": "quota",
    "EXT4_FEATURE_RO_COMPAT_BIGALLOC": "bigalloc",
    "EXT4_FEATURE_RO_COMPAT_METADATA_CSUM": "metadata_csum",
    "EXT4_FEATURE_RO_COMPAT_PROJECT": "project",
    "EXT4_FEATURE_RO_COMPAT_VERITY": "verity",
    # XFS feature bits (§6 "other file systems" extension).
    "XFS_SB_VERSION5_CRC": "crc",
    "XFS_SB_FEAT_RO_FINOBT": "finobt",
    "XFS_SB_FEAT_RO_REFLINK": "reflink",
    "XFS_SB_FEAT_RO_RMAPBT": "rmapbt",
}

#: The shared metadata structures used as the cross-component bridge.
#: Ext4's superblock is the paper's; the XFS superblock supports the
#: §6 "other file systems" extension.
BRIDGE_STRUCT = "ext2_super_block"
BRIDGE_STRUCTS: FrozenSet[str] = frozenset({"ext2_super_block", "xfs_sb"})

#: Typed parse helpers -> the C type their result certifies (SD data type).
TYPED_PARSERS: Dict[str, str] = {
    "atoi": "int",
    "atol": "long",
    "strtol": "long",
    "strtoul": "unsigned long",
    "parse_int": "int",
    "parse_uint": "unsigned int",
    "parse_ulong": "unsigned long",
    "parse_num_blocks": "unsigned long",
    "match_int": "int",
}

#: Calls whose return value is tainted by their arguments (data-flow
#: models for known library helpers; everything else is opaque, which
#: is the paper's intra-procedural limitation).
TAINT_PRESERVING_CALLS: FrozenSet[str] = frozenset(TYPED_PARSERS) | frozenset(
    {"abs", "min", "max", "ext2fs_div_ceil", "ext2fs_blocks_count"}
)


@dataclass(frozen=True)
class ComponentSources:
    """Initial configuration variables of one component.

    ``param_vars`` maps function name (or ``"*"`` for every function)
    to {variable name: parameter}.  Variables listed under ``"*"`` are
    the component's parsed-option globals.
    """

    component: str
    param_vars: Dict[str, Dict[str, ParamRef]] = field(default_factory=dict)

    def sources_for(self, function: str) -> Dict[str, ParamRef]:
        """Variable-to-parameter map for one function ('*' merged in)."""
        merged: Dict[str, ParamRef] = {}
        merged.update(self.param_vars.get("*", {}))
        merged.update(self.param_vars.get(function, {}))
        return merged

    def fingerprint(self) -> str:
        """Stable content hash of these annotations.

        Part of the per-function memo keys in
        :mod:`repro.analysis.taint` / ``constraints``: two annotation
        objects with the same content share cache entries, and object
        identity (which Python may recycle) never leaks into a key.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            payload = (self.component, tuple(sorted(
                (fn, tuple(sorted(
                    (var, ref.component, ref.name)
                    for var, ref in mapping.items()
                )))
                for fn, mapping in self.param_vars.items()
            )))
            cached = hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:16]
            self.__dict__["_fingerprint"] = cached
        return cached


def _p(component: str, name: str) -> ParamRef:
    return ParamRef(component, name)


def _globals(component: str, names: Dict[str, str]) -> Dict[str, ParamRef]:
    return {var: _p(component, param) for var, param in names.items()}


MKE2FS_SOURCES = ComponentSources(
    component="mke2fs",
    param_vars={
        "*": _globals("mke2fs", {
            # parsed-option globals, mirroring real mke2fs.c globals
            "blocksize": "blocksize",
            "cluster_size": "cluster_size",
            "inode_ratio": "inode_ratio",
            "inode_size": "inode_size",
            "reserved_percent": "reserved_percent",
            "blocks_per_group": "blocks_per_group",
            "num_groups": "number_of_groups",
            "num_inodes": "inode_count",
            "journal_size": "journal_size",
            "fs_blocks_count": "fs_size",
            "quiet_flag": "quiet",
            "dry_run_flag": "dry_run",
            "check_badblocks_flag": "check_badblocks",
            "force_flag": "force",
            "fs_stride": "stride",
            "fs_stripe_width": "stripe_width",
            "resize_limit": "resize_limit",
            # feature request flags (set while parsing -O)
            "f_has_journal": "has_journal",
            "f_ext_attr": "ext_attr",
            "f_resize_inode": "resize_inode",
            "f_dir_index": "dir_index",
            "f_sparse_super": "sparse_super",
            "f_sparse_super2": "sparse_super2",
            "f_meta_bg": "meta_bg",
            "f_extent": "extent",
            "f_64bit": "64bit",
            "f_bigalloc": "bigalloc",
            "f_inline_data": "inline_data",
            "f_metadata_csum": "metadata_csum",
            "f_uninit_bg": "uninit_bg",
            "f_journal_dev": "journal_dev",
            "f_encrypt": "encrypt",
            "f_casefold": "casefold",
            "f_flex_bg": "flex_bg",
            "f_ea_inode": "ea_inode",
            "f_large_dir": "large_dir",
            "f_huge_file": "huge_file",
            "f_large_file": "large_file",
            "f_dir_nlink": "dir_nlink",
            "f_quota": "quota",
            "f_project": "project",
            "f_verity": "verity",
            "f_mmp": "mmp",
        }),
    },
)

MOUNT_SOURCES = ComponentSources(
    component="mount",
    param_vars={
        "*": _globals("mount", {
            "opt_ro": "ro",
            "opt_dax": "dax",
            "opt_noload": "noload",
            "opt_data_mode": "data",
            "opt_data_journal": "data",
            "opt_commit": "commit",
            "opt_barrier": "barrier",
            "opt_journal_checksum": "journal_checksum",
            "opt_journal_async_commit": "journal_async_commit",
            "opt_delalloc": "delalloc",
            "opt_resuid": "resuid",
            "opt_resgid": "resgid",
            "opt_journal_ioprio": "journal_ioprio",
            "opt_stripe": "stripe",
            "opt_auto_da_alloc": "auto_da_alloc",
            "opt_max_batch_time": "max_batch_time",
            "opt_min_batch_time": "min_batch_time",
        }),
    },
)

#: The kernel-side mount path: the parsed mount options are annotated
#: (they are mount-stage parameters even though the kernel tokenizes
#: them), but the on-disk superblock values it validates against live
#: in ext4_sb_info *copies* filled by ext4_load_super — reaching them
#: from ext4_fill_super needs the inter-procedural extension.
EXT4_KERNEL_SOURCES = ComponentSources(
    component="ext4",
    param_vars={
        "*": {
            "kopt_dax": _p("mount", "dax"),
            "kopt_data_journal": _p("mount", "data"),
        },
    },
)

E4DEFRAG_SOURCES = ComponentSources(
    component="e4defrag",
    param_vars={
        "*": _globals("e4defrag", {
            "mode_check_only": "check_only",
            "verbose_flag": "verbose",
        }),
    },
)

RESIZE2FS_SOURCES = ComponentSources(
    component="resize2fs",
    param_vars={
        "*": _globals("resize2fs", {
            "new_size": "size",
            "flag_force": "force",
            "flag_minimum": "minimize",
            "flag_print_min": "print_min_size",
            "flag_64bit": "enable_64bit",
            "flag_32bit": "disable_64bit",
            "flag_progress": "progress",
            "raid_stride": "stride",
        }),
    },
)

E2FSCK_SOURCES = ComponentSources(
    component="e2fsck",
    param_vars={
        "*": _globals("e2fsck", {
            "opt_preen": "preen",
            "opt_yes": "assume_yes",
            "opt_no": "no_changes",
            "opt_force": "force",
            "opt_superblock": "superblock",
            "opt_blocksize": "blocksize",
            "opt_optimize_dirs": "optimize_dirs",
        }),
    },
)

#: Shared-library translation unit (libext2fs): its validation helpers
#: are invoked by the offline utilities on mkfs-chosen values, so their
#: parameters are annotated with the originating mke2fs parameters —
#: exactly the kind of annotation §4.1 calls "manual".
LIBEXT2FS_SOURCES = ComponentSources(
    component="mke2fs",
    param_vars={
        "ext2fs_check_blocksize": {"blocksize_opt": _p("mke2fs", "blocksize")},
        "ext2fs_check_inode_geometry": {
            "inode_size_opt": _p("mke2fs", "inode_size"),
            "inode_ratio_opt": _p("mke2fs", "inode_ratio"),
        },
    },
)

XFS_MKFS_SOURCES = ComponentSources(
    component="mkfs.xfs",
    param_vars={
        "*": _globals("mkfs.xfs", {
            "xfs_blocksize": "blocksize",
            "xfs_sectsize": "sectsize",
            "xfs_agcount": "agcount",
            "xfs_dblocks": "dblocks",
            "xfs_crc": "crc",
            "xfs_finobt": "finobt",
            "xfs_reflink": "reflink",
            "xfs_rmapbt": "rmapbt",
        }),
    },
)

XFS_GROWFS_SOURCES = ComponentSources(
    component="xfs_growfs",
    param_vars={
        "*": _globals("xfs_growfs", {
            "grow_dblocks": "dblocks",
            "grow_datasec": "datasec",
        }),
    },
)

SOURCES_BY_UNIT: Dict[str, ComponentSources] = {
    "mke2fs.c": MKE2FS_SOURCES,
    "mount.c": MOUNT_SOURCES,
    "ext4_super.c": EXT4_KERNEL_SOURCES,
    "e4defrag.c": E4DEFRAG_SOURCES,
    "resize2fs.c": RESIZE2FS_SOURCES,
    "e2fsck.c": E2FSCK_SOURCES,
    "libext2fs.c": LIBEXT2FS_SOURCES,
    "xfs_mkfs.c": XFS_MKFS_SOURCES,
    "xfs_growfs.c": XFS_GROWFS_SOURCES,
}
