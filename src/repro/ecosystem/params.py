"""Configuration-parameter registry for the Ext4 ecosystem.

Every parameter a component accepts is registered here with its kind,
domain, defaults, the stage it acts at (paper Figure 2), and the
superblock fields it ultimately reads or writes (the metadata bridge).
The registry is the single source of truth for:

- Table 2 totals (Ext4 > 85 parameters, e2fsck > 35, resize2fs > 15),
- the analyzer's configuration-source annotations,
- ConDocCk's comparison against the manual corpus,
- ConBugCk's dependency-respecting configuration generation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ecosystem.featureset import all_feature_names, word_of


class ParamKind(enum.Enum):
    """Value domain category of a parameter."""

    FLAG = "flag"  # boolean switch
    INT = "int"  # integer with optional range
    SIZE = "size"  # integer with unit suffixes (K/M/G/T/s)
    STRING = "string"
    ENUM = "enum"  # one of a fixed choice set
    FEATURE = "feature"  # ext4 feature togglable via -O / tune2fs
    UUID = "uuid"


class Stage(enum.Enum):
    """The configuration stage a parameter acts at (Figure 2)."""

    CREATE = "create"
    MOUNT = "mount"
    ONLINE = "online"
    OFFLINE = "offline"


@dataclass(frozen=True)
class ConfigParam:
    """One configuration parameter of one component."""

    name: str
    component: str
    kind: ParamKind
    stage: Stage
    description: str
    default: object = None
    min_value: Optional[int] = None
    max_value: Optional[int] = None
    choices: Tuple[str, ...] = ()
    cli: str = ""  # the CLI spelling, e.g. "-b" or "-O <feature>"
    sb_fields: Tuple[str, ...] = ()  # superblock fields touched

    def in_range(self, value: int) -> bool:
        """True when an INT/SIZE value satisfies the declared range."""
        if self.min_value is not None and value < self.min_value:
            return False
        if self.max_value is not None and value > self.max_value:
            return False
        return True


class ParamRegistry:
    """An ordered, name-unique collection of :class:`ConfigParam`."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._params: Dict[str, ConfigParam] = {}

    def add(self, param: ConfigParam) -> ConfigParam:
        """Register a parameter; rejects duplicates."""
        key = f"{param.component}.{param.name}"
        if key in self._params:
            raise ValueError(f"duplicate parameter {key!r} in registry {self.name!r}")
        self._params[key] = param
        return param

    def get(self, component: str, name: str) -> ConfigParam:
        """Look up one parameter; KeyError when unknown."""
        try:
            return self._params[f"{component}.{name}"]
        except KeyError:
            raise KeyError(
                f"unknown parameter {component}.{name} in registry {self.name!r}"
            ) from None

    def __len__(self) -> int:
        return len(self._params)

    def __iter__(self):
        return iter(self._params.values())

    def __contains__(self, key: str) -> bool:
        return key in self._params

    def components(self) -> Tuple[str, ...]:
        """Component names, in registration order."""
        seen: List[str] = []
        for p in self._params.values():
            if p.component not in seen:
                seen.append(p.component)
        return tuple(seen)

    def names(self, component: Optional[str] = None) -> List[str]:
        """Parameter names, optionally filtered by component."""
        return [p.name for p in self._params.values() if component is None or p.component == component]


# ===========================================================================
# Ext4 target registry: features + mke2fs options + mount options
# ===========================================================================


def _build_ext4_registry() -> ParamRegistry:
    reg = ParamRegistry("ext4")
    _add_feature_params(reg)
    _add_mke2fs_options(reg)
    _add_mount_options(reg)
    return reg


def _add_feature_params(reg: ParamRegistry) -> None:
    descriptions = {
        "has_journal": "Create a journal (ext3/ext4 journaling).",
        "ext_attr": "Extended attribute support.",
        "resize_inode": "Reserve space so the block group descriptor table may grow online.",
        "dir_index": "Hashed b-tree directory lookups.",
        "sparse_super2": "Keep only two backup superblocks, recorded in s_backup_bgs.",
        "filetype": "Store file type information in directory entries.",
        "meta_bg": "Place group descriptors in a meta block group layout.",
        "extent": "Extent-mapped files (EXT4_EXTENTS_FL).",
        "64bit": "Support more than 2^32 blocks.",
        "mmp": "Multiple mount protection.",
        "flex_bg": "Allow per-flex-group placement of metadata.",
        "inline_data": "Store small files directly in the inode.",
        "encrypt": "File-system level encryption.",
        "casefold": "Case-insensitive directory lookups.",
        "sparse_super": "Backup superblocks only in groups 0, 1 and powers of 3, 5, 7.",
        "large_file": "Files larger than 2 GiB.",
        "huge_file": "File sizes measured in logical blocks.",
        "uninit_bg": "Uninitialized block-group support (lazy init).",
        "dir_nlink": "More than 65000 subdirectories.",
        "extra_isize": "Reserved inode space for extended timestamps.",
        "quota": "Journaled quota tracking.",
        "bigalloc": "Cluster-based allocation (s_log_cluster_size > s_log_block_size).",
        "metadata_csum": "Checksum all metadata structures.",
        "project": "Project quota support.",
        "verity": "fs-verity file integrity.",
    }
    sb_fields_of = {
        "has_journal": ("s_feature_compat",),
        "resize_inode": ("s_feature_compat", "s_reserved_gdt_blocks"),
        "sparse_super2": ("s_feature_compat", "s_backup_bgs"),
        "sparse_super": ("s_feature_ro_compat",),
        "meta_bg": ("s_feature_incompat", "s_first_meta_bg"),
        "mmp": ("s_feature_incompat", "s_mmp_block", "s_mmp_update_interval"),
        "bigalloc": ("s_feature_ro_compat", "s_log_cluster_size"),
        "flex_bg": ("s_feature_incompat", "s_log_groups_per_flex"),
        "metadata_csum": ("s_feature_ro_compat", "s_checksum_type"),
    }
    for feature in all_feature_names():
        word = word_of(feature)
        reg.add(
            ConfigParam(
                name=feature,
                component="mke2fs",
                kind=ParamKind.FEATURE,
                stage=Stage.CREATE,
                description=descriptions.get(feature, f"Ext4 feature '{feature}' ({word} word)."),
                default=False,
                cli=f"-O {feature}",
                sb_fields=sb_fields_of.get(feature, (f"s_feature_{word}",)),
            )
        )


def _add_mke2fs_options(reg: ParamRegistry) -> None:
    add = reg.add
    mk = "mke2fs"
    add(ConfigParam("blocksize", mk, ParamKind.SIZE, Stage.CREATE,
                    "File-system block size in bytes; power of two.",
                    default=4096, min_value=1024, max_value=65536, cli="-b",
                    sb_fields=("s_log_block_size",)))
    add(ConfigParam("cluster_size", mk, ParamKind.SIZE, Stage.CREATE,
                    "Cluster size in bytes for bigalloc file systems.",
                    default=None, min_value=2048, max_value=256 * 1024 * 1024, cli="-C",
                    sb_fields=("s_log_cluster_size",)))
    add(ConfigParam("check_badblocks", mk, ParamKind.FLAG, Stage.CREATE,
                    "Check the device for bad blocks before formatting.",
                    default=False, cli="-c"))
    add(ConfigParam("blocks_per_group", mk, ParamKind.INT, Stage.CREATE,
                    "Blocks per block group; must be a multiple of 8.",
                    default=None, min_value=256, max_value=65528, cli="-g",
                    sb_fields=("s_blocks_per_group",)))
    add(ConfigParam("number_of_groups", mk, ParamKind.INT, Stage.CREATE,
                    "Number of block groups per flex group partner (with -G).",
                    default=None, min_value=1, cli="-G",
                    sb_fields=("s_log_groups_per_flex",)))
    add(ConfigParam("inode_ratio", mk, ParamKind.SIZE, Stage.CREATE,
                    "Bytes of space per inode created.",
                    default=16384, min_value=1024, max_value=4 * 1024 * 1024, cli="-i",
                    sb_fields=("s_inodes_count", "s_inodes_per_group")))
    add(ConfigParam("inode_size", mk, ParamKind.INT, Stage.CREATE,
                    "On-disk inode record size; power of two between 128 and blocksize.",
                    default=256, min_value=128, max_value=4096, cli="-I",
                    sb_fields=("s_inode_size",)))
    add(ConfigParam("journal", mk, ParamKind.FLAG, Stage.CREATE,
                    "Create the file system with a journal (same as -O has_journal).",
                    default=False, cli="-j", sb_fields=("s_feature_compat",)))
    add(ConfigParam("journal_size", mk, ParamKind.SIZE, Stage.CREATE,
                    "Journal size in megabytes.",
                    default=None, min_value=1024, max_value=10240000, cli="-J size=",
                    sb_fields=("s_feature_compat",)))
    add(ConfigParam("label", mk, ParamKind.STRING, Stage.CREATE,
                    "Volume label, at most 16 bytes.", default="", cli="-L",
                    sb_fields=("s_volume_name",)))
    add(ConfigParam("reserved_percent", mk, ParamKind.INT, Stage.CREATE,
                    "Percentage of blocks reserved for the super-user.",
                    default=5, min_value=0, max_value=50, cli="-m",
                    sb_fields=("s_r_blocks_count",)))
    add(ConfigParam("last_mounted", mk, ParamKind.STRING, Stage.CREATE,
                    "Set the last-mounted directory.", default="", cli="-M"))
    add(ConfigParam("inode_count", mk, ParamKind.INT, Stage.CREATE,
                    "Exact number of inodes to create (overrides -i).",
                    default=None, min_value=16, cli="-N",
                    sb_fields=("s_inodes_count",)))
    add(ConfigParam("dry_run", mk, ParamKind.FLAG, Stage.CREATE,
                    "Print what would be done without creating the file system.",
                    default=False, cli="-n"))
    add(ConfigParam("features", mk, ParamKind.STRING, Stage.CREATE,
                    "Comma-separated feature list; '^' prefix clears a feature.",
                    default="", cli="-O",
                    sb_fields=("s_feature_compat", "s_feature_incompat", "s_feature_ro_compat")))
    add(ConfigParam("quiet", mk, ParamKind.FLAG, Stage.CREATE,
                    "Quiet execution.", default=False, cli="-q"))
    add(ConfigParam("revision", mk, ParamKind.INT, Stage.CREATE,
                    "File-system revision (0 = good old, 1 = dynamic).",
                    default=1, min_value=0, max_value=1, cli="-r",
                    sb_fields=("s_rev_level",)))
    add(ConfigParam("super_only", mk, ParamKind.FLAG, Stage.CREATE,
                    "Write superblock and group descriptors only (recovery aid).",
                    default=False, cli="-S"))
    add(ConfigParam("usage_type", mk, ParamKind.ENUM, Stage.CREATE,
                    "Usage profile selecting defaults (floppy/small/default/big/huge).",
                    default="default",
                    choices=("floppy", "small", "default", "big", "huge"), cli="-T"))
    add(ConfigParam("uuid", mk, ParamKind.UUID, Stage.CREATE,
                    "File-system UUID.", default=None, cli="-U",
                    sb_fields=("s_uuid",)))
    add(ConfigParam("stride", mk, ParamKind.INT, Stage.CREATE,
                    "RAID stride: blocks read/written per disk before moving on.",
                    default=None, min_value=1, cli="-E stride="))
    add(ConfigParam("stripe_width", mk, ParamKind.INT, Stage.CREATE,
                    "RAID stripe width: stride times data disks.",
                    default=None, min_value=1, cli="-E stripe_width="))
    add(ConfigParam("resize_limit", mk, ParamKind.SIZE, Stage.CREATE,
                    "Maximum size the file system may be grown to online (-E resize=).",
                    default=None, min_value=1, cli="-E resize=",
                    sb_fields=("s_reserved_gdt_blocks",)))
    add(ConfigParam("lazy_itable_init", mk, ParamKind.INT, Stage.CREATE,
                    "Defer inode-table initialization to first mount (0 or 1).",
                    default=0, min_value=0, max_value=1, cli="-E lazy_itable_init="))
    add(ConfigParam("root_owner", mk, ParamKind.STRING, Stage.CREATE,
                    "uid:gid of the root directory.", default="0:0", cli="-E root_owner="))
    add(ConfigParam("force", mk, ParamKind.FLAG, Stage.CREATE,
                    "Force creation even when sanity checks fail.",
                    default=False, cli="-F"))
    add(ConfigParam("fs_size", mk, ParamKind.SIZE, Stage.CREATE,
                    "File-system size operand (blocks, or with a K/M/G/T suffix).",
                    default=None, min_value=64, cli="fs-size",
                    sb_fields=("s_blocks_count",)))


def _add_mount_options(reg: ParamRegistry) -> None:
    add = reg.add
    mo = "mount"
    add(ConfigParam("ro", mo, ParamKind.FLAG, Stage.MOUNT,
                    "Mount read-only.", default=False, cli="-o ro"))
    add(ConfigParam("noatime", mo, ParamKind.FLAG, Stage.MOUNT,
                    "Do not update access times.", default=False, cli="-o noatime"))
    add(ConfigParam("barrier", mo, ParamKind.INT, Stage.MOUNT,
                    "Enable/disable write barriers (0 or 1).",
                    default=1, min_value=0, max_value=1, cli="-o barrier="))
    add(ConfigParam("data", mo, ParamKind.ENUM, Stage.MOUNT,
                    "Journaling mode for file data.",
                    default="ordered", choices=("journal", "ordered", "writeback"),
                    cli="-o data=", sb_fields=("s_feature_compat",)))
    add(ConfigParam("commit", mo, ParamKind.INT, Stage.MOUNT,
                    "Seconds between journal commits.",
                    default=5, min_value=0, max_value=900, cli="-o commit="))
    add(ConfigParam("journal_checksum", mo, ParamKind.FLAG, Stage.MOUNT,
                    "Checksum journal transactions.", default=False,
                    cli="-o journal_checksum", sb_fields=("s_feature_compat",)))
    add(ConfigParam("journal_async_commit", mo, ParamKind.FLAG, Stage.MOUNT,
                    "Commit blocks without waiting for descriptor blocks.",
                    default=False, cli="-o journal_async_commit",
                    sb_fields=("s_feature_compat",)))
    add(ConfigParam("noload", mo, ParamKind.FLAG, Stage.MOUNT,
                    "Do not load the journal on mount.", default=False,
                    cli="-o noload", sb_fields=("s_feature_compat",)))
    add(ConfigParam("dax", mo, ParamKind.FLAG, Stage.MOUNT,
                    "Direct access to persistent memory, bypassing the page cache.",
                    default=False, cli="-o dax",
                    sb_fields=("s_log_block_size", "s_feature_incompat")))
    add(ConfigParam("discard", mo, ParamKind.FLAG, Stage.MOUNT,
                    "Issue discard/TRIM for freed blocks.", default=False, cli="-o discard"))
    add(ConfigParam("errors", mo, ParamKind.ENUM, Stage.MOUNT,
                    "Behaviour on metadata errors.",
                    default="continue", choices=("continue", "remount-ro", "panic"),
                    cli="-o errors=", sb_fields=("s_errors",)))
    add(ConfigParam("minixdf", mo, ParamKind.FLAG, Stage.MOUNT,
                    "Report Minix-style statfs counts.", default=False, cli="-o minixdf"))
    add(ConfigParam("user_xattr", mo, ParamKind.FLAG, Stage.MOUNT,
                    "Enable user extended attributes.", default=True,
                    cli="-o user_xattr", sb_fields=("s_feature_compat",)))
    add(ConfigParam("acl", mo, ParamKind.FLAG, Stage.MOUNT,
                    "Enable POSIX ACLs.", default=True, cli="-o acl"))
    add(ConfigParam("resuid", mo, ParamKind.INT, Stage.MOUNT,
                    "uid allowed to use reserved blocks.",
                    default=0, min_value=0, cli="-o resuid="))
    add(ConfigParam("resgid", mo, ParamKind.INT, Stage.MOUNT,
                    "gid allowed to use reserved blocks.",
                    default=0, min_value=0, cli="-o resgid="))
    add(ConfigParam("sb", mo, ParamKind.INT, Stage.MOUNT,
                    "Use an alternate superblock at this block.",
                    default=None, min_value=1, cli="-o sb=",
                    sb_fields=("s_magic",)))
    add(ConfigParam("auto_da_alloc", mo, ParamKind.INT, Stage.MOUNT,
                    "Replace-via-rename allocation heuristic (0 or 1).",
                    default=1, min_value=0, max_value=1, cli="-o auto_da_alloc="))
    add(ConfigParam("noinit_itable", mo, ParamKind.FLAG, Stage.MOUNT,
                    "Do not initialize uninitialized inode tables in background.",
                    default=False, cli="-o noinit_itable"))
    add(ConfigParam("stripe", mo, ParamKind.INT, Stage.MOUNT,
                    "Blocks per stripe for RAID-aligned allocation.",
                    default=0, min_value=0, cli="-o stripe="))
    add(ConfigParam("delalloc", mo, ParamKind.FLAG, Stage.MOUNT,
                    "Delay block allocation until writeback.", default=True,
                    cli="-o delalloc"))
    add(ConfigParam("max_batch_time", mo, ParamKind.INT, Stage.MOUNT,
                    "Max microseconds to wait batching synchronous writes.",
                    default=15000, min_value=0, cli="-o max_batch_time="))
    add(ConfigParam("min_batch_time", mo, ParamKind.INT, Stage.MOUNT,
                    "Min microseconds to wait batching synchronous writes.",
                    default=0, min_value=0, cli="-o min_batch_time="))
    add(ConfigParam("journal_ioprio", mo, ParamKind.INT, Stage.MOUNT,
                    "I/O priority for journal I/O (0-7).",
                    default=3, min_value=0, max_value=7, cli="-o journal_ioprio="))
    add(ConfigParam("lazytime", mo, ParamKind.FLAG, Stage.MOUNT,
                    "Only update in-memory timestamps eagerly.", default=False,
                    cli="-o lazytime"))


# ===========================================================================
# e2fsck registry
# ===========================================================================


def _build_e2fsck_registry() -> ParamRegistry:
    reg = ParamRegistry("e2fsck")
    add = reg.add
    ck = "e2fsck"
    simple_flags = [
        ("preen", "-a", "Automatic repair, alias of -p."),
        ("debug", "-d", "Print debugging output."),
        ("optimize_dirs", "-D", "Optimize directories (reindex/compress)."),
        ("force", "-f", "Force checking even when the file system seems clean."),
        ("flush", "-F", "Flush buffer caches before checking."),
        ("keep_badblocks", "-k", "Preserve the existing bad-blocks list with -c."),
        ("no_changes", "-n", "Open read-only; answer 'no' to all questions."),
        ("preen_mode", "-p", "Automatically repair without questions."),
        ("fix_rebuild", "-r", "Interactive repair (historical, ignored)."),
        ("swap_bytes", "-s", "Byte-swap the file system (historical)."),
        ("swap_bytes_force", "-S", "Byte-swap regardless of current order (historical)."),
        ("time_stats", "-t", "Print timing statistics."),
        ("verbose", "-v", "Verbose output."),
        ("version", "-V", "Print version information."),
        ("assume_yes", "-y", "Answer 'yes' to all questions."),
    ]
    for name, cli, desc in simple_flags:
        add(ConfigParam(name, ck, ParamKind.FLAG, Stage.OFFLINE, desc,
                        default=False, cli=cli))
    add(ConfigParam("superblock", ck, ParamKind.INT, Stage.OFFLINE,
                    "Use this alternate (backup) superblock.",
                    default=None, min_value=1, cli="-b",
                    sb_fields=("s_magic", "s_backup_bgs")))
    add(ConfigParam("blocksize", ck, ParamKind.SIZE, Stage.OFFLINE,
                    "Block size to assume when searching for the superblock.",
                    default=None, min_value=1024, max_value=65536, cli="-B",
                    sb_fields=("s_log_block_size",)))
    add(ConfigParam("check_badblocks", ck, ParamKind.FLAG, Stage.OFFLINE,
                    "Run badblocks(8) and mark found blocks.", default=False, cli="-c"))
    add(ConfigParam("progress_fd", ck, ParamKind.INT, Stage.OFFLINE,
                    "Write completion percentage to this descriptor.",
                    default=None, min_value=0, cli="-C"))
    add(ConfigParam("external_journal", ck, ParamKind.STRING, Stage.OFFLINE,
                    "Device holding the external journal.", default="", cli="-j",
                    sb_fields=("s_feature_compat",)))
    add(ConfigParam("badblocks_list", ck, ParamKind.STRING, Stage.OFFLINE,
                    "Add blocks from this file to the bad-blocks list.",
                    default="", cli="-l"))
    add(ConfigParam("badblocks_set", ck, ParamKind.STRING, Stage.OFFLINE,
                    "Replace the bad-blocks list with this file's contents.",
                    default="", cli="-L"))
    add(ConfigParam("undo_file", ck, ParamKind.STRING, Stage.OFFLINE,
                    "Record an undo file so changes can be rolled back.",
                    default="", cli="-z"))
    extended = [
        ("ea_ver", ParamKind.INT, "Extended-attribute version (1 or 2).", 2, 1, 2),
        ("journal_only", ParamKind.FLAG, "Only replay the journal.", False, None, None),
        ("fragcheck", ParamKind.FLAG, "Report discontiguous file fragments.", False, None, None),
        ("discard", ParamKind.FLAG, "Discard free blocks after checking.", False, None, None),
        ("nodiscard", ParamKind.FLAG, "Never discard free blocks.", False, None, None),
        ("optimize_directories", ParamKind.FLAG, "Optimize directory trees.", False, None, None),
        ("no_optimize_directories", ParamKind.FLAG, "Never optimize directories.", False, None, None),
        ("inode_count_fullmap", ParamKind.FLAG, "Use a full in-memory inode count map.", False, None, None),
        ("unshare_blocks", ParamKind.FLAG, "Unshare reflinked blocks.", False, None, None),
        ("check_encoding", ParamKind.FLAG, "Verify casefolded names are valid.", False, None, None),
    ]
    for name, kind, desc, default, lo, hi in extended:
        add(ConfigParam(name, ck, kind, Stage.OFFLINE, desc, default=default,
                        min_value=lo, max_value=hi, cli=f"-E {name}"))
    conf = [
        ("broken_system_clock", "Assume the system clock is unreliable."),
        ("accept_time_fudge", "Accept superblock times up to 24h in the future."),
        ("clear_test_fs_flag", "Clear the test_fs flag when ext4 is available."),
    ]
    for name, desc in conf:
        add(ConfigParam(name, ck, ParamKind.FLAG, Stage.OFFLINE,
                        desc + " (e2fsck.conf)", default=False, cli=f"[options] {name}"))
    return reg


# ===========================================================================
# resize2fs registry
# ===========================================================================


def _build_resize2fs_registry() -> ParamRegistry:
    reg = ParamRegistry("resize2fs")
    add = reg.add
    rs = "resize2fs"
    add(ConfigParam("size", rs, ParamKind.SIZE, Stage.OFFLINE,
                    "Requested file-system size (blocks, or with K/M/G/T suffix).",
                    default=None, min_value=1, cli="size",
                    sb_fields=("s_blocks_count", "s_free_blocks_count")))
    add(ConfigParam("enable_64bit", rs, ParamKind.FLAG, Stage.OFFLINE,
                    "Convert the file system to 64-bit block numbers.",
                    default=False, cli="-b", sb_fields=("s_feature_incompat",)))
    add(ConfigParam("disable_64bit", rs, ParamKind.FLAG, Stage.OFFLINE,
                    "Convert the file system away from 64-bit block numbers.",
                    default=False, cli="-s", sb_fields=("s_feature_incompat",)))
    add(ConfigParam("debug_flags", rs, ParamKind.INT, Stage.OFFLINE,
                    "Bitmask of debug classes to trace.",
                    default=0, min_value=0, max_value=63, cli="-d"))
    add(ConfigParam("force", rs, ParamKind.FLAG, Stage.OFFLINE,
                    "Override safety checks.", default=False, cli="-f"))
    add(ConfigParam("flush", rs, ParamKind.FLAG, Stage.OFFLINE,
                    "Flush device buffers before starting.", default=False, cli="-F"))
    add(ConfigParam("minimize", rs, ParamKind.FLAG, Stage.OFFLINE,
                    "Shrink to the minimum possible size.", default=False, cli="-M",
                    sb_fields=("s_blocks_count",)))
    add(ConfigParam("progress", rs, ParamKind.FLAG, Stage.OFFLINE,
                    "Print a progress bar per pass.", default=False, cli="-p"))
    add(ConfigParam("print_min_size", rs, ParamKind.FLAG, Stage.OFFLINE,
                    "Print the minimum size and exit.", default=False, cli="-P"))
    add(ConfigParam("stride", rs, ParamKind.INT, Stage.OFFLINE,
                    "RAID stride hint for new block placement.",
                    default=None, min_value=1, cli="-S"))
    add(ConfigParam("undo_file", rs, ParamKind.STRING, Stage.OFFLINE,
                    "Record an undo file so the resize can be rolled back.",
                    default="", cli="-z"))
    debug_classes = [
        ("debug_bmove", "Trace block relocations."),
        ("debug_inode", "Trace inode relocations."),
        ("debug_itable_move", "Trace inode-table moves."),
        ("debug_min_calc", "Trace minimum-size calculation."),
    ]
    for name, desc in debug_classes:
        add(ConfigParam(name, rs, ParamKind.FLAG, Stage.OFFLINE,
                        desc + " (-d bit)", default=False, cli="-d"))
    add(ConfigParam("undo_dir", rs, ParamKind.STRING, Stage.OFFLINE,
                    "Directory where undo files are written (e2fsprogs config).",
                    default="", cli="[defaults] undo_dir"))
    return reg


# ===========================================================================
# e4defrag registry
# ===========================================================================


def _build_e4defrag_registry() -> ParamRegistry:
    reg = ParamRegistry("e4defrag")
    add = reg.add
    df = "e4defrag"
    add(ConfigParam("check_only", df, ParamKind.FLAG, Stage.ONLINE,
                    "Report fragmentation without defragmenting.",
                    default=False, cli="-c"))
    add(ConfigParam("verbose", df, ParamKind.FLAG, Stage.ONLINE,
                    "Print per-file fragmentation details.", default=False, cli="-v"))
    add(ConfigParam("target", df, ParamKind.STRING, Stage.ONLINE,
                    "File, directory, or device to defragment.", default="/",
                    cli="target"))
    return reg


#: The four registries, built once at import.
EXT4_REGISTRY = _build_ext4_registry()
E2FSCK_REGISTRY = _build_e2fsck_registry()
RESIZE2FS_REGISTRY = _build_resize2fs_registry()
E4DEFRAG_REGISTRY = _build_e4defrag_registry()

ALL_REGISTRIES: Dict[str, ParamRegistry] = {
    "ext4": EXT4_REGISTRY,
    "e2fsck": E2FSCK_REGISTRY,
    "resize2fs": RESIZE2FS_REGISTRY,
    "e4defrag": E4DEFRAG_REGISTRY,
}


def registry_totals() -> Dict[str, int]:
    """Parameter totals per registry (Table 2 'Total' column)."""
    return {name: len(reg) for name, reg in ALL_REGISTRIES.items()}


def find_param(component: str, name: str) -> ConfigParam:
    """Locate a parameter across all registries."""
    for reg in ALL_REGISTRIES.values():
        try:
            return reg.get(component, name)
        except KeyError:
            continue
    raise KeyError(f"unknown parameter {component}.{name}")
