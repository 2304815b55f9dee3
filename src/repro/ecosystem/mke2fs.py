"""Simulated ``mke2fs`` — the create-stage utility (paper Figure 2a).

The configuration surface and the validation rules mirror the real
mke2fs: every rule enforced in :meth:`Mke2fs.validate` is a
configuration dependency in the paper's taxonomy (SD value ranges,
CPD feature conflicts), and the same rules appear in the modelled C
corpus that the static analyzer consumes — so extraction results can
be checked against executable behaviour.
"""

from __future__ import annotations

import math
import uuid as uuid_module
from dataclasses import dataclass, field as dc_field
from typing import Iterable, List, Optional, Tuple

from repro.common.units import parse_size
from repro.errors import UsageError
from repro.fsimage.blockdev import BlockDevice
from repro.fsimage.image import Ext4Image
from repro.fsimage.layout import Superblock
from repro.ecosystem.featureset import FeatureSet, parse_feature_string

COMPONENT = "mke2fs"

#: Usage profiles selectable with -T; values are (blocksize, inode_ratio).
USAGE_TYPES = {
    "floppy": (1024, 8192),
    "small": (1024, 4096),
    "default": (4096, 16384),
    "big": (4096, 32768),
    "huge": (4096, 65536),
}


@dataclass
class Mke2fsConfig:
    """Parsed mke2fs parameters (defaults mirror ``-T default``)."""

    blocksize: int = 4096
    cluster_size: Optional[int] = None
    blocks_per_group: Optional[int] = None
    number_of_groups: Optional[int] = None
    inode_ratio: int = 16384
    inode_size: int = 256
    inode_count: Optional[int] = None
    journal: bool = False
    journal_size: Optional[int] = None
    label: str = ""
    reserved_percent: int = 5
    revision: int = 1
    usage_type: str = "default"
    uuid: Optional[str] = None
    stride: Optional[int] = None
    stripe_width: Optional[int] = None
    resize_limit: Optional[int] = None
    lazy_itable_init: int = 0
    root_owner: str = "0:0"
    features: FeatureSet = dc_field(default_factory=FeatureSet.ext4_defaults)
    fs_blocks_count: Optional[int] = None  # explicit size operand (blocks)
    force: bool = False
    quiet: bool = True
    dry_run: bool = False

    def feature_enabled(self, name: str) -> bool:
        """Whether the named feature is requested."""
        return name in self.features


class Mke2fs:
    """The create-stage utility."""

    def __init__(self, config: Optional[Mke2fsConfig] = None) -> None:
        self.config = config or Mke2fsConfig()
        self.messages: List[str] = []

    # ------------------------------------------------------------------
    # CLI front end
    # ------------------------------------------------------------------

    @classmethod
    def from_args(cls, args: List[str]) -> "Mke2fs":
        """Parse a mke2fs-style argument vector (device excluded)."""
        cfg = Mke2fsConfig()
        i = 0

        def need_value(flag: str) -> str:
            nonlocal i
            i += 1
            if i >= len(args):
                raise UsageError(COMPONENT, f"option {flag} requires a value")
            return args[i]

        positional: List[str] = []
        while i < len(args):
            arg = args[i]
            if arg == "-b":
                cfg.blocksize = _parse_int(need_value("-b"), "-b")
            elif arg == "-C":
                cfg.cluster_size = _parse_int(need_value("-C"), "-C")
            elif arg == "-g":
                cfg.blocks_per_group = _parse_int(need_value("-g"), "-g")
            elif arg == "-G":
                cfg.number_of_groups = _parse_int(need_value("-G"), "-G")
            elif arg == "-i":
                cfg.inode_ratio = _parse_int(need_value("-i"), "-i")
            elif arg == "-I":
                cfg.inode_size = _parse_int(need_value("-I"), "-I")
            elif arg == "-j":
                cfg.journal = True
            elif arg == "-J":
                cfg.journal_size = _parse_journal_size(need_value("-J"))
            elif arg == "-L":
                cfg.label = need_value("-L")
            elif arg == "-m":
                cfg.reserved_percent = _parse_int(need_value("-m"), "-m")
            elif arg == "-N":
                cfg.inode_count = _parse_int(need_value("-N"), "-N")
            elif arg == "-n":
                cfg.dry_run = True
            elif arg == "-O":
                _apply_features(cfg, need_value("-O"))
            elif arg == "-q":
                cfg.quiet = True
            elif arg == "-r":
                cfg.revision = _parse_int(need_value("-r"), "-r")
            elif arg == "-T":
                cfg.usage_type = need_value("-T")
                _apply_usage_type(cfg)
            elif arg == "-U":
                cfg.uuid = need_value("-U")
            elif arg == "-E":
                _apply_extended(cfg, need_value("-E"))
            elif arg == "-F":
                cfg.force = True
            elif arg.startswith("-"):
                raise UsageError(COMPONENT, f"unknown option {arg}")
            else:
                positional.append(arg)
            i += 1
        if positional:
            if cfg.blocksize <= 0:
                raise UsageError(COMPONENT, f"invalid block size {cfg.blocksize}")
            cfg.fs_blocks_count = parse_size(positional[0], cfg.blocksize, COMPONENT)
        return cls(cfg)

    # ------------------------------------------------------------------
    # validation: the executable form of the configuration dependencies
    # ------------------------------------------------------------------

    def validate(self, dev: BlockDevice) -> None:
        """Enforce SD and CPD rules; raises UsageError on violation."""
        cfg = self.config
        # --- Self dependencies (value ranges / types) ------------------
        if cfg.blocksize < 1024 or cfg.blocksize > 65536:
            raise UsageError(COMPONENT, f"invalid block size {cfg.blocksize}: must be in [1024, 65536]")
        if cfg.blocksize & (cfg.blocksize - 1):
            raise UsageError(COMPONENT, f"block size {cfg.blocksize} must be a power of 2")
        if cfg.inode_size < 128 or cfg.inode_size > 4096:
            raise UsageError(COMPONENT, f"invalid inode size {cfg.inode_size}: must be in [128, 4096]")
        if cfg.inode_size & (cfg.inode_size - 1):
            raise UsageError(COMPONENT, f"inode size {cfg.inode_size} must be a power of 2")
        if cfg.inode_ratio < 1024 or cfg.inode_ratio > 4 * 1024 * 1024:
            raise UsageError(COMPONENT, f"invalid inode ratio {cfg.inode_ratio}: must be in [1024, 4194304]")
        if cfg.reserved_percent < 0 or cfg.reserved_percent > 50:
            raise UsageError(COMPONENT, f"invalid reserved percent {cfg.reserved_percent}: must be in [0, 50]")
        if cfg.revision not in (0, 1):
            raise UsageError(COMPONENT, f"invalid revision {cfg.revision}: must be 0 or 1")
        if cfg.usage_type not in USAGE_TYPES:
            raise UsageError(COMPONENT, f"unknown usage type {cfg.usage_type!r}")
        if cfg.blocks_per_group is not None:
            if cfg.blocks_per_group % 8:
                raise UsageError(COMPONENT, f"blocks per group {cfg.blocks_per_group} must be a multiple of 8")
            if cfg.blocks_per_group < 256 or cfg.blocks_per_group > 65528:
                raise UsageError(COMPONENT, f"blocks per group {cfg.blocks_per_group} out of range [256, 65528]")
        if cfg.lazy_itable_init not in (0, 1):
            raise UsageError(COMPONENT, f"lazy_itable_init must be 0 or 1, got {cfg.lazy_itable_init}")
        if cfg.journal_size is not None and (cfg.journal_size < 1024 or cfg.journal_size > 10_240_000):
            raise UsageError(COMPONENT, f"journal size {cfg.journal_size} KiB out of range [1024, 10240000]")
        if len(cfg.label.encode("utf-8")) > 16:
            raise UsageError(COMPONENT, f"label {cfg.label!r} longer than 16 bytes")
        if cfg.uuid is not None:
            try:
                uuid_module.UUID(cfg.uuid)
            except ValueError:
                raise UsageError(COMPONENT, f"invalid UUID {cfg.uuid!r}") from None
        if cfg.inode_count is not None and cfg.inode_count < 16:
            raise UsageError(COMPONENT, f"inode count {cfg.inode_count} too small (minimum 16)")
        if cfg.stride is not None and cfg.stride < 1:
            raise UsageError(COMPONENT, f"invalid RAID stride {cfg.stride}")
        if cfg.stripe_width is not None and cfg.stripe_width < 1:
            raise UsageError(COMPONENT, f"invalid RAID stripe width {cfg.stripe_width}")

        # --- Cross-parameter dependencies ------------------------------
        feats = cfg.features
        if "meta_bg" in feats and "resize_inode" in feats:
            raise UsageError(COMPONENT, "the meta_bg and resize_inode features cannot be used together")
        if "bigalloc" in feats and "extent" not in feats:
            raise UsageError(COMPONENT, "the bigalloc feature requires the extent feature")
        if "sparse_super2" in feats and "sparse_super" in feats:
            raise UsageError(COMPONENT, "sparse_super2 and sparse_super cannot both be enabled")
        if "metadata_csum" in feats and "uninit_bg" in feats:
            raise UsageError(COMPONENT, "metadata_csum and uninit_bg are mutually exclusive")
        if "journal_dev" in feats and "has_journal" in feats:
            raise UsageError(COMPONENT, "a journal device cannot itself carry has_journal")
        if "encrypt" in feats and "casefold" in feats:
            raise UsageError(COMPONENT, "encrypt and casefold cannot be enabled together")
        if "inline_data" in feats and "ext_attr" not in feats:
            raise UsageError(COMPONENT, "the inline_data feature requires the ext_attr feature")
        if "huge_file" in feats and "large_file" not in feats:
            raise UsageError(COMPONENT, "the huge_file feature requires the large_file feature")
        if "dir_nlink" in feats and "dir_index" not in feats:
            raise UsageError(COMPONENT, "the dir_nlink feature requires the dir_index feature")
        if "ea_inode" in feats and "ext_attr" not in feats:
            raise UsageError(COMPONENT, "the ea_inode feature requires the ext_attr feature")
        if "large_dir" in feats and "dir_index" not in feats:
            raise UsageError(COMPONENT, "the large_dir feature requires the dir_index feature")
        if "project" in feats and "quota" not in feats:
            raise UsageError(COMPONENT, "the project feature requires the quota feature")
        if "verity" in feats and "extent" not in feats:
            raise UsageError(COMPONENT, "the verity feature requires the extent feature")
        if cfg.journal_size is not None and not (cfg.journal or "has_journal" in feats):
            raise UsageError(COMPONENT, "-J size requires a journal (-j or -O has_journal)")
        if cfg.cluster_size is not None and "bigalloc" not in feats:
            raise UsageError(COMPONENT, "-C cluster size requires the bigalloc feature")
        if cfg.cluster_size is not None and cfg.cluster_size <= cfg.blocksize:
            raise UsageError(COMPONENT, f"cluster size {cfg.cluster_size} must exceed block size {cfg.blocksize}")
        if cfg.inode_size > cfg.blocksize:
            raise UsageError(COMPONENT, f"inode size {cfg.inode_size} cannot exceed block size {cfg.blocksize}")
        if cfg.number_of_groups is not None and cfg.number_of_groups < 1:
            raise UsageError(COMPONENT, f"invalid number of groups {cfg.number_of_groups}")
        if cfg.number_of_groups is not None and "flex_bg" not in feats:
            raise UsageError(COMPONENT, "-G requires the flex_bg feature")
        if cfg.resize_limit is not None and "resize_inode" not in feats:
            raise UsageError(COMPONENT, "-E resize= requires the resize_inode feature")
        if "resize_inode" in feats and "sparse_super" not in feats and "sparse_super2" not in feats:
            # mke2fs quietly enables sparse_super alongside resize_inode.
            feats.enable("sparse_super")
        if cfg.stripe_width is not None and cfg.stride is None:
            raise UsageError(COMPONENT, "-E stripe_width requires -E stride")

        # --- device-dependent checks ------------------------------------
        if cfg.blocksize != dev.block_size and not cfg.force:
            raise UsageError(
                COMPONENT,
                f"block size {cfg.blocksize} does not match device block size {dev.block_size} (use -F to force)",
            )
        blocks = self._fs_blocks(dev)
        if blocks > dev.num_blocks:
            raise UsageError(
                COMPONENT,
                f"requested size {blocks} blocks exceeds device size {dev.num_blocks} blocks",
            )
        if blocks < 64:
            raise UsageError(COMPONENT, f"file system too small: {blocks} blocks (minimum 64)")

    def _fs_blocks(self, dev: BlockDevice) -> int:
        if self.config.fs_blocks_count is not None:
            return self.config.fs_blocks_count
        return dev.num_blocks

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, dev: BlockDevice) -> Optional[Ext4Image]:
        """Validate, build the superblock, and format the device.

        Returns the formatted image (None on a dry run).
        """
        self.validate(dev)
        sb = self.build_superblock(dev)
        if self.config.dry_run:
            self.messages.append(f"(dry run) would create {sb.s_blocks_count} block file system")
            return None
        image = Ext4Image.format(dev, sb)
        self.messages.append(
            f"Creating filesystem with {sb.s_blocks_count} {sb.block_size >> 10}k blocks "
            f"and {sb.s_inodes_count} inodes"
        )
        return image

    def build_superblock(self, dev: BlockDevice) -> Superblock:
        """Translate the validated configuration into superblock geometry."""
        cfg = self.config
        blocks = self._fs_blocks(dev)
        log_block_size = int(math.log2(cfg.blocksize)) - 10
        first_data_block = 1 if cfg.blocksize == 1024 else 0
        blocks_per_group = cfg.blocks_per_group or min(8 * cfg.blocksize, 32768)
        group_count = max(1, math.ceil((blocks - first_data_block) / blocks_per_group))
        inodes = cfg.inode_count or max(
            16 * group_count, (blocks * cfg.blocksize) // cfg.inode_ratio
        )
        inodes_per_group = _round_up(math.ceil(inodes / group_count), 8)
        compat, incompat, ro_compat = cfg.features.pack_words()
        reserved_gdt = 0
        if "resize_inode" in cfg.features:
            reserved_gdt = self._reserved_gdt_blocks(blocks, blocks_per_group, cfg)
        backup_bgs: Tuple[int, int] = (0, 0)
        if "sparse_super2" in cfg.features:
            backup_bgs = _sparse_super2_backups(group_count)
        log_cluster = log_block_size
        if cfg.cluster_size is not None:
            log_cluster = int(math.log2(cfg.cluster_size)) - 10
        flex = 0
        if "flex_bg" in cfg.features:
            flex = int(math.log2(cfg.number_of_groups)) if cfg.number_of_groups else 4
        sb = Superblock(
            s_blocks_count=blocks,
            s_r_blocks_count=blocks * cfg.reserved_percent // 100,
            s_first_data_block=first_data_block,
            s_log_block_size=log_block_size,
            s_log_cluster_size=log_cluster,
            s_blocks_per_group=blocks_per_group,
            s_clusters_per_group=blocks_per_group >> max(0, log_cluster - log_block_size),
            s_inodes_per_group=inodes_per_group,
            s_inodes_count=inodes_per_group * group_count,
            s_inode_size=cfg.inode_size,
            s_rev_level=cfg.revision,
            s_feature_compat=compat | (0x0004 if cfg.journal else 0),
            s_feature_incompat=incompat,
            s_feature_ro_compat=ro_compat,
            s_volume_name=cfg.label,
            s_uuid=uuid_module.UUID(cfg.uuid).bytes if cfg.uuid else uuid_module.uuid5(
                uuid_module.NAMESPACE_URL, f"repro-ext4-{blocks}-{inodes_per_group}"
            ).bytes,
            s_reserved_gdt_blocks=reserved_gdt,
            s_backup_bgs=backup_bgs,
            s_log_groups_per_flex=flex,
            s_mmp_update_interval=5 if "mmp" in cfg.features else 0,
        )
        return sb

    def _reserved_gdt_blocks(self, blocks: int, blocks_per_group: int, cfg: Mke2fsConfig) -> int:
        """Reserve GDT space for growth up to -E resize= (default 1024x)."""
        limit = cfg.resize_limit or blocks * 1024
        max_groups = math.ceil(limit / blocks_per_group)
        from repro.fsimage.layout import GROUP_DESC_SIZE

        needed = math.ceil(max_groups * GROUP_DESC_SIZE / cfg.blocksize)
        current = math.ceil(
            math.ceil(blocks / blocks_per_group) * GROUP_DESC_SIZE / cfg.blocksize
        )
        # At least one reserved block, as real mke2fs always leaves the
        # descriptor table room to grow when resize_inode is on; capped
        # so small block groups still fit their own metadata.
        cap = min(cfg.blocksize // 4, blocks_per_group // 2)
        return max(1, min(needed - current, cap))


def _sparse_super2_backups(group_count: int) -> Tuple[int, int]:
    """sparse_super2 keeps backups in group 1 and the last group."""
    if group_count <= 1:
        return (0, 0)
    if group_count == 2:
        return (1, 0)
    return (1, group_count - 1)


def requested_features(names: Iterable[str]) -> FeatureSet:
    """Exactly ``names``, as ``-O none -O <names>`` requests them: an
    unknown name raises the usage error that ``-O`` parsing raises."""
    try:
        return FeatureSet(names)
    except KeyError as exc:
        raise _invalid_features(exc) from None


def _invalid_features(exc: KeyError) -> UsageError:
    return UsageError(COMPONENT, f"invalid filesystem option set: {exc.args[0]}")


def _apply_features(cfg: Mke2fsConfig, spec: str) -> None:
    if spec == "none":
        cfg.features = FeatureSet()
        return
    try:
        changes = parse_feature_string(spec)
    except KeyError as exc:
        raise _invalid_features(exc) from None
    explicit_on = {name for name, enabled in changes if enabled}
    for name, enabled in changes:
        if enabled:
            cfg.features.enable(name)
        else:
            cfg.features.disable(name)
    # mke2fs resolves defaults: asking for sparse_super2 drops the default
    # sparse_super unless the user explicitly asked for both (then the
    # CPD check in validate() rejects the combination).
    if "sparse_super2" in explicit_on and "sparse_super" not in explicit_on:
        cfg.features.disable("sparse_super")


def _apply_usage_type(cfg: Mke2fsConfig) -> None:
    if cfg.usage_type not in USAGE_TYPES:
        raise UsageError(COMPONENT, f"unknown usage type {cfg.usage_type!r}")
    blocksize, ratio = USAGE_TYPES[cfg.usage_type]
    cfg.blocksize = blocksize
    cfg.inode_ratio = ratio


def _apply_extended(cfg: Mke2fsConfig, spec: str) -> None:
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" in token:
            key, value = token.split("=", 1)
        else:
            key, value = token, ""
        if key == "stride":
            cfg.stride = _parse_int(value, "-E stride=")
        elif key == "stripe_width":
            cfg.stripe_width = _parse_int(value, "-E stripe_width=")
        elif key == "resize":
            cfg.resize_limit = parse_size(value, cfg.blocksize, COMPONENT)
        elif key == "lazy_itable_init":
            cfg.lazy_itable_init = _parse_int(value or "1", "-E lazy_itable_init=")
        elif key == "root_owner":
            cfg.root_owner = value or "0:0"
        else:
            raise UsageError(COMPONENT, f"unknown extended option {key!r}")


def _parse_journal_size(spec: str) -> int:
    for token in spec.split(","):
        if token.startswith("size="):
            return _parse_int(token[len("size="):], "-J size=") * 1024
    raise UsageError(COMPONENT, f"invalid journal options {spec!r}")


def _parse_int(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(COMPONENT, f"option {flag} expects an integer, got {text!r}") from None


def _round_up(value: int, multiple: int) -> int:
    return ((value + multiple - 1) // multiple) * multiple
