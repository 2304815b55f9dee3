"""Tests for the simulated mke2fs: CLI parsing and every validation rule."""

import pytest

from repro.ecosystem.mke2fs import Mke2fs, Mke2fsConfig, USAGE_TYPES
from repro.errors import UsageError
from repro.fsimage.blockdev import BlockDevice
from repro.fsimage.image import Ext4Image


def mkfs(args, dev=None):
    dev = dev or BlockDevice(4096, 4096)
    return Mke2fs.from_args(args).run(dev), dev


class TestCliParsing:
    def test_blocksize(self):
        assert Mke2fs.from_args(["-b", "2048"]).config.blocksize == 2048

    def test_size_operand_in_blocks(self):
        mk = Mke2fs.from_args(["-b", "4096", "1024"])
        assert mk.config.fs_blocks_count == 1024

    def test_size_operand_with_suffix(self):
        mk = Mke2fs.from_args(["-b", "4096", "8M"])
        assert mk.config.fs_blocks_count == 2048

    def test_feature_list(self):
        mk = Mke2fs.from_args(["-O", "bigalloc,extent"])
        assert "bigalloc" in mk.config.features

    def test_feature_negation(self):
        mk = Mke2fs.from_args(["-O", "^resize_inode"])
        assert "resize_inode" not in mk.config.features

    def test_feature_none_clears_defaults(self):
        mk = Mke2fs.from_args(["-O", "none"])
        assert len(mk.config.features) == 0

    def test_sparse_super2_implicitly_drops_sparse_super(self):
        mk = Mke2fs.from_args(["-O", "sparse_super2"])
        assert "sparse_super2" in mk.config.features
        assert "sparse_super" not in mk.config.features

    def test_unknown_feature_rejected(self):
        with pytest.raises(UsageError):
            Mke2fs.from_args(["-O", "timetravel"])

    def test_unknown_option_rejected(self):
        with pytest.raises(UsageError):
            Mke2fs.from_args(["-Z"])

    def test_missing_value_rejected(self):
        with pytest.raises(UsageError):
            Mke2fs.from_args(["-b"])

    def test_non_integer_rejected(self):
        with pytest.raises(UsageError):
            Mke2fs.from_args(["-b", "big"])

    def test_extended_options(self):
        mk = Mke2fs.from_args(["-E", "stride=16,stripe_width=64"])
        assert mk.config.stride == 16
        assert mk.config.stripe_width == 64

    def test_extended_resize(self):
        mk = Mke2fs.from_args(["-b", "4096", "-E", "resize=8M"])
        assert mk.config.resize_limit == 2048

    def test_unknown_extended_rejected(self):
        with pytest.raises(UsageError):
            Mke2fs.from_args(["-E", "turbo=1"])

    def test_journal_flag(self):
        assert Mke2fs.from_args(["-j"]).config.journal

    def test_journal_size(self):
        mk = Mke2fs.from_args(["-j", "-J", "size=4"])
        assert mk.config.journal_size == 4096

    def test_bad_journal_spec_rejected(self):
        with pytest.raises(UsageError):
            Mke2fs.from_args(["-J", "speed=9"])

    def test_usage_type_applies_profile(self):
        mk = Mke2fs.from_args(["-T", "small"])
        assert (mk.config.blocksize, mk.config.inode_ratio) == USAGE_TYPES["small"]

    def test_label(self):
        assert Mke2fs.from_args(["-L", "data"]).config.label == "data"

    def test_uuid(self):
        uuid = "9cfdd4ab-b782-4308-8b90-7766b07b0e42"
        assert Mke2fs.from_args(["-U", uuid]).config.uuid == uuid


class TestSelfDependencies:
    """Every SD rule, one test each (mirrors the extracted SDs)."""

    @pytest.mark.parametrize("args", [
        ["-b", "512"],
        ["-b", "131072"],
        ["-b", "3000"],  # not a power of two
        ["-I", "64"],
        ["-I", "8192"],
        ["-I", "300"],  # not a power of two
        ["-i", "512"],
        ["-i", "8388608"],
        ["-m", "-1"],
        ["-m", "51"],
        ["-g", "100"],
        ["-g", "70000"],
        ["-g", "1001"],  # not a multiple of 8
        ["-O", "flex_bg", "-G", "0"],
        ["-j", "-J", "size=0"],
        ["-j", "-J", "size=20000"],
        ["-N", "4"],
        ["-L", "this-label-is-way-too-long"],
        ["-U", "not-a-uuid"],
        ["-r", "2"],
    ])
    def test_out_of_range_rejected(self, args):
        dev = BlockDevice(4096, 4096)
        with pytest.raises(UsageError):
            Mke2fs.from_args(args + ["-F"]).run(dev)

    def test_fs_too_small_rejected(self):
        dev = BlockDevice(4096, 4096)
        with pytest.raises(UsageError):
            Mke2fs.from_args(["-b", "4096", "32"]).run(dev)

    def test_fs_larger_than_device_rejected(self):
        dev = BlockDevice(1024, 4096)
        with pytest.raises(UsageError):
            Mke2fs.from_args(["-b", "4096", "2048"]).run(dev)

    def test_blocksize_device_mismatch_needs_force(self):
        dev = BlockDevice(8192, 1024)
        with pytest.raises(UsageError):
            Mke2fs.from_args(["-b", "4096"]).run(dev)


class TestCrossParameterDependencies:
    """Every CPD rule, one test each (mirrors the extracted CPDs)."""

    @pytest.mark.parametrize("features", [
        "meta_bg,resize_inode",
        "bigalloc,^extent",
        "sparse_super2,sparse_super",
        "metadata_csum,uninit_bg",
        "journal_dev,has_journal",
        "encrypt,casefold",
        "inline_data,^ext_attr",
        "huge_file,^large_file",
        "dir_nlink,^dir_index",
        "ea_inode,^ext_attr",
        "large_dir,^dir_index",
        "project,^quota",
        "verity,^extent",
    ])
    def test_feature_conflict_rejected(self, features):
        dev = BlockDevice(4096, 4096)
        with pytest.raises(UsageError):
            Mke2fs.from_args(["-O", features]).run(dev)

    def test_journal_size_requires_journal(self):
        dev = BlockDevice(4096, 4096)
        with pytest.raises(UsageError):
            Mke2fs.from_args(["-O", "^has_journal", "-J", "size=4"]).run(dev)

    def test_cluster_size_requires_bigalloc(self):
        dev = BlockDevice(4096, 4096)
        with pytest.raises(UsageError):
            Mke2fs.from_args(["-C", "16384"]).run(dev)

    def test_cluster_size_must_exceed_blocksize(self):
        dev = BlockDevice(4096, 4096)
        with pytest.raises(UsageError):
            Mke2fs.from_args(["-O", "bigalloc,extent", "-b", "4096",
                              "-C", "4096"]).run(dev)

    def test_inode_size_cannot_exceed_blocksize(self):
        dev = BlockDevice(16384, 1024)
        with pytest.raises(UsageError):
            Mke2fs.from_args(["-b", "1024", "-I", "2048"]).run(dev)

    def test_num_groups_requires_flex_bg(self):
        dev = BlockDevice(4096, 4096)
        with pytest.raises(UsageError):
            Mke2fs.from_args(["-O", "^flex_bg", "-G", "16"]).run(dev)

    def test_resize_limit_requires_resize_inode(self):
        dev = BlockDevice(4096, 4096)
        with pytest.raises(UsageError):
            Mke2fs.from_args(["-O", "^resize_inode", "-E", "resize=8M",
                              "-b", "4096"]).run(dev)

    def test_stripe_width_requires_stride(self):
        dev = BlockDevice(4096, 4096)
        with pytest.raises(UsageError):
            Mke2fs.from_args(["-E", "stripe_width=64"]).run(dev)


class TestExecution:
    def test_format_produces_mountable_image(self):
        image, dev = mkfs(["-b", "4096", "2048"])
        assert image is not None
        assert Ext4Image.open(dev).sb.s_blocks_count == 2048

    def test_dry_run_writes_nothing(self, monkeypatch):
        # A spy on both write paths: counting stored blocks afterwards
        # would miss a write of all zeroes.
        dev = BlockDevice(4096, 4096)
        writes = []
        monkeypatch.setattr(dev, "write_block",
                            lambda *args: writes.append(("block", args)))
        monkeypatch.setattr(dev, "write_bytes",
                            lambda *args: writes.append(("bytes", args)))
        result = Mke2fs.from_args(["-n", "-b", "4096", "2048"]).run(dev)
        assert result is None
        assert writes == []

    def test_default_features_reach_disk(self):
        image, _dev = mkfs(["-b", "4096", "2048"])
        assert image.sb.s_feature_compat & 0x0004  # has_journal
        assert image.sb.s_feature_incompat & 0x0040  # extent

    def test_sparse_super2_records_backup_groups(self):
        dev = BlockDevice(16384, 1024)
        image = Mke2fs.from_args(
            ["-O", "sparse_super2,^resize_inode,^has_journal",
             "-b", "1024", "-g", "256", "8192"]).run(dev)
        assert image.sb.s_backup_bgs == (1, image.sb.group_count - 1)

    def test_reserved_percent_reflected(self):
        image, _dev = mkfs(["-m", "10", "-b", "4096", "2048"])
        assert image.sb.s_r_blocks_count == 204

    def test_resize_inode_reserves_gdt_blocks(self):
        image, _dev = mkfs(["-b", "4096", "2048"])
        assert image.sb.s_reserved_gdt_blocks > 0

    def test_inode_count_override(self):
        image, _dev = mkfs(["-N", "128", "-b", "4096", "2048"])
        assert image.sb.s_inodes_count == 128

    def test_label_written(self):
        image, _dev = mkfs(["-L", "mylabel", "-b", "4096", "2048"])
        assert image.sb.s_volume_name == "mylabel"

    def test_mmp_reserves_block(self):
        image, _dev = mkfs(["-O", "mmp", "-b", "4096", "2048"])
        assert image.sb.s_mmp_block > 0
        assert image.sb.s_mmp_update_interval == 5

    def test_messages_recorded(self):
        dev = BlockDevice(4096, 4096)
        mk = Mke2fs.from_args(["-b", "4096", "2048"])
        mk.run(dev)
        assert any("Creating filesystem" in m for m in mk.messages)
