"""Tests for the simulated block device."""

import pytest

from repro.ecosystem.e2fsck import E2fsck, E2fsckConfig
from repro.ecosystem.mke2fs import Mke2fs
from repro.ecosystem.resize2fs import Resize2fs, Resize2fsConfig
from repro.errors import DeviceClosedError, OutOfRangeIO
from repro.fsimage.blockdev import BlockDevice
from repro.fsimage.image import Ext4Image, gdt_size_blocks


class TestGeometry:
    def test_basic_geometry(self):
        dev = BlockDevice(num_blocks=16, block_size=1024)
        assert dev.num_blocks == 16
        assert dev.size_bytes == 16 * 1024

    def test_block_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            BlockDevice(4, block_size=3000)

    def test_block_size_bounds(self):
        with pytest.raises(ValueError):
            BlockDevice(4, block_size=256)
        with pytest.raises(ValueError):
            BlockDevice(4, block_size=131072)

    def test_needs_at_least_one_block(self):
        with pytest.raises(ValueError):
            BlockDevice(0)

    def test_grow_extends_with_zeroes(self):
        dev = BlockDevice(4, 1024)
        dev.write_block(3, b"x" * 1024)
        dev.grow(8)
        assert dev.num_blocks == 8
        assert dev.read_block(7) == bytes(1024)
        assert dev.read_block(3) == b"x" * 1024

    def test_shrink_rejected(self):
        dev = BlockDevice(8, 1024)
        with pytest.raises(ValueError):
            dev.grow(4)


class TestIO:
    def test_write_read_round_trip(self):
        dev = BlockDevice(4, 1024)
        dev.write_block(2, b"hello")
        assert dev.read_block(2)[:5] == b"hello"

    def test_short_write_zero_padded(self):
        dev = BlockDevice(4, 1024)
        dev.write_block(0, b"ab")
        assert dev.read_block(0) == b"ab" + bytes(1022)

    def test_oversized_write_rejected(self):
        dev = BlockDevice(4, 1024)
        with pytest.raises(ValueError):
            dev.write_block(0, b"x" * 1025)

    def test_out_of_range_read(self):
        dev = BlockDevice(4, 1024)
        with pytest.raises(OutOfRangeIO):
            dev.read_block(4)

    def test_negative_block_rejected(self):
        dev = BlockDevice(4, 1024)
        with pytest.raises(OutOfRangeIO):
            dev.read_block(-1)

    def test_byte_level_io(self):
        dev = BlockDevice(4, 1024)
        dev.write_bytes(1500, b"span")
        assert dev.read_bytes(1500, 4) == b"span"

    def test_byte_io_bounds_checked(self):
        dev = BlockDevice(1, 1024)
        with pytest.raises(OutOfRangeIO):
            dev.write_bytes(1020, b"12345")
        with pytest.raises(OutOfRangeIO):
            dev.read_bytes(1020, 5)

    def test_zero_block(self):
        dev = BlockDevice(4, 1024)
        dev.write_block(1, b"junk")
        dev.zero_block(1)
        assert dev.read_block(1) == bytes(1024)


class TestLifecycle:
    def test_closed_device_rejects_io(self):
        dev = BlockDevice(4, 1024)
        dev.close()
        assert dev.closed
        with pytest.raises(DeviceClosedError):
            dev.read_block(0)
        with pytest.raises(DeviceClosedError):
            dev.write_block(0, b"")

    def test_snapshot_restore_round_trip(self):
        dev = BlockDevice(4, 1024)
        dev.write_block(2, b"before")
        snap = dev.snapshot()
        dev.write_block(2, b"after!")
        dev.restore(snap)
        assert dev.read_block(2)[:6] == b"before"

    def test_restore_rejects_unaligned_snapshot(self):
        dev = BlockDevice(4, 1024)
        with pytest.raises(ValueError):
            dev.restore(b"x" * 1000)

    def test_restore_rejects_empty_snapshot(self):
        dev = BlockDevice(4, 1024)
        dev.write_block(2, b"kept")
        with pytest.raises(ValueError, match="does not match"):
            dev.restore(b"")
        assert dev.num_blocks == 4
        assert dev.read_block(2)[:4] == b"kept"

    def test_restore_rejects_wrong_size_snapshot(self):
        dev = BlockDevice(4, 1024)
        for blocks in (2, 8):
            with pytest.raises(ValueError, match="does not match"):
                dev.restore(BlockDevice(blocks, 1024).snapshot())
        assert dev.num_blocks == 4 and dev.size_bytes == 4096


class FlatDevice:
    """The flat-buffer device layout, kept as a byte-exact reference.

    Implements the slice of the :class:`BlockDevice` API the simulated
    tools use, over one zero-filled ``bytearray``, so the sparse device
    can be checked against it operation for operation.
    """

    def __init__(self, num_blocks, block_size):
        self.block_size = block_size
        self.buf = bytearray(num_blocks * block_size)

    @property
    def num_blocks(self):
        return len(self.buf) // self.block_size

    @property
    def size_bytes(self):
        return len(self.buf)

    def grow(self, num_blocks):
        self.buf.extend(bytes((num_blocks - self.num_blocks) * self.block_size))

    def read_block(self, blockno):
        bs = self.block_size
        return bytes(self.buf[blockno * bs:(blockno + 1) * bs])

    def read_block_view(self, blockno):
        return memoryview(self.read_block(blockno))

    def write_block(self, blockno, data):
        bs = self.block_size
        self.buf[blockno * bs:(blockno + 1) * bs] = bytes(data).ljust(bs, b"\0")

    def zero_block(self, blockno):
        self.write_block(blockno, b"")

    def read_bytes(self, offset, length):
        return bytes(self.buf[offset:offset + length])

    def write_bytes(self, offset, data):
        self.buf[offset:offset + len(data)] = data

    def snapshot(self):
        return bytes(self.buf)


def _pair(num_blocks, block_size):
    return BlockDevice(num_blocks, block_size), FlatDevice(num_blocks, block_size)


class TestSparseSemantics:
    """The sparse device reads and snapshots byte-for-byte like a flat one."""

    def test_byte_io_across_block_boundaries(self):
        devs = _pair(8, 1024)
        superblock = bytes(range(256)) * 4
        for dev in devs:
            # The 1 KiB superblock window at offset 1024 on 1 KiB blocks.
            dev.write_bytes(1024, superblock)
            dev.write_bytes(1000, b"\x11" * 100)      # straddles 0|1
            dev.write_bytes(2500, b"\x22" * 3000)     # spans blocks 2..5
            dev.write_bytes(8 * 1024 - 3, b"end")     # the device's last bytes
        sparse, flat = devs
        for offset, length in ((1024, 1024), (0, 8192), (1000, 100),
                               (1020, 10), (2047, 2), (2400, 3300),
                               (8189, 3), (4096, 0), (8192, 0)):
            assert sparse.read_bytes(offset, length) == \
                flat.read_bytes(offset, length), (offset, length)
        assert sparse.snapshot() == flat.snapshot()

    def test_mkfs_image_and_multi_block_gdt_read(self):
        args = ["-O", "^has_journal", "-b", "1024", "-g", "256",
                "-i", "65536", "11264"]
        devs = _pair(11264, 1024)
        for dev in devs:
            Mke2fs.from_args(args).run(dev)
        sparse, flat = devs
        assert sparse.snapshot() == flat.snapshot()
        image = Ext4Image.open(sparse)
        reference = Ext4Image.open(flat)
        gdt_blocks = gdt_size_blocks(image.sb)
        assert gdt_blocks >= 2
        # _load_metadata's one read of the whole descriptor table.
        start = image._gdt_first_block() * 1024
        assert sparse.read_bytes(start, gdt_blocks * 1024) == \
            flat.read_bytes(start, gdt_blocks * 1024)
        assert [gd.pack() for gd in image.group_descs] == \
            [gd.pack() for gd in reference.group_descs]
        assert [bm.to_bytes() for bm in image.block_bitmaps] == \
            [bm.to_bytes() for bm in reference.block_bitmaps]

    def test_zero_writes_leave_no_stored_blocks(self):
        devs = _pair(8, 1024)
        for dev in devs:
            for blockno in range(8):
                dev.write_block(blockno, bytes([blockno + 1]) * 1024)
            dev.write_block(0, bytes(1024))
            dev.write_block(1, b"")
            dev.zero_block(2)
            dev.write_bytes(3 * 1024, bytes(1024))
            dev.write_bytes(4 * 1024 + 512, bytes(1024))   # 4's tail + 5's head
            dev.write_bytes(4 * 1024, bytes(512))
            dev.write_bytes(5 * 1024 + 512, bytes(512))
            dev.write_block(6, b"\x07" * 10)               # padded, non-zero
        sparse, flat = devs
        assert sparse.snapshot() == flat.snapshot()
        assert sorted(sparse._blocks) == [6, 7]

    def test_reads_after_grow_return_zeroes(self):
        devs = _pair(4, 1024)
        for dev in devs:
            dev.write_block(3, b"\xff" * 1024)
            dev.grow(9)
            dev.write_block(8, b"tail")
        sparse, flat = devs
        for blockno in range(9):
            assert sparse.read_block(blockno) == flat.read_block(blockno)
        assert sparse.read_block(5) == bytes(1024)
        assert sparse.read_bytes(4 * 1024 - 8, 16) == \
            flat.read_bytes(4 * 1024 - 8, 16)
        assert sparse.snapshot() == flat.snapshot()

    def test_clone_independence_both_directions(self):
        source, reference = _pair(8, 1024)
        for dev in (source, reference):
            dev.write_block(1, b"\x01" * 1024)
            dev.write_bytes(2048, b"shared")
        clone = source.clone()
        assert clone.snapshot() == reference.snapshot()
        original = reference.snapshot()
        clone_reference = FlatDevice(8, 1024)
        clone_reference.buf[:] = original
        # Clone -> source.
        for dev in (clone, clone_reference):
            dev.write_block(1, b"\x02" * 1024)
            dev.write_bytes(2050, b"XX")
            dev.zero_block(2)
        assert source.snapshot() == original
        assert clone.snapshot() == clone_reference.snapshot()
        # Source -> clone.
        for dev in (source, reference):
            dev.write_block(5, b"\x05" * 1024)
            dev.write_bytes(1024, b"yy")
        assert source.snapshot() == reference.snapshot()
        assert clone.snapshot() == clone_reference.snapshot()

    def test_clone_of_closed_device_is_rejected(self):
        dev = BlockDevice(4, 1024)
        dev.write_block(1, b"a")
        clone = dev.clone()
        assert clone.read_block(1) == dev.read_block(1)
        dev.close()
        with pytest.raises(DeviceClosedError):
            dev.clone()

    def test_view_taken_before_write_reads_old_bytes(self):
        sparse, flat = _pair(4, 1024)
        for dev in (sparse, flat):
            dev.write_block(2, b"\xaa" * 1024)
        before = flat.read_block(2)
        view = sparse.read_block_view(2)
        absent = sparse.read_block_view(3)
        for dev in (sparse, flat):
            dev.write_block(2, b"\xbb" * 1024)
            dev.write_bytes(3 * 1024, b"now set")
        assert bytes(view) == before
        assert bytes(absent) == bytes(1024)
        assert sparse.read_block(2) == flat.read_block(2)
        assert sparse.read_block(3) == flat.read_block(3)
        view.release()
        absent.release()

    def test_figure1_scenario_matches_flat(self):
        # Figure 1: sparse_super2 + expansion corrupts the metadata; the
        # sparse device must give the flat device's image and findings.
        findings = []
        devs = _pair(4096, 4096)
        for dev in devs:
            Mke2fs.from_args(["-O", "sparse_super2,^resize_inode",
                              "-b", "4096", "2048"]).run(dev)
            Resize2fs(Resize2fsConfig(size="4096")).run(dev)
            check = E2fsck(E2fsckConfig(force=True, no_changes=True)).run(dev)
            findings.append([p.message for p in check.problems])
        sparse, flat = devs
        assert sparse.snapshot() == flat.snapshot()
        assert findings[0] == findings[1] and findings[0]
