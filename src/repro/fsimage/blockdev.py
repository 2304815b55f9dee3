"""An in-memory, sparse, copy-on-write block device.

The device is sparse: it stores a map of block number → immutable
``bytes`` holding only the blocks that are not all zeroes, and every
absent block reads as one shared zero block.  A freshly formatted image
is overwhelmingly zeroes (mkfs writes a few dozen metadata blocks), so a
device costs what was written to it, not its size.  Because stored
blocks are never mutated in place, :meth:`BlockDevice.clone` is a copy
of the block map — copy-on-write at block granularity.

It enforces bounds (so a resize bug that writes past the device fails
loudly) and supports growing — which is how the simulated
``resize2fs`` models operating on an enlarged partition.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import DeviceClosedError, OutOfRangeIO

MIN_BLOCK_SIZE = 512
MAX_BLOCK_SIZE = 65536

#: One shared all-zero block per valid block size: what absent blocks read as.
_ZERO_BLOCKS: Dict[int, bytes] = {
    1 << shift: bytes(1 << shift)
    for shift in range(MIN_BLOCK_SIZE.bit_length() - 1,
                       MAX_BLOCK_SIZE.bit_length())
}


def _check_geometry(num_blocks: int, block_size: int) -> None:
    if block_size < MIN_BLOCK_SIZE or block_size > MAX_BLOCK_SIZE:
        raise ValueError(
            f"block size must be in [{MIN_BLOCK_SIZE}, {MAX_BLOCK_SIZE}], got {block_size}"
        )
    if block_size & (block_size - 1):
        raise ValueError(f"block size must be a power of two, got {block_size}")
    if num_blocks <= 0:
        raise ValueError(f"device needs at least one block, got {num_blocks}")


class BlockDevice:
    """A resizable in-memory device addressed in fixed-size blocks."""

    def __init__(self, num_blocks: int, block_size: int = 4096) -> None:
        _check_geometry(num_blocks, block_size)
        self.block_size = block_size
        self._num_blocks = num_blocks
        #: The non-zero blocks; every value is exactly one block of bytes.
        self._blocks: Dict[int, bytes] = {}
        self._zero = _ZERO_BLOCKS[block_size]
        self._closed = False

    @classmethod
    def from_snapshot(cls, snapshot: bytes, block_size: int) -> "BlockDevice":
        """A fresh, independent device initialized from a snapshot."""
        if not snapshot or len(snapshot) % block_size:
            raise ValueError(
                f"snapshot of {len(snapshot)} bytes is not a whole number "
                f"of {block_size}-byte blocks")
        dev = cls(len(snapshot) // block_size, block_size)
        dev._blocks = dev._split(snapshot)
        return dev

    def clone(self) -> "BlockDevice":
        """An independent device with this device's size and contents.

        Only the block map is copied: the two devices share every stored
        block until one of them overwrites it, which replaces that entry
        in its own map alone.
        """
        self._check_open()
        dev = type(self)(self._num_blocks, self.block_size)
        dev._blocks = self._blocks.copy()
        return dev

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        """Current size of the device in blocks."""
        return self._num_blocks

    @property
    def size_bytes(self) -> int:
        """Current size of the device in bytes."""
        return self._num_blocks * self.block_size

    def grow(self, new_num_blocks: int) -> None:
        """Extend the device to ``new_num_blocks`` (zero-filled).

        Shrinking is rejected; the simulated resize2fs handles shrink by
        relocating data first and then never actually truncating the
        device (the image's ``s_blocks_count`` is the source of truth).
        """
        self._check_open()
        if new_num_blocks < self._num_blocks:
            raise ValueError(
                f"cannot shrink device from {self.num_blocks} to {new_num_blocks} blocks"
            )
        self._num_blocks = new_num_blocks

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------

    def read_block(self, blockno: int) -> bytes:
        """Return the contents of one block."""
        self._check_open()
        self._check_range(blockno)
        return self._blocks.get(blockno, self._zero)

    def read_block_view(self, blockno: int) -> memoryview:
        """Zero-copy read of one block.

        Returns a read-only :class:`memoryview` of the stored block — no
        bytes are copied, which is what makes whole-table scans (the
        e2fsck inode and bitmap passes) cheap.  Stored blocks are
        immutable and a write replaces the block instead of mutating it,
        so a view taken before a write keeps reading the bytes the block
        held when the view was taken.
        """
        self._check_open()
        self._check_range(blockno)
        return memoryview(self._blocks.get(blockno, self._zero))

    def write_block(self, blockno: int, data: bytes) -> None:
        """Write one block; short data is zero-padded, long data rejected."""
        self._check_open()
        self._check_range(blockno)
        if len(data) > self.block_size:
            raise ValueError(
                f"write of {len(data)} bytes exceeds block size {self.block_size}"
            )
        if len(data) < self.block_size:
            data = b"".join((data, self._zero[len(data):]))
        elif type(data) is not bytes:
            data = bytes(data)
        self._store(blockno, data)

    def read_bytes(self, offset: int, length: int) -> bytes:
        """Byte-granular read (used for the 1024-byte superblock window)."""
        self._check_open()
        if offset < 0 or length < 0 or offset + length > self.size_bytes:
            raise OutOfRangeIO(
                f"byte read [{offset}, {offset + length}) outside device of {self.size_bytes} bytes"
            )
        bs = self.block_size
        first, within = divmod(offset, bs)
        if within + length <= bs:
            return self._blocks.get(first, self._zero)[within:within + length]
        last = (offset + length - 1) // bs
        blocks, zero = self._blocks, self._zero
        joined = b"".join([blocks.get(b, zero) for b in range(first, last + 1)])
        return joined[within:within + length]

    def write_bytes(self, offset: int, data: bytes) -> None:
        """Byte-granular write (used for the superblock and its backups)."""
        self._check_open()
        if offset < 0 or offset + len(data) > self.size_bytes:
            raise OutOfRangeIO(
                f"byte write [{offset}, {offset + len(data)}) outside device of {self.size_bytes} bytes"
            )
        bs = self.block_size
        pos = 0
        while pos < len(data):
            blockno, within = divmod(offset + pos, bs)
            take = min(bs - within, len(data) - pos)
            old = self._blocks.get(blockno, self._zero)
            self._store(blockno, b"".join(
                (old[:within], data[pos:pos + take], old[within + take:])))
            pos += take

    def zero_block(self, blockno: int) -> None:
        """Fill one block with zeroes."""
        self.write_block(blockno, b"")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Mark the device closed; later I/O raises DeviceClosedError."""
        self._closed = True

    @property
    def closed(self) -> bool:
        """Whether the device has been closed."""
        return self._closed

    def snapshot(self) -> bytes:
        """An immutable copy of the whole device (for failure injection tests)."""
        self._check_open()
        blocks, zero = self._blocks, self._zero
        return b"".join([blocks.get(b, zero) for b in range(self._num_blocks)])

    def restore(self, snapshot: bytes) -> None:
        """Restore device contents from a snapshot of the same geometry."""
        self._check_open()
        if len(snapshot) != self.size_bytes:
            raise ValueError(
                f"snapshot of {len(snapshot)} bytes does not match the "
                f"device's {self.size_bytes} bytes")
        self._blocks = self._split(snapshot)

    # ------------------------------------------------------------------
    # internal
    # ------------------------------------------------------------------

    def _store(self, blockno: int, data: bytes) -> None:
        """Keep one full block of ``bytes``; all zeroes drop the entry."""
        if data == self._zero:
            self._blocks.pop(blockno, None)
        else:
            self._blocks[blockno] = data

    def _split(self, snapshot: bytes) -> Dict[int, bytes]:
        """The non-zero blocks of a device-sized image, as a block map."""
        bs, zero = self.block_size, self._zero
        blocks: Dict[int, bytes] = {}
        for blockno in range(len(snapshot) // bs):
            data = bytes(snapshot[blockno * bs:(blockno + 1) * bs])
            if data != zero:
                blocks[blockno] = data
        return blocks

    def _check_open(self) -> None:
        if self._closed:
            raise DeviceClosedError("I/O on closed device")

    def _check_range(self, blockno: int) -> None:
        if blockno < 0 or blockno >= self._num_blocks:
            raise OutOfRangeIO(
                f"block {blockno} outside device of {self.num_blocks} blocks"
            )
