"""An in-memory block device with block-granular I/O accounting.

The device is deliberately simple: a flat byte buffer addressed in
fixed-size blocks.  It enforces bounds (so a resize bug that writes past
the device fails loudly), tracks read/write counts per block for the
benchmarks, and supports growing — which is how the simulated
``resize2fs`` models operating on an enlarged partition.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import DeviceClosedError, OutOfRangeIO

MIN_BLOCK_SIZE = 512
MAX_BLOCK_SIZE = 65536


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

    def __init__(self, num_blocks: int, block_size: int = 4096,
                 track_io: bool = True) -> None:
        _check_geometry(num_blocks, block_size)
        self._setup(bytearray(num_blocks * block_size), block_size, track_io)

    def _setup(self, buf: bytearray, block_size: int,
               track_io: bool) -> None:
        self.block_size = block_size
        self._buf = buf
        self._closed = False
        #: Per-block access accounting.  The I/O-pattern benchmarks read
        #: these dicts; campaign runs that never consume them construct
        #: the device with ``track_io=False`` to skip the per-access
        #: dict updates entirely.
        self.track_io = track_io
        self.reads: Dict[int, int] = {}
        self.writes: Dict[int, int] = {}

    @classmethod
    def from_snapshot(cls, snapshot: bytes, block_size: int,
                      track_io: bool = True) -> "BlockDevice":
        """A fresh, independent device initialized from a snapshot.

        This is the campaign engine's clone primitive: restoring a
        post-mkfs snapshot into a new device is a plain buffer copy,
        orders of magnitude cheaper than re-running mkfs, and the clone
        shares no mutable state with the device the snapshot came from.
        """
        if not snapshot or len(snapshot) % block_size:
            raise ValueError(
                f"snapshot of {len(snapshot)} bytes is not a whole number "
                f"of {block_size}-byte blocks")
        _check_geometry(len(snapshot) // block_size, block_size)
        # Not via __init__: it would zero-fill a device-sized buffer
        # only for the copy to replace it.
        dev = cls.__new__(cls)
        dev._setup(bytearray(snapshot), block_size, track_io)
        return dev

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        """Current size of the device in blocks."""
        return len(self._buf) // self.block_size

    @property
    def size_bytes(self) -> int:
        """Current size of the device in bytes."""
        return len(self._buf)

    def grow(self, new_num_blocks: int) -> None:
        """Extend the device to ``new_num_blocks`` (zero-filled).

        Shrinking is rejected; the simulated resize2fs handles shrink by
        relocating data first and then never actually truncating the
        device (the image's ``s_blocks_count`` is the source of truth).
        """
        self._check_open()
        if new_num_blocks < self.num_blocks:
            raise ValueError(
                f"cannot shrink device from {self.num_blocks} to {new_num_blocks} blocks"
            )
        self._buf.extend(bytes((new_num_blocks - self.num_blocks) * self.block_size))

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------

    def read_block(self, blockno: int) -> bytes:
        """Return the contents of one block."""
        self._check_open()
        self._check_range(blockno)
        if self.track_io:
            self.reads[blockno] = self.reads.get(blockno, 0) + 1
        start = blockno * self.block_size
        return bytes(self._buf[start : start + self.block_size])

    def read_block_view(self, blockno: int) -> memoryview:
        """Zero-copy read of one block.

        Returns a read-only :class:`memoryview` into the device buffer —
        no bytes are copied, which is what makes whole-table scans (the
        e2fsck inode and bitmap passes) cheap.  The view reflects the
        *live* buffer and must not outlive the next write to the block;
        callers that need to keep data around copy it with ``bytes()``.
        A held view also blocks :meth:`grow` (the underlying buffer
        cannot be resized while exported), so consume views promptly.
        """
        self._check_open()
        self._check_range(blockno)
        if self.track_io:
            self.reads[blockno] = self.reads.get(blockno, 0) + 1
        start = blockno * self.block_size
        return memoryview(self._buf).toreadonly()[start : start + self.block_size]

    def write_block(self, blockno: int, data: bytes) -> None:
        """Write one block; short data is zero-padded, long data rejected."""
        self._check_open()
        self._check_range(blockno)
        if len(data) > self.block_size:
            raise ValueError(
                f"write of {len(data)} bytes exceeds block size {self.block_size}"
            )
        if self.track_io:
            self.writes[blockno] = self.writes.get(blockno, 0) + 1
        start = blockno * self.block_size
        if len(data) == self.block_size:
            self._buf[start : start + self.block_size] = data
        else:
            self._buf[start : start + self.block_size] = (
                data + bytes(self.block_size - len(data)))

    def read_bytes(self, offset: int, length: int) -> bytes:
        """Byte-granular read (used for the 1024-byte superblock window)."""
        self._check_open()
        if offset < 0 or length < 0 or offset + length > len(self._buf):
            raise OutOfRangeIO(
                f"byte read [{offset}, {offset + length}) outside device of {len(self._buf)} bytes"
            )
        return bytes(self._buf[offset : offset + length])

    def write_bytes(self, offset: int, data: bytes) -> None:
        """Byte-granular write (used for the superblock and its backups)."""
        self._check_open()
        if offset < 0 or offset + len(data) > len(self._buf):
            raise OutOfRangeIO(
                f"byte write [{offset}, {offset + len(data)}) outside device of {len(self._buf)} bytes"
            )
        self._buf[offset : offset + len(data)] = data

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
        return bytes(self._buf)

    def restore(self, snapshot: bytes) -> None:
        """Restore device contents from a snapshot of the same geometry."""
        self._check_open()
        if len(snapshot) % self.block_size:
            raise ValueError("snapshot length is not block-aligned")
        self._buf = bytearray(snapshot)

    # ------------------------------------------------------------------
    # internal
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise DeviceClosedError("I/O on closed device")

    def _check_range(self, blockno: int) -> None:
        if blockno < 0 or blockno >= self.num_blocks:
            raise OutOfRangeIO(
                f"block {blockno} outside device of {self.num_blocks} blocks"
            )
