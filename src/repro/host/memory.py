"""A flat, byte-addressable host memory with a bump allocator.

MRs are registered over ranges of this memory; RDMA data movement in the
engines reads/writes real bytes here, so applications (the Sherman B+
tree) observe genuine one-sided semantics.
"""

from __future__ import annotations

import mmap

from repro.sim.units import MEBIBYTE


class HostMemory:
    """Simulated pinned host DRAM.

    Addresses start at ``base`` (non-zero by default so that address 0
    is never valid — catching uninitialized-pointer bugs in app code).
    """

    DEFAULT_BASE = 0x10000

    def __init__(self, size: int = 32 * MEBIBYTE, base: int = DEFAULT_BASE) -> None:
        if size <= 0:
            raise ValueError(f"memory size must be positive, got {size}")
        self.base = base
        self.size = size
        # an anonymous mapping instead of ``bytearray(size)``: hosts
        # carry tens of MiB each, and eagerly zero-filling that was the
        # single largest setup cost of building a cluster.  The kernel
        # hands out zero pages on demand; reads/writes keep the same
        # slice semantics.
        self._data = mmap.mmap(-1, size)
        self._next = base

    @property
    def end(self) -> int:
        return self.base + self.size

    @property
    def allocated(self) -> int:
        return self._next - self.base

    def alloc(self, length: int, align: int = 8) -> int:
        """Allocate ``length`` bytes aligned to ``align``; returns address."""
        if length <= 0:
            raise ValueError(f"allocation length must be positive, got {length}")
        if align <= 0 or (align & (align - 1)):
            raise ValueError(f"alignment must be a power of two, got {align}")
        addr = (self._next + align - 1) & ~(align - 1)
        if addr + length > self.end:
            raise MemoryError(
                f"out of simulated memory: need {length} at {addr:#x}, "
                f"end is {self.end:#x}"
            )
        self._next = addr + length
        return addr

    def alloc_huge(self, length: int) -> int:
        """Allocate on a 2 MB huge-page boundary (the paper's MR setup)."""
        return self.alloc(length, align=2 * MEBIBYTE)

    def _check(self, addr: int, length: int) -> int:
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        if addr < self.base or addr + length > self.end:
            raise IndexError(
                f"access [{addr:#x}, +{length}) outside memory "
                f"[{self.base:#x}, {self.end:#x})"
            )
        return addr - self.base

    def read(self, addr: int, length: int) -> bytes:
        off = self._check(addr, length)
        return bytes(self._data[off : off + length])

    def write(self, addr: int, data: bytes) -> None:
        off = self._check(addr, len(data))
        self._data[off : off + len(data)] = data

    def read_prechecked(self, addr: int, length: int) -> bytes:
        """:meth:`read` minus the bounds check.

        For callers that have already proven ``[addr, +length)`` lies
        inside this memory (the batched descriptor fast path validates
        a whole cohort up front against its MRs, which were carved from
        this memory by :meth:`alloc`).  Passing an unproven address is
        undefined: a negative offset would wrap Python slice semantics.
        """
        off = addr - self.base
        return bytes(self._data[off : off + length])

    def write_prechecked(self, addr: int, data: bytes) -> None:
        """:meth:`write` minus the bounds check — see
        :meth:`read_prechecked` for the caller contract."""
        off = addr - self.base
        self._data[off : off + len(data)] = data

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, int(value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))

    def fill(self, addr: int, length: int, byte: int = 0) -> None:
        off = self._check(addr, length)
        self._data[off : off + length] = bytes([byte]) * length
