"""Per-process paged address spaces backed by numpy arrays.

Each simulated process owns an :class:`AddressSpace`.  Buffers are allocated
page-aligned at unique virtual addresses; the bytes are real (``np.uint8``),
so a CMA transfer physically moves data and every collective's result can be
checked against MPI semantics after a timed run.

Storage is lazy: a buffer is only an address range until something reads
its bytes.  Every byte access in the kernel and MPI layers is gated on the
node's ``verify`` flag, so an unverified (timing-only) run's buffers stay
address ranges and never allocate or fault in a page.

Address resolution is intentionally strict: an iovec that touches memory
outside any allocated buffer faults with ``EFAULT``, exactly the behaviour
tests rely on to catch mis-computed offsets in collective algorithms.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Optional

import numpy as np

from repro.kernel.errors import CMAError, EFAULT, ESRCH

__all__ = ["Buffer", "AddressSpace", "AddressSpaceManager", "copy_iov_bytes"]

#: virtual address spacing between processes, keeps addr ranges disjoint
_VA_BASE = 0x7F00_0000_0000
_VA_STRIDE = 0x0000_1000_0000


class Buffer:
    """A page-aligned allocation in one process's address space."""

    __slots__ = ("space", "addr", "nbytes", "name", "_data")

    def __init__(self, space: "AddressSpace", addr: int, nbytes: int, name: str):
        self.space = space
        self.addr = addr
        self.nbytes = nbytes
        self.name = name
        self._data: Optional[np.ndarray] = None

    @property
    def data(self) -> np.ndarray:
        """The buffer's bytes, zero-filled on first access."""
        if self._data is None:
            self._data = np.zeros(self.nbytes, dtype=np.uint8)
        return self._data

    @property
    def end(self) -> int:
        return self.addr + self.nbytes

    def fill(self, values: np.ndarray | int) -> None:
        self.data[:] = values

    def view(self, offset: int = 0, nbytes: Optional[int] = None) -> np.ndarray:
        """A numpy view (no copy) of a byte range of this buffer."""
        if nbytes is None:
            nbytes = self.nbytes - offset
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            raise CMAError(EFAULT, f"view [{offset}, {offset + nbytes}) outside {self}")
        return self.data[offset : offset + nbytes]

    def iov(self, offset: int = 0, nbytes: Optional[int] = None) -> tuple[int, int]:
        """(address, length) pair for an iovec entry covering a range."""
        if nbytes is None:
            nbytes = self.nbytes - offset
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            raise CMAError(EFAULT, f"iov [{offset}, {offset + nbytes}) outside {self}")
        return (self.addr + offset, nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Buffer {self.name} @0x{self.addr:x} {self.nbytes}B>"


class AddressSpace:
    """One process's memory map: sorted, non-overlapping buffers."""

    def __init__(self, pid: int, page_size: int, va_base: int):
        self.pid = pid
        self.page_size = page_size
        self.va_base = va_base
        self._next_addr = va_base
        self._starts: list[int] = []  # sorted buffer base addresses
        self._buffers: list[Buffer] = []  # parallel to _starts

    def allocate(self, nbytes: int, name: str = "buf") -> Buffer:
        """Allocate ``nbytes`` page-aligned bytes; returns the new buffer."""
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        addr = self._next_addr
        buf = Buffer(self, addr, nbytes, name)
        pages = -(-nbytes // self.page_size)
        # leave one guard page between allocations so off-by-one iovecs fault
        self._next_addr += (pages + 1) * self.page_size
        idx = bisect.bisect_left(self._starts, addr)
        self._starts.insert(idx, addr)
        self._buffers.insert(idx, buf)
        return buf

    def reset(self) -> None:
        """Unmap everything, dropping every buffer and its bytes.

        ``_next_addr`` returns to ``va_base`` so the next run hands out the
        *same* address sequence a fresh space would — addresses flow into
        iovecs, so this is part of the bit-exactness contract.  Nothing is
        recycled: a buffer allocated after a reset starts zeroed, so a stale
        correct answer from the previous run cannot satisfy verification.
        """
        self._starts.clear()
        self._buffers.clear()
        self._next_addr = self.va_base

    def resolve(self, addr: int, nbytes: int) -> tuple[Buffer, int]:
        """Map (addr, len) to (buffer, offset); EFAULT if out of bounds."""
        idx = bisect.bisect_right(self._starts, addr) - 1
        if idx >= 0:
            buf = self._buffers[idx]
            if addr + nbytes <= buf.end and addr >= buf.addr:
                return buf, addr - buf.addr
        raise CMAError(
            EFAULT,
            f"pid {self.pid}: [{addr:#x}, {addr + nbytes:#x}) not mapped",
        )

    def gather_bytes(self, iov: Iterable[tuple[int, int]]) -> np.ndarray:
        """Concatenate the bytes named by an iovec list (for reads)."""
        parts = []
        for addr, ln in iov:
            if ln == 0:
                continue
            buf, off = self.resolve(addr, ln)
            parts.append(buf.view(off, ln))
        if not parts:
            return np.zeros(0, dtype=np.uint8)
        if len(parts) == 1:
            # Single-range gather (the common case in collectives): a plain
            # copy of the view — np.concatenate would copy too, with setup
            # overhead on top.  Copied, not aliased: callers may scatter the
            # result back into this same space.
            return parts[0].copy()
        return np.concatenate(parts)

    def scatter_bytes(self, iov: Iterable[tuple[int, int]], data: np.ndarray) -> int:
        """Write ``data`` across the ranges of an iovec list (for writes).

        Stops when data runs out (partial fills are allowed, mirroring the
        syscall's byte-count return).  Returns bytes written.
        """
        pos = 0
        total = len(data)
        for addr, ln in iov:
            if pos >= total:
                break
            take = min(ln, total - pos)
            if take == 0:
                continue
            buf, off = self.resolve(addr, take)
            buf.view(off, take)[:] = data[pos : pos + take]
            pos += take
        return pos

    def total_pages(self, iov: Iterable[tuple[int, int]]) -> int:
        """Pages spanned by an iovec list (each entry rounded up separately,
        matching per-iovec pinning in ``process_vm_rw``)."""
        ps = self.page_size
        total = 0
        for addr, ln in iov:
            if ln == 0:
                continue
            first = addr // ps
            last = (addr + ln - 1) // ps
            total += last - first + 1
        return total


def copy_iov_bytes(
    src_space: AddressSpace,
    src_iov: Iterable[tuple[int, int]],
    dst_space: AddressSpace,
    dst_iov: Iterable[tuple[int, int]],
    nbytes: int,
) -> int:
    """Copy up to ``nbytes`` bytes from ``src_iov`` ranges to ``dst_iov``.

    Equivalent (including fault semantics — every source range resolves in
    full, destination ranges only as far as the data reaches) to::

        dst_space.scatter_bytes(dst_iov, src_space.gather_bytes(src_iov)[:nbytes])

    but the single-source-range common case copies straight from the source
    view instead of materialising a concatenated intermediate array.
    Returns bytes written.
    """
    entries = [(a, ln) for a, ln in src_iov if ln != 0]
    if len(entries) != 1:
        data = src_space.gather_bytes(src_iov)
        return dst_space.scatter_bytes(dst_iov, data[:nbytes])
    addr, ln = entries[0]
    sbuf, soff = src_space.resolve(addr, ln)
    data = sbuf.data[soff : soff + min(ln, nbytes)]
    pos = 0
    total = len(data)
    for daddr, dln in dst_iov:
        if pos >= total:
            break
        take = min(dln, total - pos)
        if take == 0:
            continue
        dbuf, doff = dst_space.resolve(daddr, take)
        chunk = data[pos : pos + take]
        if dbuf is sbuf:
            # Source and destination alias the same backing buffer (a
            # process copying within its own allocation): gather_bytes
            # would have detached the data; match that by copying first.
            chunk = chunk.copy()
        dbuf.data[doff : doff + take] = chunk
        pos += take
    return pos


class AddressSpaceManager:
    """The 'kernel view' of all processes on a node: pid -> address space."""

    def __init__(self, page_size: int):
        self.page_size = page_size
        self._spaces: dict[int, AddressSpace] = {}
        self._n = 0

    def create(self, pid: int) -> AddressSpace:
        if pid in self._spaces:
            raise ValueError(f"pid {pid} already has an address space")
        space = AddressSpace(
            pid, self.page_size, _VA_BASE + self._n * _VA_STRIDE
        )
        self._n += 1
        self._spaces[pid] = space
        return space

    def reset_spaces(self) -> None:
        """Reset every registered space (keeps pid registrations — a warm
        node re-registers the same pid set in the same order)."""
        for space in self._spaces.values():
            space.reset()

    def get(self, pid: int) -> AddressSpace:
        try:
            return self._spaces[pid]
        except KeyError:
            raise CMAError(ESRCH, f"no such pid {pid}") from None

    def __contains__(self, pid: int) -> bool:
        return pid in self._spaces
