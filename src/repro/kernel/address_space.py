"""Per-process paged address spaces whose buffers hold provenance runs.

Each simulated process owns an :class:`AddressSpace`.  Buffers are allocated
page-aligned at unique virtual addresses.  A buffer's contents are not a
byte array but a canonical list of *runs*: byte ranges whose bytes are a
closed-form function of position.  A CMA transfer, a shm chunk or a
reduction therefore slices, splices and adds runs in O(runs touched), and
every collective's result can still be checked byte-exactly against MPI
semantics after a timed run.

A run's value is one of

* a sorted tuple of *phases* into the 251-periodic table
  ``T[j] = 31 * j % 251``: the byte at buffer offset ``x`` is
  ``sum(T[(phi + x) % 251] for phi in phases) % 256``.  ``()`` is zeros,
  ``(phi,)`` is one verification pattern, longer tuples are a reduction's
  mod-256 sum;
* a read-only ``uint8`` array: *raw* bytes written from outside the
  algebra (:meth:`Buffer.write_bytes`), which copy and add like any run.

Adjacent runs with equal phase tuples are merged, so equal canonical runs
mean equal bytes.  The converse does not hold (a raw run may spell out a
pattern), so a caller whose canonical compare fails falls back to bytes.
:attr:`Buffer.data` and :meth:`Buffer.view` materialize read-only bytes on
demand, for error values, tests and inspection; the data path never does.

Data moves as detached *run lists*: ``[(length, value), ...]`` covering
consecutive bytes, with phases relative to the list's first byte, so a
list can ride a mailbox or a wire and land at any offset.  A kernel copy
(:func:`copy_iov_bytes`) walks the aligned pieces of its two iovec lists
(:func:`_iov_pieces`) and moves each piece with one read of its source
range and one splice into its destination, never cutting or re-measuring
a run list; :meth:`Buffer._splice` merges equal neighbours as it appends.

Every content access in the kernel and MPI layers is gated on the node's
``verify`` flag, so an unverified (timing-only) run's buffers keep the
single zero run they are allocated with.

Address resolution is intentionally strict: an iovec that touches memory
outside any allocated buffer faults with ``EFAULT``, exactly the behaviour
tests rely on to catch mis-computed offsets in collective algorithms.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Optional

import numpy as np

from repro.kernel.errors import CMAError, EFAULT, ESRCH

__all__ = [
    "Buffer",
    "AddressSpace",
    "AddressSpaceManager",
    "copy_iov_bytes",
    "iov_pages",
    "materialize",
    "runs_nbytes",
    "PERIOD",
    "ROW",
]

#: virtual address spacing between processes, keeps addr ranges disjoint
_VA_BASE = 0x7F00_0000_0000
_VA_STRIDE = 0x0000_1000_0000

#: every phase run is periodic in its byte offset with this period (prime)
PERIOD = 251
#: one period of the table ``T[j] = 31 * j % 251`` that phases index
ROW = (np.arange(PERIOD) * 31 % PERIOD).astype(np.uint8)
ROW.flags.writeable = False
#: two periods back to back, so any phase's period is one slice
_ROW2 = np.concatenate([ROW, ROW])
_ROW2.flags.writeable = False


def _shift(phases: tuple, d: int) -> tuple:
    """``phases`` re-based ``d`` bytes later, in canonical (sorted) form."""
    if len(phases) == 1:
        return ((phases[0] + d) % PERIOD,)
    if not phases or not d % PERIOD:
        return phases
    return tuple(sorted([(f + d) % PERIOD for f in phases]))


def _bytes(value, start: int, n: int) -> np.ndarray:
    """``n`` bytes of a run value, the first at phase offset ``start``
    (raw values are returned as they are: they hold exactly ``n`` bytes)."""
    if type(value) is not tuple:
        return value
    period = np.zeros(PERIOD, dtype=np.uint8)
    for f in value:
        k = (f + start) % PERIOD
        period += _ROW2[k : k + PERIOD]  # uint8 wraps: the mod-256 sum
    return np.resize(period, n)


def _raw(data) -> np.ndarray:
    """A read-only ``uint8`` copy of ``data``, for a raw run."""
    raw = np.asarray(data).astype(np.uint8).reshape(-1)
    raw.flags.writeable = False
    return raw


def materialize(runs: list) -> np.ndarray:
    """The bytes of a run list, as a fresh array."""
    parts = []
    pos = 0
    for n, value in runs:
        parts.append(_bytes(value, pos, n))
        pos += n
    if not parts:
        return np.zeros(0, dtype=np.uint8)
    return np.concatenate(parts)


def runs_nbytes(runs: list) -> int:
    return sum(n for n, _ in runs)


def _cut(runs: list, a: int, b: int) -> list:
    """Bytes ``[a, b)`` of a run list; phases stay relative to byte 0 of
    ``runs`` (the caller accounts for the ``a``-byte offset)."""
    out = []
    pos = 0
    for n, value in runs:
        end = pos + n
        if end > a:
            if pos >= b:
                break
            lo, hi = max(pos, a), min(end, b)
            if type(value) is not tuple and hi - lo != n:
                value = value[lo - pos : hi - pos]
            out.append((hi - lo, value))
        pos = end
    return out


def _piece(value, pos: int, k: int, n: int) -> np.ndarray:
    """``n`` bytes of a run value from its byte ``k``, which is byte
    ``pos`` of its run list."""
    return _bytes(value, pos, n) if type(value) is tuple else value[k : k + n]


def _combine(mine: list, theirs: list) -> list:
    """Elementwise mod-256 sum of two run lists of equal length."""
    theirs = [r for r in theirs if r[0]]
    out = []
    pos = j = used = 0
    for n, v in mine:
        done = 0
        while done < n:
            m, w = theirs[j]
            take = min(n - done, m - used)
            if type(v) is tuple and type(w) is tuple:
                s = w if not v else v if not w else tuple(sorted(v + w))
            else:
                s = _piece(v, pos, done, take) + _piece(w, pos, used, take)
                s.flags.writeable = False
            out.append((take, s))
            done += take
            used += take
            pos += take
            if used == m:
                j += 1
                used = 0
    return out


class Buffer:
    """A page-aligned allocation in one process's address space."""

    __slots__ = ("space", "addr", "nbytes", "name", "_starts", "_values", "__weakref__")

    def __init__(self, space: "AddressSpace", addr: int, nbytes: int, name: str):
        self.space = space
        self.addr = addr
        self.nbytes = nbytes
        self.name = name
        #: run start offsets (ascending, first 0) and their values, with
        #: phases relative to buffer offset 0
        self._starts = [0]
        self._values: list = [()]

    @property
    def end(self) -> int:
        return self.addr + self.nbytes

    def _check(self, offset: int, nbytes: int, what: str) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            raise CMAError(EFAULT, f"{what} [{offset}, {offset + nbytes}) outside {self}")

    # -- run algebra ------------------------------------------------------------

    def _get(self, offset: int, nbytes: int, origin: int) -> list:
        """Runs of ``[offset, offset + nbytes)`` with phases relative to
        buffer offset ``origin``."""
        starts, values = self._starts, self._values
        i = bisect_right(starts, offset) - 1
        last = len(starts) - 1
        end = offset + nbytes
        out = []
        pos = offset
        while pos < end:
            stop = starts[i + 1] if i < last else self.nbytes
            if stop > end:
                stop = end
            value = values[i]
            if type(value) is tuple:
                value = _shift(value, origin)
            elif stop - pos != len(value):
                value = value[pos - starts[i] : stop - starts[i]]
            out.append((stop - pos, value))
            pos = stop
            i += 1
        return out

    def _put(self, offset: int, runs: list, origin: int) -> None:
        """Overwrite bytes from ``offset`` with ``runs``, whose phases are
        relative to buffer offset ``origin``."""
        new_s, new_v = [], []
        pos = offset
        for n, value in runs:
            if n:
                new_s.append(pos)
                new_v.append(_shift(value, -origin) if type(value) is tuple else value)
                pos += n
        self._check(offset, pos - offset, "write")
        if pos > offset:
            self._splice(offset, pos, new_s, new_v)

    def _splice(self, a: int, b: int, new_s: list, new_v: list) -> None:
        """Replace the runs over ``[a, b)`` by ``new_s``/``new_v``, keeping
        the run list canonical.

        The left neighbour, the left remainder, the new runs, the right
        remainder and the right neighbour are appended in that order, each
        merged into the last kept run when both are equal phase tuples,
        and the result replaces the old entries in one slice assignment.
        """
        starts, values = self._starts, self._values
        i = bisect_right(starts, a) - 1  # the run holding byte a
        j = bisect_left(starts, b, i + 1)  # first run from b on
        nruns = len(starts)
        ms, mv = [], []
        # ``last``: the last kept value when it is a phase tuple, else None
        last = None
        if i:  # the left neighbour
            lo = i - 1
            last = values[lo]
            ms.append(starts[lo])
            mv.append(last)
        else:
            lo = 0
        s = starts[i]
        if s < a:  # the left remainder
            last = values[i]
            if type(last) is not tuple:
                last = last[: a - s]
            ms.append(s)
            mv.append(last)
        if type(last) is not tuple:
            last = None
        for s, v in zip(new_s, new_v):
            if type(v) is tuple:
                if v == last:
                    continue
                last = v
            else:
                last = None
            ms.append(s)
            mv.append(v)
        if j < nruns:
            hi = j + 1
            end = starts[j]
        else:
            hi = j
            end = self.nbytes
        if end > b:  # the right remainder
            s, v = starts[j - 1], values[j - 1]
            if type(v) is not tuple:
                ms.append(b)
                mv.append(v[b - s :])
                last = None
            elif v != last:
                ms.append(b)
                mv.append(v)
                last = v
        if j < hi:  # the right neighbour
            v = values[j]
            if type(v) is not tuple or v != last:
                ms.append(starts[j])
                mv.append(v)
        starts[lo:hi] = ms
        values[lo:hi] = mv

    def read(self, offset: int = 0, nbytes: Optional[int] = None) -> list:
        """The run list of a byte range (a detached snapshot)."""
        if nbytes is None:
            nbytes = self.nbytes - offset
        self._check(offset, nbytes, "read")
        return self._get(offset, nbytes, offset)

    def write(self, offset: int, runs: list, nbytes: Optional[int] = None) -> None:
        """Overwrite bytes from ``offset`` with a run list (its first
        ``nbytes`` bytes, when given)."""
        if nbytes is not None:
            runs = _cut(runs, 0, nbytes)
        self._put(offset, runs, offset)

    def add(self, offset: int, runs: list) -> None:
        """Add a run list into the bytes from ``offset``, elementwise mod 256."""
        n = runs_nbytes(runs)
        self._check(offset, n, "add")
        self._put(offset, _combine(self._get(offset, n, offset), runs), offset)

    def holds(self, offset: int, runs: list) -> bool:
        """True if the range from ``offset`` is canonically the one-run
        list ``runs``: one phase-tuple run of this buffer covers it, with
        the same phases.

        True implies the bytes are equal; False does not imply they
        differ (a raw run, or a different phase multiset, may spell the
        same bytes), so callers fall back to :meth:`view` to decide.
        """
        [(n, w)] = runs
        self._check(offset, n, "read")
        if not n:
            return True
        starts = self._starts
        i = bisect_right(starts, offset) - 1
        v = self._values[i]
        return (
            (starts[i + 1] if i + 1 < len(starts) else self.nbytes) >= offset + n
            and type(v) is tuple
            and type(w) is tuple
            and _shift(v, offset) == w
        )

    def write_bytes(self, offset: int, data) -> None:
        """Overwrite bytes from ``offset`` with raw bytes from outside the
        algebra (copied; any integer dtype is cast to ``uint8``)."""
        raw = _raw(data)
        self.write(offset, [(len(raw), raw)])

    def fill(self, values) -> None:
        """Set every byte: to one integer, or to an ``nbytes``-long array."""
        if isinstance(values, (int, np.integer)):
            if values == 0:
                self.write(0, [(self.nbytes, ())])
                return
            values = np.full(self.nbytes, values, dtype=np.uint8)
        if len(values) != self.nbytes:
            raise ValueError(f"fill of {len(values)} bytes into {self}")
        self.write_bytes(0, values)

    def runs(self) -> list[tuple[int, int, object]]:
        """The canonical runs as ``(start, end, value)``, with phases
        relative to buffer offset 0 (for tests and inspection)."""
        ends = self._starts[1:] + [self.nbytes]
        return list(zip(self._starts, ends, self._values))

    # -- materialized bytes -----------------------------------------------------

    def view(self, offset: int = 0, nbytes: Optional[int] = None) -> np.ndarray:
        """Read-only bytes of a range, materialized from the runs."""
        out = materialize(self.read(offset, nbytes))
        out.flags.writeable = False
        return out

    @property
    def data(self) -> np.ndarray:
        """The whole buffer's bytes, materialized read-only."""
        return self.view()

    def iov(self, offset: int = 0, nbytes: Optional[int] = None) -> tuple[int, int]:
        """(address, length) pair for an iovec entry covering a range."""
        if nbytes is None:
            nbytes = self.nbytes - offset
        self._check(offset, nbytes, "iov")
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
        idx = bisect_left(self._starts, addr)
        self._starts.insert(idx, addr)
        self._buffers.insert(idx, buf)
        return buf

    def reset(self) -> None:
        """Unmap everything, dropping every buffer and its runs.

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
        idx = bisect_right(self._starts, addr) - 1
        if idx >= 0:
            buf = self._buffers[idx]
            if addr + nbytes <= buf.end and addr >= buf.addr:
                return buf, addr - buf.addr
        raise CMAError(
            EFAULT,
            f"pid {self.pid}: [{addr:#x}, {addr + nbytes:#x}) not mapped",
        )

    def gather_bytes(self, iov: Iterable[tuple[int, int]]) -> np.ndarray:
        """The bytes named by an iovec list, materialized (a fresh copy)."""
        parts = [np.zeros(0, dtype=np.uint8)]
        for addr, ln in iov:
            if ln:
                buf, off = self.resolve(addr, ln)
                parts.append(materialize(buf._get(off, ln, off)))
        return np.concatenate(parts)

    def scatter_bytes(self, iov: Iterable[tuple[int, int]], data) -> int:
        """Write raw ``data`` across an iovec list, stopping when the data
        runs out (a partial fill, like the syscall's byte count); returns
        bytes written."""
        raw = _raw(data)
        total = len(raw)
        pos = 0
        for addr, ln in iov:
            if pos >= total:
                break
            take = min(ln, total - pos)
            if take:
                buf, off = self.resolve(addr, take)
                buf._put(off, [(take, raw[pos : pos + take])], off)
                pos += take
        return pos


def iov_pages(iov: Iterable[tuple[int, int]], page_size: int) -> int:
    """Pages spanned by an iovec list (each entry rounded up separately,
    matching per-iovec pinning in ``process_vm_rw``)."""
    total = 0
    for addr, ln in iov:
        if ln == 0:
            continue
        total += (addr + ln - 1) // page_size - addr // page_size + 1
    return total


def _iov_pieces(local, remote, nbytes: int) -> list:
    """Aligned ``(local_addr, remote_addr, n)`` pieces of two iovec lists,
    covering the first ``nbytes`` of their byte streams."""
    out = []
    i = j = loff = roff = 0
    while nbytes > 0:
        (la, ln), (ra, rn) = local[i], remote[j]
        n = min(ln - loff, rn - roff, nbytes)
        if n > 0:
            out.append((la + loff, ra + roff, n))
        loff += n
        roff += n
        nbytes -= n
        if loff == ln:
            i, loff = i + 1, 0
        if roff == rn:
            j, roff = j + 1, 0
    return out


def copy_iov_bytes(
    src_space: AddressSpace,
    src_iov: list[tuple[int, int]],
    dst_space: AddressSpace,
    dst_iov: list[tuple[int, int]],
    nbytes: int,
) -> int:
    """Copy up to ``nbytes`` bytes from ``src_iov`` ranges to ``dst_iov``.

    The copy walks the aligned pieces of the two iovec lists
    (:func:`_iov_pieces`) and moves each with one :meth:`Buffer._get`
    and one :meth:`Buffer._put`, phases relative to the piece's first
    byte, so runs are never cut or re-measured.  Every source range
    resolves in full (EFAULT even past ``nbytes``), destination ranges
    only as far as the data reaches, each when the walk enters it.
    Every source piece is read before any is written, so a copy within
    one buffer behaves like ``memmove``.  Returns bytes written.
    """
    srcs = []  # (length, buffer) of every non-empty source range
    total = 0
    for addr, ln in src_iov:
        if ln:
            srcs.append((ln, src_space.resolve(addr, ln)[0]))
            total += ln
    dst_total = 0
    for _, ln in dst_iov:
        dst_total += ln
    if dst_total < total:
        total = dst_total
    if nbytes < total:
        total = nbytes
    if total <= 0:
        return 0
    pieces = _iov_pieces(src_iov, dst_iov, total)
    got = []
    k = left = 0
    for sa, _, n in pieces:
        if not left:  # the piece opens the next source range
            left, buf = srcs[k]
            k += 1
        off = sa - buf.addr
        got.append(buf._get(off, n, off))
        left -= n
    ranges = iter(dst_iov)
    pos = left = 0
    for (_, da, n), runs in zip(pieces, got):
        if not left:  # the piece opens the next non-empty destination range
            addr, ln = next(ranges)
            while not ln:
                addr, ln = next(ranges)
            left = min(ln, total - pos)
            buf = dst_space.resolve(addr, left)[0]
        off = da - buf.addr
        buf._put(off, runs, off)
        left -= n
        pos += n
    return total


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
