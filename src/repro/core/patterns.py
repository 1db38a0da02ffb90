"""Deterministic buffer patterns and MPI-semantics postconditions.

Every timed run can also be a correctness check: send buffers are filled
with a pattern that is a function of (source rank, destination block), and
after the collective completes the runner asserts each receive buffer holds
exactly the bytes MPI semantics dictate, and each send buffer still holds
its fill.  A collective that "wins" by not moving the right bytes fails
loudly.

Patterns are written and checked as runs of the buffer algebra in
:mod:`repro.kernel.address_space`: ``pattern(a, b, ·)`` is the one-phase
run ``(phase(a, b),)`` and a reduction's result is the sorted tuple of its
operands' phases, so fill and verify cost one run per block whatever the
block size.  Bytes are materialized only to report a mismatch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.core.common import Blocks
from repro.kernel.address_space import PERIOD as _PERIOD
from repro.kernel.address_space import ROW, materialize

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import Comm

__all__ = [
    "pattern",
    "phase",
    "pattern_runs",
    "setup_buffers",
    "verify_buffers",
    "expect_runs",
    "VerificationError",
]


class VerificationError(AssertionError):
    """A collective produced bytes that violate MPI semantics."""


#: 31 * 81 = 10 * 251 + 1, so 81 inverts the per-byte step 31 mod 251
_INV31 = 81
#: ``_table[j] == 31 * j % 251``, read-only, tiled to the largest request
_table = np.zeros(0, dtype=np.uint8)


def _table_of(n: int) -> np.ndarray:
    """The shared table, grown to at least ``n`` bytes.

    Callers slice the table this returns, never the global, so a racing
    grow that installs a shorter table costs a later regrow, not bytes.
    """
    global _table
    table = _table
    if len(table) < n:
        table = np.empty(-(-n // _PERIOD) * _PERIOD, dtype=np.uint8)
        table.reshape(-1, _PERIOD)[:] = ROW
        table.flags.writeable = False  # owns its bytes: views cannot re-enable
        _table = table
    return table


def phase(a: int, b: int) -> int:
    """The ``k`` with ``31 * k == 7 * a + 13 * b + 5 (mod 251)``: where
    ``pattern(a, b, ·)`` starts in the table."""
    return _INV31 * (7 * a + 13 * b + 5) % _PERIOD


def pattern(a: int, b: int, eta: int) -> np.ndarray:
    """Deterministic eta-byte pattern keyed by two small integers.

    ``pattern(a, b, eta)[i] == (31 * i + 7 * a + 13 * b + 5) % 251``, which
    is the slice of the periodic table ``31 * j % 251`` starting at
    :func:`phase`.  Returns a **read-only** view of that table; buffers
    hold the same bytes as the run :func:`pattern_runs`.
    """
    k = phase(a, b)
    return _table_of(eta + _PERIOD - 1)[k : k + eta]


def pattern_runs(a: int, b: int, eta: int) -> list:
    """``pattern(a, b, eta)`` as a one-run list."""
    return [(eta, (phase(a, b),))]


def _fill_blocks(buf, pairs: Iterable[tuple[int, int]], eta: int) -> None:
    """Fill ``buf`` with one eta-byte pattern per (a, b) pair, back to back."""
    buf.write(0, [
        (eta, ((phase(a, b) - i * eta) % _PERIOD,))
        for i, (a, b) in enumerate(pairs)
    ])


def _reduce_runs(p: int, eta: int) -> list:
    """The sum mod 256 of ``pattern(r, 0, eta)`` over ranks, as one run."""
    return [(eta, tuple(sorted(phase(r, 0) for r in range(p))))]


def _reduce_expected(p: int, eta: int) -> np.ndarray:
    """Elementwise sum mod 256 of ``pattern(r, 0, eta)`` over ranks."""
    return materialize(_reduce_runs(p, eta))


def expect_runs(buf, off: int, want: list, what: str, *args) -> None:
    """Raise :class:`VerificationError` unless ``buf`` holds the bytes of
    the one-run list ``want`` at ``off``; the message names ``what``
    (filled in from ``args`` with :meth:`str.format`, and only on a miss),
    the first bad byte's offset within ``want``, and the got/want values
    there.

    Equal canonical runs pass without touching bytes; anything else is
    decided by a byte compare, so this passes exactly when one would.
    """
    if buf.holds(off, want):
        return
    got = buf.view(off, want[0][0])
    want = materialize(want)
    if not np.array_equal(got, want):
        bad = int(np.argmax(got != want))
        if args:
            what = what.format(*args)
        raise VerificationError(
            f"{what}: first mismatch at byte {bad} "
            f"(got {got[bad]}, want {want[bad]})"
        )


def _send_blocks(spec, blocks: Blocks) -> Iterator[tuple[int, int, int, int, int]]:
    """``(rank, offset, a, b, n)`` for every non-empty block of every send
    buffer: rank's send buffer holds ``pattern(a, b, n)`` at ``offset``,
    and ``b`` is the block's index in it."""
    p, root = spec.procs, spec.root
    coll = spec.collective
    if coll in ("scatter", "scatterv"):
        for d in range(p):
            n, off = blocks(d)
            if n:
                yield root, off, root, d, n
    elif coll in ("alltoall", "alltoallv"):
        for r in range(p):
            for d in range(p):
                n, off, _ = blocks.pair(r, d)
                if n:
                    yield r, off, r, d, n
    elif coll in ("gather", "gatherv", "allgather", "reduce", "allreduce"):
        for r in range(p):
            if spec.in_place and (
                coll == "allgather" or (r == root and coll != "allreduce")
            ):
                continue
            n = blocks(r)[0]
            if n:
                yield r, 0, r, 0, n
    elif coll != "bcast":
        raise KeyError(f"unknown collective {coll!r}")


def _packed_size(blocks: Blocks, p: int) -> int:
    """Bytes of a buffer that packs p ranks' blocks: the last one ends it."""
    n, off = blocks(p - 1)
    return max(off + n, 1)


def setup_buffers(comm: "Comm", spec) -> tuple[list, list]:
    """Allocate and fill (sendbufs, recvbufs) for ``spec``; entries may be
    None where a rank does not use that buffer."""
    p, eta, root = spec.procs, spec.eta, spec.root
    coll = spec.collective
    blocks = Blocks.of(spec)
    sendbufs: list = [None] * p
    recvbufs: list = [None] * p
    #: (rank, offset, n): an in-place block the root or a rank seeds itself
    seeds: list = []

    if coll in ("scatter", "scatterv"):
        sendbufs[root] = comm.allocate(root, _packed_size(blocks, p), "sendbuf")
        for r in range(p):
            n = blocks(r)[0]
            if n and not (r == root and spec.in_place):
                recvbufs[r] = comm.allocate(r, n, "recvbuf")
    elif coll in ("gather", "gatherv"):
        recvbufs[root] = comm.allocate(root, _packed_size(blocks, p), "recvbuf")
        for r in range(p):
            n, off = blocks(r)
            if not n:
                continue
            if r == root and spec.in_place:
                seeds.append((root, off, n))
            else:
                sendbufs[r] = comm.allocate(r, n, "sendbuf")
    elif coll == "bcast":
        for r in range(p):
            recvbufs[r] = comm.allocate(r, eta, "buf")
        seeds.append((root, 0, eta))
    elif coll == "allgather":
        for r in range(p):
            recvbufs[r] = comm.allocate(r, p * eta, "recvbuf")
            if spec.in_place:
                seeds.append((r, r * eta, eta))
            else:
                sendbufs[r] = comm.allocate(r, eta, "sendbuf")
    elif coll in ("alltoall", "alltoallv"):
        for r in range(p):
            # row r's and column r's last blocks end r's two buffers
            n, off, _ = blocks.pair(r, p - 1)
            sendbufs[r] = comm.allocate(r, max(off + n, 1), "sendbuf")
            n, _, off = blocks.pair(p - 1, r)
            recvbufs[r] = comm.allocate(r, max(off + n, 1), "recvbuf")
    elif coll in ("reduce", "allreduce"):
        for r in range(p):
            if coll == "allreduce" or r == root:
                recvbufs[r] = comm.allocate(r, eta, "recvbuf")
            if coll == "reduce" and r == root and spec.in_place:
                seeds.append((root, 0, eta))
                continue
            sendbufs[r] = comm.allocate(r, eta, "sendbuf")
    else:
        raise KeyError(f"unknown collective {coll!r}")

    if comm.node.verify:
        for r, off, a, b, n in _send_blocks(spec, blocks):
            sendbufs[r].write(off, pattern_runs(a, b, n))
        for r, off, n in seeds:
            recvbufs[r].write(off, pattern_runs(r, 0, n))
    return sendbufs, recvbufs


def verify_buffers(comm: "Comm", spec, sendbufs, recvbufs) -> None:
    """Assert the MPI postcondition of ``spec`` over all receive buffers,
    and that every send buffer still holds its fill (MPI's send buffers
    are read-only to the collective)."""
    p, eta, root = spec.procs, spec.eta, spec.root
    coll = spec.collective
    blocks = Blocks.of(spec)

    # each check passes its message as a template: a passing block
    # formats nothing
    head = f"{coll}/{spec.algorithm}"
    if coll in ("scatter", "scatterv"):
        for r in range(p):
            n, off = blocks(r)
            if not n:
                continue
            if r == root and spec.in_place:
                expect_runs(
                    sendbufs[root], off, pattern_runs(root, root, n),
                    "{}: root in-place block clobbered", head,
                )
            else:
                expect_runs(
                    recvbufs[r], 0, pattern_runs(root, r, n),
                    "{}: rank {} block", head, r,
                )
    elif coll in ("gather", "gatherv"):
        for r in range(p):
            n, off = blocks(r)
            if n:
                expect_runs(
                    recvbufs[root], off, pattern_runs(r, 0, n),
                    "{}: root's block from rank {}", head, r,
                )
    elif coll == "bcast":
        for r in range(p):
            expect_runs(
                recvbufs[r], 0, pattern_runs(root, 0, eta),
                "{}: rank {} payload", head, r,
            )
    elif coll == "allgather":
        for r in range(p):
            for b in range(p):
                expect_runs(
                    recvbufs[r], b * eta, pattern_runs(b, 0, eta),
                    "{}: rank {} block {}", head, r, b,
                )
    elif coll in ("alltoall", "alltoallv"):
        for r in range(p):
            for s in range(p):
                n, _, off = blocks.pair(s, r)
                if n:
                    expect_runs(
                        recvbufs[r], off, pattern_runs(s, r, n),
                        "{}: rank {} block from {}", head, r, s,
                    )
    elif coll in ("reduce", "allreduce"):
        reduced = _reduce_runs(p, eta)
        targets = range(p) if coll == "allreduce" else [root]
        for r in targets:
            expect_runs(
                recvbufs[r], 0, reduced, "{}: rank {} reduction", head, r
            )
    else:  # pragma: no cover - guarded in setup
        raise KeyError(coll)

    for r, off, a, b, n in _send_blocks(spec, blocks):
        if sendbufs[r] is not None:
            expect_runs(
                sendbufs[r], off, pattern_runs(a, b, n),
                "{}: rank {} sendbuf block {} modified", head, r, b,
            )
