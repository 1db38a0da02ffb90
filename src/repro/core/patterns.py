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

from repro.kernel.address_space import PERIOD as _PERIOD
from repro.kernel.address_space import ROW, materialize, runs_nbytes

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


def expect_runs(buf, off: int, want: list, what: str) -> None:
    """Raise :class:`VerificationError` unless ``buf`` holds the bytes of
    the run list ``want`` at ``off``; the message names ``what``, the first
    bad byte's offset within ``want``, and the got/want values there.

    Equal canonical runs pass without touching bytes; anything else is
    decided by a byte compare, so this passes exactly when one would.
    """
    if buf.holds(off, want):
        return
    got = buf.view(off, runs_nbytes(want))
    want = materialize(want)
    if not np.array_equal(got, want):
        bad = int(np.argmax(got != want))
        raise VerificationError(
            f"{what}: first mismatch at byte {bad} "
            f"(got {got[bad]}, want {want[bad]})"
        )


def _send_blocks(spec) -> Iterator[tuple[int, int, int, int, int]]:
    """``(rank, offset, a, b, n)`` for every block of every send buffer:
    rank's send buffer holds ``pattern(a, b, n)`` at ``offset``, and ``b``
    is the block's index in it."""
    p, eta, root = spec.procs, spec.eta, spec.root
    coll = spec.collective
    if coll == "scatter":
        for d in range(p):
            yield root, d * eta, root, d, eta
    elif coll == "alltoall":
        for r in range(p):
            for d in range(p):
                yield r, d * eta, r, d, eta
    elif coll in ("gather", "allgather", "reduce", "allreduce"):
        for r in range(p):
            if spec.in_place and (
                coll == "allgather" or (r == root and coll != "allreduce")
            ):
                continue
            yield r, 0, r, 0, eta
    elif coll in ("scatterv", "gatherv", "alltoallv"):
        from repro.core.vcollectives import displacements

        counts = spec.counts
        if coll == "scatterv":
            displs = displacements(counts)
            for d in range(p):
                if counts[d]:
                    yield root, displs[d], root, d, counts[d]
        elif coll == "gatherv":
            for r in range(p):
                if counts[r] and not (r == root and spec.in_place):
                    yield r, 0, r, 0, counts[r]
        else:
            for r in range(p):
                displs = displacements(counts[r])
                for d in range(p):
                    if counts[r][d]:
                        yield r, displs[d], r, d, counts[r][d]
    elif coll != "bcast":
        raise KeyError(f"unknown collective {coll!r}")


def setup_buffers(comm: "Comm", spec) -> tuple[list, list]:
    """Allocate and fill (sendbufs, recvbufs) for ``spec``; entries may be
    None where a rank does not use that buffer."""
    p, eta, root = spec.procs, spec.eta, spec.root
    coll = spec.collective
    sendbufs: list = [None] * p
    recvbufs: list = [None] * p
    #: (rank, offset, n): an in-place block the root or a rank seeds itself
    seeds: list = []

    if coll == "scatter":
        sendbufs[root] = comm.allocate(root, p * eta, "sendbuf")
        for r in range(p):
            if r == root and spec.in_place:
                continue
            recvbufs[r] = comm.allocate(r, eta, "recvbuf")
    elif coll == "gather":
        recvbufs[root] = comm.allocate(root, p * eta, "recvbuf")
        for r in range(p):
            if r == root and spec.in_place:
                seeds.append((root, root * eta, eta))
                continue
            sendbufs[r] = comm.allocate(r, eta, "sendbuf")
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
    elif coll == "alltoall":
        for r in range(p):
            sendbufs[r] = comm.allocate(r, p * eta, "sendbuf")
            recvbufs[r] = comm.allocate(r, p * eta, "recvbuf")
    elif coll in ("scatterv", "gatherv"):
        from repro.core.vcollectives import displacements

        counts = spec.counts
        displs = displacements(counts)
        total = max(sum(counts), 1)
        if coll == "scatterv":
            sendbufs[root] = comm.allocate(root, total, "sendbuf")
            for r in range(p):
                if r == root and spec.in_place:
                    continue
                if counts[r]:
                    recvbufs[r] = comm.allocate(r, counts[r], "recvbuf")
        else:
            recvbufs[root] = comm.allocate(root, total, "recvbuf")
            for r in range(p):
                if r == root and spec.in_place:
                    if counts[root]:
                        seeds.append((root, displs[root], counts[root]))
                    continue
                if counts[r]:
                    sendbufs[r] = comm.allocate(r, counts[r], "sendbuf")
    elif coll == "alltoallv":
        counts = spec.counts
        for r in range(p):
            send_total = max(sum(counts[r]), 1)
            recv_total = max(sum(counts[s][r] for s in range(p)), 1)
            sendbufs[r] = comm.allocate(r, send_total, "sendbuf")
            recvbufs[r] = comm.allocate(r, recv_total, "recvbuf")
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
        for r, off, a, b, n in _send_blocks(spec):
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

    def expect(buf, off, a, b, n, what):
        expect_runs(buf, off, pattern_runs(a, b, n), f"{coll}/{spec.algorithm}: {what}")

    if coll == "scatter":
        for r in range(p):
            if r == root and spec.in_place:
                expect(
                    sendbufs[root], root * eta, root, root, eta,
                    "root in-place block clobbered",
                )
                continue
            expect(recvbufs[r], 0, root, r, eta, f"rank {r} block")
    elif coll == "gather":
        for r in range(p):
            expect(recvbufs[root], r * eta, r, 0, eta, f"root's block from rank {r}")
    elif coll == "bcast":
        for r in range(p):
            expect(recvbufs[r], 0, root, 0, eta, f"rank {r} payload")
    elif coll == "allgather":
        for r in range(p):
            for b in range(p):
                expect(recvbufs[r], b * eta, b, 0, eta, f"rank {r} block {b}")
    elif coll == "alltoall":
        for r in range(p):
            for s in range(p):
                expect(recvbufs[r], s * eta, s, r, eta, f"rank {r} block from {s}")
    elif coll in ("scatterv", "gatherv"):
        from repro.core.vcollectives import displacements

        counts = spec.counts
        displs = displacements(counts)
        for r in range(p):
            n = counts[r]
            if n == 0:
                continue
            if coll == "gatherv":
                expect(
                    recvbufs[root], displs[r], r, 0, n,
                    f"root's block from rank {r}",
                )
            elif r == root and spec.in_place:
                expect(
                    sendbufs[root], displs[root], root, root, n,
                    "root in-place block clobbered",
                )
            else:
                expect(recvbufs[r], 0, root, r, n, f"rank {r} block")
    elif coll == "alltoallv":
        from repro.core.vcollectives import displacements

        counts = spec.counts
        for r in range(p):
            recv_displs = displacements([counts[s][r] for s in range(p)])
            for s in range(p):
                n = counts[s][r]
                if n:
                    expect(
                        recvbufs[r], recv_displs[s], s, r, n,
                        f"rank {r} block from {s}",
                    )
    elif coll in ("reduce", "allreduce"):
        reduced = _reduce_runs(p, eta)
        targets = range(p) if coll == "allreduce" else [root]
        for r in targets:
            expect_runs(
                recvbufs[r], 0, reduced,
                f"{coll}/{spec.algorithm}: rank {r} reduction",
            )
    else:  # pragma: no cover - guarded in setup
        raise KeyError(coll)

    for r, off, a, b, n in _send_blocks(spec):
        if sendbufs[r] is not None:
            expect(sendbufs[r], off, a, b, n, f"rank {r} sendbuf block {b} modified")
