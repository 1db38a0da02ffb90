"""Deterministic buffer patterns and MPI-semantics postconditions.

Every timed run can also be a correctness check: send buffers are filled
with a pattern that is a function of (source rank, destination block), and
after the collective completes the runner asserts each receive buffer holds
exactly the bytes MPI semantics dictate.  A collective that "wins" by not
moving the right bytes fails loudly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import Comm

__all__ = [
    "pattern",
    "setup_buffers",
    "verify_buffers",
    "expect_bytes",
    "VerificationError",
]


class VerificationError(AssertionError):
    """A collective produced bytes that violate MPI semantics."""


#: every pattern is periodic in its byte index with this period (prime)
_PERIOD = 251
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
        table.reshape(-1, _PERIOD)[:] = np.arange(_PERIOD) * 31 % _PERIOD
        table.flags.writeable = False  # owns its bytes: views cannot re-enable
        _table = table
    return table


def pattern(a: int, b: int, eta: int) -> np.ndarray:
    """Deterministic eta-byte pattern keyed by two small integers.

    ``pattern(a, b, eta)[i] == (31 * i + 7 * a + 13 * b + 5) % 251``, which
    is the slice of the periodic table ``31 * j % 251`` starting at the
    ``k`` with ``31 * k == 7 * a + 13 * b + 5 (mod 251)``.  Returns a
    **read-only** view of that table: write it into a buffer via
    assignment or :meth:`~repro.kernel.Buffer.fill`, never mutate it.
    """
    k = _INV31 * (7 * a + 13 * b + 5) % _PERIOD
    return _table_of(eta + _PERIOD - 1)[k : k + eta]


def _fill_blocks(buf, pairs: Iterable[tuple[int, int]], eta: int) -> None:
    """Fill ``buf`` with one eta-byte pattern per (a, b) pair, back to back."""
    for i, (a, b) in enumerate(pairs):
        buf.view(i * eta, eta)[:] = pattern(a, b, eta)


def _reduce_expected(p: int, eta: int) -> np.ndarray:
    """Elementwise sum mod 256 of ``pattern(r, 0, eta)`` over ranks.

    Every term is 251-periodic, so the sum is too: add one period of each
    rank's pattern (exact in uint32 for any p below 2**24) and tile it.
    """
    period = np.stack([pattern(r, 0, _PERIOD) for r in range(p)])
    period = (period.sum(axis=0, dtype=np.uint32) % 256).astype(np.uint8)
    return np.resize(period, eta)


def expect_bytes(buf, off: int, want: np.ndarray, what: str) -> None:
    """Raise :class:`VerificationError` unless ``buf`` holds ``want`` at
    ``off``; the message names ``what``, the first bad byte's offset
    within ``want``, and the got/want values there."""
    got = buf.view(off, len(want))
    if not np.array_equal(got, want):
        bad = int(np.argmax(got != want))
        raise VerificationError(
            f"{what}: first mismatch at byte {bad} "
            f"(got {got[bad]}, want {want[bad]})"
        )


def setup_buffers(comm: "Comm", spec) -> tuple[list, list]:
    """Allocate and fill (sendbufs, recvbufs) for ``spec``; entries may be
    None where a rank does not use that buffer."""
    p, eta, root = spec.procs, spec.eta, spec.root
    coll = spec.collective
    fill = comm.node.verify
    sendbufs: list = [None] * p
    recvbufs: list = [None] * p

    if coll == "scatter":
        sendbufs[root] = comm.allocate(root, p * eta, "sendbuf")
        if fill:
            _fill_blocks(sendbufs[root], ((root, d) for d in range(p)), eta)
        for r in range(p):
            if r == root and spec.in_place:
                continue
            recvbufs[r] = comm.allocate(r, eta, "recvbuf")
    elif coll == "gather":
        recvbufs[root] = comm.allocate(root, p * eta, "recvbuf")
        for r in range(p):
            if r == root and spec.in_place:
                if fill:
                    recvbufs[root].view(root * eta, eta)[:] = pattern(root, 0, eta)
                continue
            sendbufs[r] = comm.allocate(r, eta, "sendbuf")
            if fill:
                sendbufs[r].fill(pattern(r, 0, eta))
    elif coll == "bcast":
        for r in range(p):
            recvbufs[r] = comm.allocate(r, eta, "buf")
        if fill:
            recvbufs[root].fill(pattern(root, 0, eta))
    elif coll == "allgather":
        for r in range(p):
            recvbufs[r] = comm.allocate(r, p * eta, "recvbuf")
            if spec.in_place:
                if fill:
                    recvbufs[r].view(r * eta, eta)[:] = pattern(r, 0, eta)
            else:
                sendbufs[r] = comm.allocate(r, eta, "sendbuf")
                if fill:
                    sendbufs[r].fill(pattern(r, 0, eta))
    elif coll == "alltoall":
        for r in range(p):
            sendbufs[r] = comm.allocate(r, p * eta, "sendbuf")
            recvbufs[r] = comm.allocate(r, p * eta, "recvbuf")
            if fill:
                _fill_blocks(sendbufs[r], ((r, d) for d in range(p)), eta)
    elif coll in ("scatterv", "gatherv"):
        from repro.core.vcollectives import displacements

        counts = spec.counts
        displs = displacements(counts)
        total = max(sum(counts), 1)
        if coll == "scatterv":
            sendbufs[root] = comm.allocate(root, total, "sendbuf")
            if fill:
                for d in range(p):
                    if counts[d]:
                        sendbufs[root].view(displs[d], counts[d])[:] = pattern(
                            root, d, counts[d]
                        )
            for r in range(p):
                if r == root and spec.in_place:
                    continue
                if counts[r]:
                    recvbufs[r] = comm.allocate(r, counts[r], "recvbuf")
        else:
            recvbufs[root] = comm.allocate(root, total, "recvbuf")
            for r in range(p):
                if r == root and spec.in_place:
                    if fill and counts[root]:
                        recvbufs[root].view(displs[root], counts[root])[:] = (
                            pattern(root, 0, counts[root])
                        )
                    continue
                if counts[r]:
                    sendbufs[r] = comm.allocate(r, counts[r], "sendbuf")
                    if fill:
                        sendbufs[r].fill(pattern(r, 0, counts[r]))
    elif coll == "alltoallv":
        from repro.core.vcollectives import displacements

        counts = spec.counts
        for r in range(p):
            send_total = max(sum(counts[r]), 1)
            recv_total = max(sum(counts[s][r] for s in range(p)), 1)
            sendbufs[r] = comm.allocate(r, send_total, "sendbuf")
            recvbufs[r] = comm.allocate(r, recv_total, "recvbuf")
            if fill:
                displs = displacements(counts[r])
                for d in range(p):
                    if counts[r][d]:
                        sendbufs[r].view(displs[d], counts[r][d])[:] = pattern(
                            r, d, counts[r][d]
                        )
    elif coll in ("reduce", "allreduce"):
        for r in range(p):
            if coll == "allreduce" or r == root:
                recvbufs[r] = comm.allocate(r, eta, "recvbuf")
            if coll == "reduce" and r == root and spec.in_place:
                if fill:
                    recvbufs[root].fill(pattern(root, 0, eta))
                continue
            sendbufs[r] = comm.allocate(r, eta, "sendbuf")
            if fill:
                sendbufs[r].fill(pattern(r, 0, eta))
    else:
        raise KeyError(f"unknown collective {coll!r}")
    return sendbufs, recvbufs


def verify_buffers(comm: "Comm", spec, sendbufs, recvbufs) -> None:
    """Assert the MPI postcondition of ``spec`` over all receive buffers."""
    p, eta, root = spec.procs, spec.eta, spec.root
    coll = spec.collective

    def expect(buf, off, want, what):
        expect_bytes(buf, off, want, f"{coll}/{spec.algorithm}: {what}")

    if coll == "scatter":
        for r in range(p):
            if r == root and spec.in_place:
                expect(
                    sendbufs[root], root * eta, pattern(root, root, eta),
                    "root in-place block clobbered",
                )
                continue
            expect(recvbufs[r], 0, pattern(root, r, eta), f"rank {r} block")
    elif coll == "gather":
        for r in range(p):
            expect(
                recvbufs[root], r * eta, pattern(r, 0, eta),
                f"root's block from rank {r}",
            )
    elif coll == "bcast":
        want = pattern(root, 0, eta)
        for r in range(p):
            expect(recvbufs[r], 0, want, f"rank {r} payload")
    elif coll == "allgather":
        for r in range(p):
            for b in range(p):
                expect(recvbufs[r], b * eta, pattern(b, 0, eta), f"rank {r} block {b}")
    elif coll == "alltoall":
        for r in range(p):
            for s in range(p):
                expect(
                    recvbufs[r], s * eta, pattern(s, r, eta),
                    f"rank {r} block from {s}",
                )
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
                    recvbufs[root], displs[r], pattern(r, 0, n),
                    f"root's block from rank {r}",
                )
            elif r == root and spec.in_place:
                expect(
                    sendbufs[root], displs[root], pattern(root, root, n),
                    "root in-place block clobbered",
                )
            else:
                expect(recvbufs[r], 0, pattern(root, r, n), f"rank {r} block")
    elif coll == "alltoallv":
        from repro.core.vcollectives import displacements

        counts = spec.counts
        for r in range(p):
            recv_displs = displacements([counts[s][r] for s in range(p)])
            for s in range(p):
                n = counts[s][r]
                if n:
                    expect(
                        recvbufs[r], recv_displs[s], pattern(s, r, n),
                        f"rank {r} block from {s}",
                    )
    elif coll in ("reduce", "allreduce"):
        reduced = _reduce_expected(p, eta)
        targets = range(p) if coll == "allreduce" else [root]
        for r in targets:
            expect(recvbufs[r], 0, reduced, f"rank {r} reduction")
    else:  # pragma: no cover - guarded in setup
        raise KeyError(coll)
